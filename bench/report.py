"""Run every workload once and print its metrics side by side.

    python3 bench/report.py --trace 0 [--seed 0]
    python3 bench/report.py --trace 1

``--trace 0`` prints the end-to-end metrics of each workload, with
``error_rate`` (failed ops / attempted).  ``--trace 1`` prints each
per-layer metric with its unit, the share of the traced pass's wall time
for the time metrics, the self time of each layer and the tracing overhead.
Each workload runs in its own ``run.py`` process; the exit code is 1 if any
run failed or reported wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from run import END_TO_END

BENCH = Path(__file__).resolve().parent


def run(workload, args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(args.seed), "--trace", str(args.trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="print the metrics of every workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    names = sorted(workloads.SLOTS)
    results = {}
    status = 0
    for w in names:
        code, result = run(w, args)
        if code or result is None or not result["correct"]:
            status = 1
        if result is not None:
            results[w] = result
    names = [w for w in names if w in results]
    head = f"{'metric':30s} {'unit':6s}" + "".join(f" {w:>20s}" for w in names)
    print(head)
    if not args.trace:
        for k, (unit, _) in END_TO_END.items():
            print(f"{k:30s} {unit:6s}" + "".join(
                f" {results[w]['metrics'][k]['value']:20.6g}" for w in names))
        print(f"{'error_rate':30s} {'ratio':6s}" + "".join(
            f" {results[w]['failed'] / results[w]['attempted']:20.6g}" for w in names))
        return status
    values = {w: {k: m["value"] for k, m in results[w]["metrics"].items()} for w in names}
    for k, (unit, _) in tracing.METRICS.items():
        cells = []
        for w in names:
            v = values[w][k]
            share = f" ({v / values[w]['trace.pass_s']:6.1%})" if unit == "s" and k != "trace.pass_s" else " " * 9
            cells.append(f" {v:11.5g}{share}")
        print(f"{k:30s} {unit:6s}" + "".join(cells))
    print("self time by layer, share of the traced pass:")
    for layer in tracing.LAYERS:
        print(f"  {layer:28s} {'s':6s}" + "".join(
            f" {tracing.layer_self_time(values[w])[layer]:11.5g} "
            f"({tracing.layer_self_time(values[w])[layer] / values[w]['trace.pass_s']:6.1%})"
            for w in names))
    return status


if __name__ == "__main__":
    sys.exit(main())
