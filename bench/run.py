"""Benchmark of the tanglenabla command line, run in-process.

    python3 bench/run.py --workload statesum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One client in a closed loop: each op is one ``tanglenabla.cli.main(argv)``
call with stdout captured, and the next op starts when it returns.  Every
op's stdout must hash to the digest recorded in ``pool.json`` and its exit
code must be 0; a run with a failed op exits with 1.  After the timed
passes, a few small diagrams made from the seed are checked against the
independent oracles in ``tests/oracles.py``.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics of the traced passes are reported (see ``tracing.py``).
Human-readable lines come first; the last line of stdout is one JSON object.

Times are reported at a fixed host speed.  A shared host's speed can drift
by tens of percent over minutes, more than the changes this benchmark has to
resolve, and one run cannot average that out.  So after every op and every
set-up a fixed pure-Python loop, the gauge, is timed, and each time a run
reports is its wall time times ``GAUGE_NOMINAL_S / median gauge time``.  The
gauge is the benchmark's own code, so the program cannot change it: a program
that gets slower reads slower.  The human-readable lines give the gauge
median and the factor, from which the wall-clock values follow.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
MIN_PASSES = 4          # untraced passes; also fixes the tail percentile
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
CROSS_CHECK_ENDS = (2, 2, 2, 4, 4, 6)   # small seeded diagrams checked
CROSS_MAX_CROSSINGS = 8                 # against the oracles
GAUGE_NOMINAL_S = 0.005                 # the gauge's time at reference speed

# end-to-end metric -> (unit, description)
END_TO_END = {
    "setup_s": ("s", "median set-up: import, build and write inputs, load goldens"),
    "ops_per_s": ("ops/s", "ops per second of op time, median over passes"),
    "op_p50_ms": ("ms", "median time of one cli.main call"),
    "op_tail_ms": ("ms", "tail time of one cli.main call"),
    "peak_rss_mb": ("MB", "ru_maxrss of the process after the timed passes"),
}


def set_up(workload: str, seed: int, work: Path):
    """Import the package afresh, build the inputs, write the .tgl files
    and select the goldens.  Returns (seconds, cli module, op list)."""
    for name in [n for n in sys.modules
                 if n in ("tanglenabla", "generate") or n.startswith("tanglenabla.")]:
        del sys.modules[name]
    t0 = perf_counter()
    cli = importlib.import_module("tanglenabla.cli")
    generate = importlib.import_module("generate")
    pool = workloads.load_pool()
    variants = workloads.choose(pool, workload, seed)
    paths = []
    for v in variants:
        if "recipe" not in v:
            paths.append(None)
            continue
        d = generate.build(v["recipe"])
        if d is None:
            raise RuntimeError(f"recipe {v['recipe']} no longer builds a diagram")
        path = work / f"{v['name']}.tgl"
        path.write_text(cli.serialize(d), encoding="utf-8")
        paths.append(str(path))
    ops = workloads.op_list(workload, variants, paths)
    return perf_counter() - t0, cli, ops


def gauge() -> float:
    """Seconds of a fixed pure-Python loop: how fast the host runs now."""
    t0 = perf_counter()
    s = 0
    for i in range(60000):
        s += i * i
    return perf_counter() - t0


def run_op(cli, argv):
    """(seconds, exit code or exception text, stdout) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:       # the run goes on; the op counts as failed
            code = traceback.format_exc()
        t1 = perf_counter()
    if code != 0 and err.getvalue():
        code = f"{code}: {err.getvalue().strip()}"
    return t1 - t0, code, out.getvalue()


class Loop:
    """Runs passes over the op list and checks every op."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.gauges: list[float] = []

    def run_pass(self, tracer=None):
        """(per-op seconds, stdout bytes) of one pass."""
        times = []
        nbytes = 0
        for op_id, argv, golden in self.ops:
            if tracer is not None:
                tracer.op = op_id
            dt, code, text = run_op(self.cli, argv)
            self.gauges.append(gauge())
            data = text.encode("utf-8")
            self.attempted += 1
            nbytes += len(data)
            times.append(dt)
            if code != 0:
                self.failures.append(f"{op_id} {' '.join(argv)}: exit {code}")
            elif hashlib.sha256(data).hexdigest() != golden:
                self.failures.append(f"{op_id} {' '.join(argv)}: stdout digest differs")
        return times, nbytes


def quantile(values, q):
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(loop: Loop, seconds: float, setups: list[float], setup_gauges: list[float]):
    """End-to-end metrics, times scaled to the gauge's reference speed.  The
    tail percentile is fixed by the op count: the highest with TAIL_BEYOND
    samples beyond it in MIN_PASSES passes, so it does not move with the
    number of passes a run of some length completes."""
    passes = []
    t0 = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
        passes.append(loop.run_pass()[0])
    scale = GAUGE_NOMINAL_S / statistics.median(loop.gauges)
    setup_scale = GAUGE_NOMINAL_S / statistics.median(setup_gauges)
    samples = [t * scale for p in passes for t in p]
    n_ops = len(loop.ops)
    tail_q = 1 - TAIL_BEYOND / (n_ops * MIN_PASSES)
    return {
        "setup_s": statistics.median(setups) * setup_scale,
        "ops_per_s": statistics.median(n_ops / (sum(p) * scale) for p in passes),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": quantile(samples, tail_q) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"tail_percentile": round(100 * tail_q, 2), "samples": len(samples),
        "passes": len(passes),
        "gauge_ms": round(statistics.median(loop.gauges) * 1e3, 4),
        "scale": round(scale, 4), "setup_scale": round(setup_scale, 4)}


def measure_traced(loop: Loop, seconds: float):
    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    t0 = perf_counter()
    while len(traced) < MIN_TRACED_PASSES or perf_counter() - t0 < seconds:
        plain.append(sum(loop.run_pass()[0]))
        tracer.counts.clear()
        first = len(tracer.spans)
        tracer.install()
        try:
            times, nbytes = loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        wall = sum(times)
        traced.append(wall)
        m = tracer.pass_metrics(first, dict(tracer.counts), wall)
        m["cli.stdout_bytes"] = nbytes
        per_pass.append(m)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, {"passes": len(traced), "spans": len(tracer.spans)}


def cross_check(cli, seed: int, work: Path) -> list[str]:
    """Small diagrams made from the seed, run through the CLI and compared
    with tests/oracles.py: the state list against the 4^m filter, and the
    2-ended numerator against skein resolution."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        oracles = importlib.import_module("oracles")
    finally:
        sys.path.pop(0)
    generate = sys.modules["generate"]
    LaurentPoly = sys.modules["tanglenabla.laurent"].LaurentPoly
    rng = random.Random(f"cross:{seed}")
    problems = []
    for k, ends in enumerate(CROSS_CHECK_ENDS):
        d = None
        for _ in range(100):
            m = rng.randint(max(ends // 2 + 3, 5), CROSS_MAX_CROSSINGS)
            d = generate.build({"kind": "grow", "seed": rng.randrange(10 ** 9),
                                "crossings": m, "ends": ends, "flips": 0})
            if d is not None:
                break
        if d is None:
            problems.append(f"no {ends}-ended diagram for the oracle checks")
            continue
        path = work / f"cross{k}.tgl"
        path.write_text(cli.serialize(d), encoding="utf-8")
        _, code, text = run_op(cli, ["--format", "json", "states", str(path)])
        got = sorted(tuple(s["markers"]) for s in json.loads(text)["states"]) if code == 0 else code
        if got != sorted(oracles.brute_force_states(d)):
            problems.append(f"states of {d.name} differ from the brute-force oracle")
        if ends == 2:
            _, code, text = run_op(cli, ["--format", "json", "conway", str(path)])
            if code != 0:
                problems.append(f"conway on {d.name}: exit {code}")
                continue
            num = LaurentPoly.from_json(json.loads(text)["numerator"])
            if num.rename({c: "t" for c in num.vars}) != oracles.conway_skein(d):
                problems.append(f"conway numerator of {d.name} differs from skein resolution")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tanglenabla" / "cli.py").is_file():
        print(f"error: no tanglenabla sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
        return _run(args, Path(work))


def _run(args, work: Path) -> int:
    setups, setup_gauges = [], []
    for _ in range(SETUP_REPEATS):
        seconds, cli, ops = set_up(args.workload, args.seed, work)
        setups.append(seconds)
        setup_gauges.append(gauge())
    loop = Loop(cli, ops)
    if args.trace:
        metrics, info = measure_traced(loop, args.seconds)
        names = tracing.METRICS
    else:
        metrics, info = measure(loop, args.seconds, setups, setup_gauges)
        names = END_TO_END
    problems = cross_check(cli, args.seed, work) + loop.failures
    failed = len(loop.failures)
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, (unit, about) in names.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit:6s} {about}")
    if not args.trace:
        print(f"  {'error_rate':28s} {failed / loop.attempted:14.6g} {'ratio':6s} "
              f"failed ops / attempted ({failed} / {loop.attempted})")
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": names[k][0]} for k in names},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
