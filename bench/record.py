"""Record the input pool, its golden digests and the workload manifest.

    PYTHONPATH=src python3 bench/record.py

Each candidate's ops run once traced (for the digests and the work counts)
and twice more untraced (for the cost of each op, the lower of the two,
scaled to the gauge's reference speed as ``run.py`` scales its times).
Candidates are compared by the cost of each op kind: the closest are those
whose costs lie nearest the medians, so that a run seed moves the median
and tail op times little.  For a ``grow`` spec asking for k ops, this scans
candidate projections in seed order, keeps the k closest, and records each
as a slot of its own whose variants are crossing flips of that projection,
the FLIP_VARIANTS closest of FLIP_CANDIDATES: the states, components and
generator counts are the same whichever variant a run seed picks.  For a
``check`` or ``pretzel`` spec the variants are candidate seeds, and the
closest are kept.  A candidate is skipped only when its recipe builds no
diagram, has too few closed components, or (for a pretzel) is zero on every
site; an op that fails stops the recording.

The results go to ``pool.json`` (read by ``run.py``) and ``manifest.json``
(what each workload contains), both rewritten whole.  Run it only on a
commit whose outputs are trusted: the digests it records are what every
later run is checked against.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

import tracing
import workloads
from run import GAUGE_NOMINAL_S, gauge, run_op

BENCH = Path(__file__).resolve().parent
MANIFEST = BENCH / "manifest.json"

SCAN_FACTOR = 6     # candidates scanned per kept variant or projection
MIN_VARIANTS = 8
FLIP_VARIANTS = 8   # crossing-flip variants kept per grow projection
FLIP_CANDIDATES = 16


def run_ops(cli, ops: dict[str, list[str]]):
    """Digests and traced counts of one candidate's ops, then the cost of
    each op."""
    tracer = tracing.Tracer()
    digests = {}
    tracer.install()
    try:
        for kind, argv in ops.items():
            _, code, text = run_op(cli, argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)}: exit {code}")
            digests[kind] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    finally:
        tracer.uninstall()

    def cost(argv):
        return run_op(cli, argv)[0] * GAUGE_NOMINAL_S / gauge()

    op_cost = {kind: min(cost(argv), cost(argv)) for kind, argv in ops.items()}
    c = tracer.counts
    return digests, op_cost, {
        "states": c["states.states"],
        "generators": c["gradings.generators"],
        "sites": c["nabla_all.sites"],
        "nonzero_sites": c["nabla_all.nonzero"],
        "max_crossings": c["diagram.max_crossings"],
    }


def candidate(workload, spec, k, cli, generate, tmp, flips=0):
    """Variant ``k`` of a spec, or None when it is unusable."""
    if spec["kind"] == "check":
        v = {"name": f"{spec['prop']}_s{k}", "prop": spec["prop"], "seed": k,
             "cases": spec["cases"]}
        path = None
    else:
        recipe = {key: val for key, val in spec.items() if key != "min_closed"}
        recipe["seed"] = k
        if spec["kind"] == "grow":
            recipe["flips"] = flips
        d = generate.build(recipe)
        if d is None or d.m_closed < spec.get("min_closed", 0):
            return None
        v = {"name": generate.recipe_name(recipe), "recipe": recipe,
             "crossings": len(d.crossings), "ends": len(d.boundary),
             "closed": d.m_closed}
        path = tmp / f"{v['name']}.tgl"
        path.write_text(cli.serialize(d), encoding="utf-8")
    v["digests"], v["op_cost_s"], counts = run_ops(cli, workloads.op_argvs(workload, v, str(path)))
    v["cost_s"] = sum(v["op_cost_s"].values())
    if spec["kind"] == "pretzel" and counts["nonzero_sites"] == 0:
        return None
    v.update(counts)
    return v


def closest_to_median(found, n):
    """The n candidates whose cost of each op kind lies nearest its median."""
    kinds = found[0]["op_cost_s"]
    mid = {k: math.log(statistics.median(v["op_cost_s"][k] for v in found)) for k in kinds}
    return sorted(found, key=lambda v: sum(abs(math.log(v["op_cost_s"][k]) - mid[k])
                                           for k in kinds))[:n]


def scan(workload, spec, n, cli, generate, tmp):
    found = []
    k = 0
    while len(found) < n:
        k += 1
        v = candidate(workload, spec, k, cli, generate, tmp)
        if v is not None:
            found.append(v)
    return found


def record_slots(workload, spec, count, cli, generate, tmp):
    if spec["kind"] != "grow":
        want = max(MIN_VARIANTS, 2 * count)
        kept = closest_to_median(scan(workload, spec, SCAN_FACTOR * want, cli, generate, tmp),
                                 want)
        return [{"spec": spec, "count": count,
                 "variants": sorted(kept, key=lambda v: v["name"])}]
    found = scan(workload, spec, max(MIN_VARIANTS, SCAN_FACTOR * count), cli, generate, tmp)
    slots = []
    for proj in sorted(closest_to_median(found, count), key=lambda v: v["recipe"]["seed"]):
        seed = proj["recipe"]["seed"]
        flipped = [candidate(workload, spec, seed, cli, generate, tmp, flips=f)
                   for f in range(1, FLIP_CANDIDATES + 1)]
        variants = sorted(closest_to_median(flipped, FLIP_VARIANTS),
                          key=lambda v: v["recipe"]["flips"])
        slots.append({"spec": dict(spec, seed=seed), "count": 1, "variants": variants})
    return slots


def _range(values):
    values = list(values)
    return [min(values), max(values)]


def manifest_entry(workload: str, slots: list[dict]) -> dict:
    """What a pass of the workload holds, over every seed's choice."""
    def per_pass(key, group=slots):
        lo = hi = 0
        for slot in group:
            xs = sorted(v[key] for v in slot["variants"])
            lo += sum(xs[:slot["count"]])
            hi += sum(xs[-slot["count"]:])
        return [round(lo, 3), round(hi, 3)]

    def ops_per_pass(group):
        return sum(slot["count"] * len(workloads.op_argvs(workload, slot["variants"][0], ""))
                   for slot in group)

    groups: dict[str, list[dict]] = {}
    for slot in slots:
        spec = {k: v for k, v in slot["spec"].items() if k != "seed"}
        groups.setdefault(json.dumps(spec, sort_keys=True), []).append(slot)
    variants = [v for slot in slots for v in slot["variants"]]
    sites = sum(v["sites"] for v in variants)
    out = {
        "why": workloads.WHY[workload],
        "ops_per_pass": ops_per_pass(slots),
        "max_crossings": _range(v["max_crossings"] for v in variants),
        "states_per_pass": per_pass("states"),
        "generators_per_pass": per_pass("generators"),
        "cost_s_per_pass": per_pass("cost_s"),
        "nonzero_site_ratio": round(sum(v["nonzero_sites"] for v in variants) / sites, 4)
        if sites else None,
        "inputs": [{"spec": json.loads(key), "ops_per_pass": ops_per_pass(group),
                    "slots": len(group), "variants_per_slot": len(group[0]["variants"]),
                    "states_per_pass": per_pass("states", group),
                    "cost_s_per_pass": per_pass("cost_s", group)}
                   for key, group in groups.items()],
    }
    if workload == "catalogue":
        out["note"] = "diagrams are made inside each check: 2, 4 or 6 ends"
    else:
        out["crossings"] = _range(v["crossings"] for v in variants)
        out["ends"] = _range(v["ends"] for v in variants)
        out["closed"] = _range(v["closed"] for v in variants)
    return out


def main() -> int:
    from tanglenabla import cli
    import generate

    pool = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=BENCH.parent) as tmp:
        for workload in sorted(workloads.SLOTS):
            slots = []
            for spec, count in workloads.SLOTS[workload]:
                slots += record_slots(workload, spec, count, cli, generate, Path(tmp))
                print(workload, spec, file=sys.stderr)
            pool[workload] = slots
    workloads.POOL.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    manifest = {w: manifest_entry(w, slots) for w, slots in sorted(pool.items())}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
