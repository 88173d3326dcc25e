"""Workload definitions: what each workload runs, on which inputs, and how
a run seed turns the recorded pool into one op list.

Each workload is a list of slots.  A slot fixes the kind of input (a
generator recipe without its seed, or a catalogue property) and how many
ops of that kind a pass runs.  ``record.py`` fills every slot with variants
of similar cost at the seed commit and stores them, with the sha256 of each
op's stdout, in ``pool.json``.  A run seed picks distinct variants for each
slot, so different seeds give different inputs while the work per pass
stays close; the ops run in slot order.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POOL = Path(__file__).resolve().parent / "pool.json"

CHECK_CASES = 10
CHECK_PROPERTIES = (
    "rm_invariance", "mirror", "reversal", "skein", "knot_pm_one",
    "set_pm_one", "glueing", "parity", "fourended_symmetry", "mutation",
    "euler_char", "mutorient_counterexample")

# slot: (spec, ops per pass drawn from it).  A grow spec may ask for a
# minimum number of closed components; a pretzel spec requires a non-zero
# value on some site.
SLOTS = {
    "statesum": [
        ({"kind": "grow", "crossings": 12, "ends": 2}, 5),
        ({"kind": "grow", "crossings": 14, "ends": 4}, 6),
        ({"kind": "grow", "crossings": 16, "ends": 4}, 4),
        ({"kind": "grow", "crossings": 15, "ends": 6}, 3),
        ({"kind": "pretzel", "columns": [4, 3, 3], "close": False}, 3),
        ({"kind": "pretzel", "columns": [3, 3, 2, 2], "close": False}, 3),
        ({"kind": "pretzel", "columns": [5, 3, 3], "close": True}, 3),
        ({"kind": "pretzel", "columns": [3, 1, 3, 2], "close": True}, 3),
    ],
    "gradings": [
        ({"kind": "grow", "crossings": 14, "ends": 4, "min_closed": 3}, 3),
        ({"kind": "grow", "crossings": 15, "ends": 4, "min_closed": 3}, 2),
        ({"kind": "grow", "crossings": 14, "ends": 2, "min_closed": 3}, 2),
        ({"kind": "grow", "crossings": 13, "ends": 6, "min_closed": 3}, 1),
    ],
    "catalogue": [({"kind": "check", "prop": p, "cases": CHECK_CASES}, 4)
                  for p in CHECK_PROPERTIES],
}

WHY = {
    "statesum": "nabla (and conway on 2-ended inputs) on grown diagrams and "
                "pretzel families: the state sum, states and laurent layers "
                "carry the time",
    "gradings": "gradings and euler on diagrams with 3 or more closed "
                "components: states consumed one by one, 2^k decorations, "
                "the per-site rescan",
    "catalogue": "check on all 12 catalogue properties: hundreds of small "
                 "diagrams, so diagram construction, transforms and verify "
                 "carry the time",
}


def op_argvs(workload: str, variant: dict, path: str) -> dict[str, list[str]]:
    """The ops run on one variant, by op kind."""
    if workload == "catalogue":
        return {"check": ["check", variant["prop"], "--seed", str(variant["seed"]),
                          "--cases", str(variant["cases"])]}
    if workload == "gradings":
        return {"gradings": ["--format", "json", "gradings", path],
                "euler": ["euler", path]}
    ops = {"nabla": ["--format", "json", "nabla", path]}
    if variant["ends"] == 2:
        ops["conway"] = ["--format", "json", "conway", path]
    return ops


def load_pool() -> dict:
    with open(POOL, encoding="utf-8") as fh:
        return json.load(fh)


def choose(pool: dict, workload: str, seed: int) -> list[dict]:
    """The variants a run seed picks: distinct ones per slot."""
    rng = random.Random(f"{workload}:{seed}")
    picked = []
    for slot in pool[workload]:
        picked += rng.sample(slot["variants"], slot["count"])
    return picked


def op_list(workload: str, variants: list[dict], paths: list[str]):
    """(op id, argv, golden digest) in slot order."""
    ops = []
    for v, path in zip(variants, paths):
        for kind, argv in op_argvs(workload, v, path).items():
            ops.append((f"{v['name']}:{kind}", argv, v["digests"][kind]))
    return ops
