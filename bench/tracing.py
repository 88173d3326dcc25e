"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces the public functions of each layer of
``tanglenabla`` by wrappers, in every module namespace that holds them
(``cli`` imports ``nabla_all`` by name, ``nabla`` imports
``enumerate_states``, and so on); ``uninstall()`` puts the originals back.
A wrapper records a span ``[name, start, end, parent, op]`` and bumps the
layer's counters.  Hot leaf functions (``LaurentPoly.__add__``,
``quadrant_exponents``, ``site_of``, ...) are left alone: they run 10^4 to
10^6 times per op and their cost stays in the caller's self time.

Spans stay in memory until the run ends; ``pass_metrics`` turns the spans
and counters of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# span name -> [(module, attribute)], where attribute may be Class.method
TARGETS = {
    "cli.main": [("cli", "main")],
    "diagram.parse": [("diagram", "parse_tangle")],
    "diagram.construct": [("diagram", "TangleDiagram.__init__")],
    "transform.glue": [("transform", "glue_diagrams")],
    "transform.rm": [("transform", "apply_rm_move")],
    "transform.other": [("transform", f) for f in (
        "mirror_diagram", "switch_crossing", "reverse_orientation", "recolour",
        "smooth_crossing", "delete_component", "close_tangle", "reopen",
        "mutate_tangle", "find_kinks", "find_bigons", "find_triangles")],
    "states.enumerate": [("states", "enumerate_states")],
    "nabla.statesum": [("nabla", "nabla_hat_all")],
    "nabla.all": [("nabla", "nabla_all")],
    "nabla.conway": [("nabla", "conway_potential")],
    "nabla.other": [("nabla", f) for f in ("nabla_hat", "nabla_at_site", "euler_factor")],
    "laurent.eval_h": [("laurent", "LaurentPoly.eval_h")],
    "laurent.divide": [("laurent", "LaurentPoly.divide_binomial")],
    "gradings.generators": [("gradings", "generator_gradings")],
    "gradings.euler": [("gradings", "graded_euler_characteristic")],
    "verify.generate": [("verify", "random_diagram")],
    "verify.check": [("verify", "run_check")],
}

LAYERS = ("cli", "diagram", "transform", "states", "nabla", "laurent",
          "gradings", "verify")

# per-layer metric -> (unit, description)
METRICS = {
    "states.enumerate_s": ("s", "self time of enumerate_states"),
    "states.enumerate_calls": ("count", "enumerate_states calls"),
    "states.states": ("count", "states returned"),
    "nabla.statesum_s": ("s", "self time of nabla_hat_all"),
    "nabla.sites": ("count", "sites summed by nabla_hat_all"),
    "nabla.terms": ("count", "terms of the hatted site values"),
    "nabla.nonzero_site_ratio": ("ratio", "non-zero sites / sites, over nabla_all results"),
    "nabla.conway_s": ("s", "conway_potential, children included"),
    "nabla.other_s": ("s", "self time of the other nabla functions"),
    "laurent.eval_h_s": ("s", "self time of LaurentPoly.eval_h"),
    "laurent.eval_h_calls": ("count", "LaurentPoly.eval_h calls"),
    "laurent.divide_s": ("s", "self time of LaurentPoly.divide_binomial"),
    "gradings.generators_s": ("s", "self time of generator_gradings"),
    "gradings.generators": ("count", "generators returned"),
    "gradings.euler_s": ("s", "self time of graded_euler_characteristic"),
    "gradings.euler_calls": ("count", "graded_euler_characteristic calls"),
    "diagram.parse_s": ("s", "self time of parse_tangle"),
    "diagram.parse_calls": ("count", "parse_tangle calls"),
    "diagram.construct_s": ("s", "self time of TangleDiagram.__init__"),
    "diagram.constructs": ("count", "diagrams constructed"),
    "diagram.crossings": ("count", "crossings over constructed diagrams"),
    "diagram.regions": ("count", "regions over constructed diagrams"),
    "transform.glue_s": ("s", "self time of glue_diagrams"),
    "transform.glue_calls": ("count", "glue_diagrams calls"),
    "transform.glue_reject_ratio": ("ratio", "glue calls raising TangleError / calls"),
    "transform.rm_s": ("s", "self time of apply_rm_move"),
    "transform.other_s": ("s", "self time of the other transforms"),
    "verify.generate_s": ("s", "self time of random_diagram"),
    "verify.generated": ("count", "random_diagram results"),
    "verify.check_self_s": ("s", "self time of run_check and its checks"),
    "verify.trivial_ratio": ("ratio", "nabla_all results zero on every site / results"),
    "cli.self_s": ("s", "self time of cli.main"),
    "cli.stdout_bytes": ("count", "stdout bytes written by the ops"),
    "trace.pass_s": ("s", "wall time of one traced pass"),
    "trace.overhead_ratio": ("ratio", "traced / untraced pass wall - 1"),
}

# time metric -> span names whose self time it sums
SELF_TIME = {
    "states.enumerate_s": ("states.enumerate",),
    "nabla.statesum_s": ("nabla.statesum",),
    "nabla.other_s": ("nabla.all", "nabla.conway", "nabla.other"),
    "laurent.eval_h_s": ("laurent.eval_h",),
    "laurent.divide_s": ("laurent.divide",),
    "gradings.generators_s": ("gradings.generators",),
    "gradings.euler_s": ("gradings.euler",),
    "diagram.parse_s": ("diagram.parse",),
    "diagram.construct_s": ("diagram.construct",),
    "transform.glue_s": ("transform.glue",),
    "transform.rm_s": ("transform.rm",),
    "transform.other_s": ("transform.other",),
    "verify.generate_s": ("verify.generate",),
    "verify.check_self_s": ("verify.check",),
    "cli.self_s": ("cli.main",),
}


def _count_construct(c, args, result):
    d = args[0]
    c["diagram.crossings"] += len(d.crossings)
    c["diagram.regions"] += len(getattr(d, "regions", ()))
    c["diagram.max_crossings"] = max(c["diagram.max_crossings"], len(d.crossings))


def _count_statesum(c, args, result):
    c["nabla.sites"] += len(result)
    c["nabla.terms"] += sum(len(p.terms) for p in result.values())


def _count_nabla_all(c, args, result):
    nonzero = sum(1 for p in result.values() if p)
    c["nabla_all.sites"] += len(result)
    c["nabla_all.nonzero"] += nonzero
    c["nabla_all.calls"] += 1
    c["nabla_all.trivial"] += nonzero == 0


def _add(key, amount):
    def after(c, args, result):
        c[key] += amount(result)
    return after


AFTER = {
    "diagram.construct": _count_construct,
    "states.enumerate": _add("states.states", len),
    "nabla.statesum": _count_statesum,
    "nabla.all": _count_nabla_all,
    "gradings.generators": _add("gradings.generators", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def _wrap(self, name, fn, error_type):
        spans, stack, counts = self.spans, self.stack, self.counts
        after = AFTER.get(name)
        calls = name + ".calls"
        errors = name + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                counts[errors] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                counts[calls] += 1
            if after is not None:
                after(counts, args, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target in every ``tanglenabla`` namespace."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "tanglenabla" or n.startswith("tanglenabla.")}
        error_type = mods["tanglenabla.diagram"].TangleError
        for name, targets in TARGETS.items():
            for mod, attr in targets:
                owner = mods[f"tanglenabla.{mod}"]
                if "." in attr:
                    cls, meth = attr.split(".")
                    owner = getattr(owner, cls)
                    fn = owner.__dict__[meth]
                    self._set(owner, meth, fn, self._wrap(name, fn, error_type))
                    continue
                fn = getattr(owner, attr)
                wrapped = self._wrap(name, fn, error_type)
                for m in mods.values():
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, fn, wrapped)

    def _set(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def pass_metrics(self, first_span: int, counts: dict, wall: float) -> dict:
        """Per-layer metrics of the spans from ``first_span`` on."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for s in spans:
            p = s[3] - first_span
            if p >= 0:
                child[p] += s[2] - s[1]
        self_time: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for s, ch in zip(spans, child):
            self_time[s[0]] += s[2] - s[1] - ch
            incl[s[0]] += s[2] - s[1]
        out = {k: sum(self_time[n] for n in names) for k, names in SELF_TIME.items()}
        out["nabla.conway_s"] = incl["nabla.conway"]
        c = defaultdict(int, counts)
        out.update({
            "states.enumerate_calls": c["states.enumerate.calls"],
            "states.states": c["states.states"],
            "nabla.sites": c["nabla.sites"],
            "nabla.terms": c["nabla.terms"],
            "nabla.nonzero_site_ratio": _ratio(c["nabla_all.nonzero"], c["nabla_all.sites"]),
            "laurent.eval_h_calls": c["laurent.eval_h.calls"],
            "gradings.generators": c["gradings.generators"],
            "gradings.euler_calls": c["gradings.euler.calls"],
            "diagram.parse_calls": c["diagram.parse.calls"],
            "diagram.constructs": c["diagram.construct.calls"] - c["diagram.construct.errors"],
            "diagram.crossings": c["diagram.crossings"],
            "diagram.regions": c["diagram.regions"],
            "transform.glue_calls": c["transform.glue.calls"],
            "transform.glue_reject_ratio": _ratio(c["transform.glue.errors"],
                                                  c["transform.glue.calls"]),
            "verify.generated": c["verify.generate.calls"] - c["verify.generate.errors"],
            "verify.trivial_ratio": _ratio(c["nabla_all.trivial"], c["nabla_all.calls"]),
            "trace.pass_s": wall,
        })
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_self_time(metrics: dict) -> dict[str, float]:
    """Self time per layer, from the summed time metrics."""
    return {layer: sum(metrics[k] for k in SELF_TIME if k.startswith(layer + "."))
            for layer in LAYERS}
