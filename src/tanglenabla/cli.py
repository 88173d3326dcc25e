"""Command-line interface.

Subcommands: regions, states, nabla, conway, gradings, euler,
transform {mirror|reverse|mutate|glue|close}, check.  Output is UTF-8,
LF-terminated and deterministic; --format json emits machine-readable
structures.  Exit codes: 0 success, 1 failed check or computation error,
2 usage error or violated hypothesis.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain

from . import corpus, layout
from .diagram import Site, TangleError, parse_tangle, serialize
from .gradings import euler_characteristics, generator_keys
from .laurent import LaurentError
from .nabla import conway_potential, nabla_all, nabla_at_site, nabla_hat, nabla_hat_all
from .states import frontier, marker_codes
from .transform import (close_tangle, glue_diagrams, mirror_diagram,
                        mutate_tangle, reverse_orientation)
from .verify import PROPERTIES, run_check


def _read_diagram(path: str):
    if path.startswith("corpus:"):
        return corpus.load(path.split(":", 1)[1])
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as ex:
            raise TangleError("E_SYNTAX", f"{path}: not UTF-8 text ({ex.reason})") from ex
    return parse_tangle(text)


def _sites(d, arg=None) -> list[Site]:
    """The sites a command reports on: the one ``arg`` names (``-`` for the
    empty site) or, without ``arg``, all of them.  An ``arg`` that names an
    arc twice is ``E_BAD_SITE``.  A diagram without ends has no site, so it
    has nothing to report: ``E_BAD_SITE`` either way (for ``arg``, raised by
    the computation, which checks its site)."""
    if arg is not None:
        arcs = [] if arg in ("-", "") else arg.split(",")
        if len(set(arcs)) < len(arcs):
            raise TangleError("E_BAD_SITE", f"site {arg!r} names an arc twice")
        return [Site(frozenset(arcs))]
    sites = d.sites()
    if not sites:
        raise TangleError("E_BAD_SITE", f"diagram {d.name!r} has no ends, so no site")
    return sites


def _emit(text: str) -> None:
    """Write a command's output.  A command builds only the format asked
    for: a payload for ``layout.dump``, polynomials in it as they are, or
    its text lines."""
    sys.stdout.write(text + "\n")


def _emit_family(args, d, key: str, values: dict, **head) -> None:
    """Write a site family: as JSON, the diagram's name, ``head`` and the
    values under ``key`` by site; as text, one line per site, by name."""
    if args.format == "json":
        _emit(layout.dump({"diagram": d.name, **head,
                           key: {str(s): p for s, p in values.items()}}))
    else:
        _emit("\n".join([f"site {s}: {values[s].pretty()}" for s in sorted(values, key=str)]))


def _cmd_regions(args):
    d = _read_diagram(args.diagram)
    if d.split:
        raise TangleError("E_SPLIT", "a split diagram has no region structure")
    if args.format == "json":
        _emit(layout.dump({"diagram": d.name, "regions": [
            {"id": r.rid, "kind": r.kind, "corners": r.corners, "arcs": r.arcs}
            for r in d.regions]}))
    else:
        _emit("\n".join([f"{r.rid}\t{r.kind}\tcorners={len(r.corners)}\t"
                         f"arcs={','.join(r.arcs) or '-'}" for r in d.regions]))
    return 0


def _cmd_states(args):
    """The states in lex order with their sites, from one pass that keeps
    one term per state (``states.marker_codes``); the sort takes (marker
    code, site index) pairs, and each state is written as it is made."""
    d = _read_diagram(args.diagram)
    _sites(d)
    m = len(d.crossings)
    sums = list(frontier(d, None, marker_codes(m)).items())
    rows = sorted([(x, j) for j, (_, terms) in enumerate(sums) for x in terms])
    if args.format == "json":
        at = layout.tails(m)
        tails = [at(layout.site_json(s)) for s, _ in sums]
        pieces = ("    {\n" + tails[j](x) for x, j in rows)
    else:
        at = layout.markers(m, lambda i, q: f"x{i + 1}:q{q}", " ")
        lines = [at(post=f"  site {s}\n") for s, _ in sums]
        pieces = (lines[j](x) for x, j in rows)
    layout.write_table(d.name, "states", pieces, args.format == "json")
    return 0


def _cmd_nabla(args):
    d = _read_diagram(args.diagram)
    sites = _sites(d, args.site)
    if args.site is not None:
        s, = sites
        values = {s: nabla_hat(d, s) if args.hat else nabla_at_site(d, s)}
    else:
        values = nabla_hat_all(d) if args.hat else nabla_all(d)
    _emit_family(args, d, "nabla", values, hat=bool(args.hat))
    return 0


def _cmd_conway(args):
    d = _read_diagram(args.diagram)
    cp = conway_potential(d)
    if args.format == "json":
        _emit(layout.dump({"diagram": d.name, "numerator": cp.numerator,
                           "divisor_colour": cp.colour, "quotient": cp.quotient}))
    else:
        _emit(f"numerator: {cp.numerator.pretty()}\n"
              f"divisor: {cp.colour} - {cp.colour}^-1\n"
              f"potential: {cp.pretty()}")
    return 0


def _text_runs(keys):
    """``runs(s, groups)``: the text lines of site s's generators, as
    ``layout.json_runs`` makes them; a line has no markers, so a run is its
    head's line once per state of its group."""
    @functools.cache
    def alexander(alex: int) -> str:
        return " ".join([f"{c}^{e / 2:+g}" for c, e in zip(keys.colours, keys.alexander(alex))])

    @functools.cache
    def grading(low: int) -> str:
        delta2, h, k = keys.grading(low)
        return f"  delta^{delta2 / 2:+g}  h={h}  bits={''.join(map(str, keys.bits[k])) or '-'}\n"

    def runs(s, groups):
        site = f"site {s}  "
        sizes = [len(codes) for codes in groups.values()]
        for alex, low, g in keys.runs(groups):
            yield (site + alexander(alex) + grading(low)) * sizes[g]
    return runs


def _cmd_gradings(args):
    """The generator table, sorted by site (as text), Alexander vector,
    delta and decoration; checked in full, then written run by run, so an
    E_GRADING leaves no output."""
    d = _read_diagram(args.diagram)
    _sites(d)
    keys, sites = generator_keys(d)
    runs = (layout.json_runs if args.format == "json" else _text_runs)(keys)
    layout.write_table(d.name, "generators", chain.from_iterable(
        runs(s, groups) for s, groups in sorted(sites, key=lambda t: str(t[0]))),
        args.format == "json")
    return 0


def _cmd_euler(args):
    d = _read_diagram(args.diagram)
    sites = _sites(d, args.site)
    chis = euler_characteristics(d, None if args.site is None else sites[0])
    _emit_family(args, d, "euler", chis)
    return 0


def _cmd_transform(args):
    d = _read_diagram(args.diagram)
    if args.op == "mirror":
        out = mirror_diagram(d)
    elif args.op == "reverse":
        colours = set(d.colours()) if args.colours is None else set(args.colours.split(","))
        out = reverse_orientation(d, colours)
    elif args.op == "mutate":
        if not args.axis:
            raise TangleError("E_BAD_LOCATION", "mutate needs --axis x|y|z")
        out = mutate_tangle(d, args.axis)
    elif args.op == "close":
        out = close_tangle(d, args.at)
    elif args.op == "glue":
        if not args.with_diagram:
            raise TangleError("E_ARITY", "glue needs --with <diagram>")
        d2 = _read_diagram(args.with_diagram)
        out = glue_diagrams(d, d2, args.start1, args.start2, args.count).diagram
    else:  # pragma: no cover - argparse restricts choices
        raise TangleError("E_BAD_LOCATION", f"unknown transform {args.op!r}")
    text = serialize(out)
    if args.format == "json":
        _emit(layout.dump({"diagram": text}))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args):
    diagrams = [_read_diagram(p) for p in args.diagrams] or None
    seed = args.seed
    if seed is None:
        raw = os.environ.get("NABLA_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise TangleError("E_USAGE", f"NABLA_SEED is not an integer: {raw!r}") from None
    report = run_check(args.property, diagrams, seed=seed, cases=args.cases)
    if args.format == "json":
        _emit(layout.dump(report.to_json()))
    else:
        status = "pass" if report.passed else "FAIL"
        sys.stdout.write(f"{report.prop}: {status} "
                         f"({report.cases} cases, seed {report.seed})\n")
        for f in report.failures:
            sys.stdout.write(f"  counterexample: {f}\n")
    return 0 if report.passed else 1


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tanglenabla",
        description="exact polynomial invariants of oriented tangle diagrams")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        # accept --format in either position; SUPPRESS keeps the sub-level
        # option from clobbering a value parsed at the top level
        p.add_argument("--format", choices=("text", "json"),
                       default=argparse.SUPPRESS)
        return p

    p = add("regions", _cmd_regions, help="list the regions of a diagram")
    p.add_argument("diagram")

    p = add("states", _cmd_states, help="enumerate the marker states")
    p.add_argument("diagram")

    p = add("nabla", _cmd_nabla, help="the site polynomials")
    p.add_argument("diagram")
    p.add_argument("--site", default=None, help="arc labels, comma separated ('-' for none)")
    p.add_argument("--hat", action="store_true", help="keep h unevaluated")

    p = add("conway", _cmd_conway, help="the two-ended specialization")
    p.add_argument("diagram")

    p = add("gradings", _cmd_gradings, help="the bigraded generator table")
    p.add_argument("diagram")

    p = add("euler", _cmd_euler, help="graded Euler characteristics")
    p.add_argument("diagram")
    p.add_argument("--site", default=None)

    p = add("transform", _cmd_transform, help="diagram transformations")
    p.add_argument("op", choices=("mirror", "reverse", "mutate", "glue", "close"))
    p.add_argument("diagram")
    p.add_argument("--colours", default=None, help="strands to reverse")
    p.add_argument("--axis", default=None, choices=("x", "y", "z"))
    p.add_argument("--at", default=None, help="arc to close at")
    p.add_argument("--with", dest="with_diagram", default=None)
    p.add_argument("--start1", type=int, default=0)
    p.add_argument("--start2", type=int, default=0)
    p.add_argument("--count", type=int, default=1)

    p = add("check", _cmd_check, help="run a property from the catalogue")
    p.add_argument("property", choices=sorted(PROPERTIES))
    p.add_argument("diagrams", nargs="*")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cases", type=_positive_int, default=25)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built at its first call and reused: building
    costs far more than parsing, and parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.fn(args)
    except TangleError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 2 if ex.code in ("E_HYPOTHESIS", "E_UNKNOWN_PROPERTY", "E_USAGE") else 1
    except (LaurentError, OSError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 1


if __name__ == "__main__":      # pragma: no cover
    sys.exit(main())
