"""Command-line interface.

Subcommands: regions, states, nabla, conway, gradings, euler,
transform {mirror|reverse|mutate|glue|close}, check.  Output is UTF-8,
LF-terminated and deterministic; --format json emits machine-readable
structures.  Exit codes: 0 success, 1 failed check or computation error,
2 usage error or violated hypothesis.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus
from .diagram import Site, TangleError, compute_regions, parse_tangle, serialize
from .gradings import euler_by_site, generator_gradings
from .laurent import LaurentError
from .nabla import (check_site, conway_potential, nabla_all, nabla_at_site,
                    nabla_hat, nabla_hat_all)
from .states import enumerate_states, site_of
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


def _site_from(arg: str, d) -> Site:
    s = Site(frozenset() if arg in ("-", "") else frozenset(arg.split(",")))
    check_site(d, s)
    return s


def _emit(args, text_lines, payload):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _cmd_regions(args):
    d = _read_diagram(args.diagram)
    lines = []
    data = []
    for r in compute_regions(d):
        lines.append(f"{r.rid}\t{r.kind}\tcorners={len(r.corners)}\t"
                     f"arcs={','.join(r.arcs) or '-'}")
        data.append({"id": r.rid, "kind": r.kind,
                     "corners": [list(c) for c in r.corners], "arcs": list(r.arcs)})
    _emit(args, lines, {"diagram": d.name, "regions": data})
    return 0


def _cmd_states(args):
    d = _read_diagram(args.diagram)
    lines = []
    data = []
    for x in enumerate_states(d):
        s = site_of(d, x)
        body = " ".join(f"x{i + 1}:q{q}" for i, q in enumerate(x))
        lines.append(f"{body}  site {s}")
        data.append({"markers": list(x), "site": sorted(s.arcs)})
    _emit(args, lines, {"diagram": d.name, "states": data})
    return 0


def _cmd_nabla(args):
    d = _read_diagram(args.diagram)
    if args.site is not None:
        s = _site_from(args.site, d)
        values = {s: nabla_hat(d, s) if args.hat else nabla_at_site(d, s)}
    else:
        values = nabla_hat_all(d) if args.hat else nabla_all(d)
    lines = []
    data = {}
    for s in sorted(values, key=str):
        lines.append(f"site {s}: {values[s].pretty()}")
        data[str(s)] = values[s].to_json()
    _emit(args, lines, {"diagram": d.name, "hat": bool(args.hat), "nabla": data})
    return 0


def _cmd_conway(args):
    d = _read_diagram(args.diagram)
    cp = conway_potential(d)
    payload = {
        "diagram": d.name,
        "numerator": cp.numerator.to_json(),
        "divisor_colour": cp.colour,
        "quotient": cp.quotient.to_json() if cp.quotient is not None else None,
    }
    _emit(args, [f"numerator: {cp.numerator.pretty()}",
                 f"divisor: {cp.colour} - {cp.colour}^-1",
                 f"potential: {cp.pretty()}"], payload)
    return 0


def _json_block(items: list[str], brackets: str) -> str:
    """Encoded list items or dict entries laid out as json.dumps(indent=2)
    lays out a value whose key sits six spaces in."""
    if not items:
        return brackets
    return f"{brackets[0]}\n        " + ",\n        ".join(items) + f"\n      {brackets[1]}"


_GENERATOR = """    {
      "alexander2": %s,
      "delta2": %d,
      "h": %d,
      "ladybug_bits": %s,
      "markers": %s,
      "site": %s
    }"""


def gradings_json(name, gens) -> str:
    """The gradings payload of ``gens`` (in output order), byte for byte as
    ``json.dumps(payload, indent=2, sort_keys=True)`` writes it.

    The generic encoder runs in pure Python under ``indent`` and took most
    of the op; this fills a fixed template per generator instead, with each
    distinct site, Alexander vector, marker vector and decoration encoded
    once.
    """
    if not gens:
        return json.dumps({"diagram": name, "generators": []}, indent=2, sort_keys=True)
    sites, alex, marks, bits = {}, {}, {}, {}
    chunks = []
    for g in gens:
        s = sites.get(g.site)
        if s is None:
            s = sites[g.site] = _json_block([json.dumps(a) for a in sorted(g.site.arcs)], "[]")
        a = alex.get(g.alexander2)
        if a is None:
            a = alex[g.alexander2] = _json_block(
                [f"{json.dumps(v)}: {e}" for v, e in g.alexander2], "{}")
        m = marks.get(g.markers)
        if m is None:
            m = marks[g.markers] = _json_block(list(map(str, g.markers)), "[]")
        b = bits.get(g.ladybug_bits)
        if b is None:
            b = bits[g.ladybug_bits] = _json_block(list(map(str, g.ladybug_bits)), "[]")
        chunks.append(_GENERATOR % (a, g.delta2, g.h, b, m, s))
    return ('{\n  "diagram": %s,\n  "generators": [\n%s\n  ]\n}'
            % (json.dumps(name), ",\n".join(chunks)))


def _cmd_gradings(args):
    d = _read_diagram(args.diagram)
    gens = sorted(generator_gradings(d),
                  key=lambda g: (str(g.site), g.alexander2, g.delta2, g.ladybug_bits))
    if args.format == "json":
        sys.stdout.write(gradings_json(d.name, gens) + "\n")
        return 0
    lines = []
    for g in gens:
        a = " ".join(f"{v}^{e / 2:+g}" for v, e in g.alexander2)
        bits = "".join(map(str, g.ladybug_bits)) or "-"
        lines.append(f"site {g.site}  {a}  delta^{g.delta2 / 2:+g}  h={g.h}  bits={bits}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_euler(args):
    d = _read_diagram(args.diagram)
    sites = d.sites() if args.site is None else [_site_from(args.site, d)]
    chis = euler_by_site(generator_gradings(d), sites)
    lines = []
    data = {}
    for s in sorted(sites, key=str):
        chi = chis[s]
        lines.append(f"site {s}: {chi.pretty()}")
        data[str(s)] = chi.to_json()
    _emit(args, lines, {"diagram": d.name, "euler": data})
    return 0


def _cmd_transform(args):
    d = _read_diagram(args.diagram)
    if args.op == "mirror":
        out = mirror_diagram(d)
    elif args.op == "reverse":
        colours = set(args.colours.split(",")) if args.colours else set(d.colours())
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
        sys.stdout.write(json.dumps({"diagram": text}, indent=2) + "\n")
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
        sys.stdout.write(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
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


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
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
