"""Bigradings of the standard-diagram generators.

Generators are Kauffman states decorated with one binary choice per closed
strand (the extra intersection point each closed component contributes).
Gradings are absolute sums of crossing-local contributions:

* the Alexander vector and the delta grading sum the colour exponents and
  delta contributions of the marked quadrants (``TangleDiagram.quadrants``),
* a set decoration bit adds 2 to that closed colour's Alexander entry and
  leaves delta alone,

and the homological grading is h = (sum of Alexander entries)/2 - delta,
which these local rules keep integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .diagram import Site, TangleDiagram, TangleError
from .laurent import LaurentPoly
from .states import KauffmanState, enumerate_states, site_of, state_codes


@dataclass(frozen=True)
class GradedGenerator:
    state: KauffmanState
    ladybug_bits: tuple[int, ...]     # one per closed component, in component order
    alexander2: tuple[tuple[str, int], ...]   # colour -> doubled exponent, sorted
    delta2: int                       # doubled delta grading
    h: int
    site: Site


def generator_gradings(d: TangleDiagram) -> list[GradedGenerator]:
    """All graded generators, one per (state, decoration) pair."""
    if d.split:
        raise TangleError("E_SPLIT", "no generators for a split diagram")
    colours = sorted(d.colours())
    closed = [colours.index(c.colour) for c in d.components if c.kind == "closed"]
    out: list[GradedGenerator] = []
    for x in enumerate_states(d):
        exp2, _, delta2 = state_codes(d, x)
        base = [exp2.get(c, 0) for c in colours]
        s = site_of(d, x)
        for bits in product((0, 1), repeat=len(closed)):
            a2 = list(base)
            for i, bit in zip(closed, bits):
                if bit:
                    a2[i] += 4
            total = sum(a2)
            if (total - 2 * delta2) % 4:
                raise TangleError("E_GRADING", "homological grading is not integral")
            h = (total - 2 * delta2) // 4
            out.append(GradedGenerator(
                x, bits, tuple(zip(colours, a2)), delta2, h, s))
    return out


def euler_by_site(gens: list[GradedGenerator], sites: list[Site]) -> dict[Site, LaurentPoly]:
    """The graded Euler characteristic at each of ``sites``, in one pass.

    Each value is the sum of (-1)^h times the Alexander monomial over the
    generators at its site, with the variable table of the generator-order
    sum: variables in first-appearance order (by name within a generator),
    kept when their terms cancel.
    """
    acc: dict[Site, dict[tuple, int]] = {s: {} for s in sites}
    for g in gens:
        counts = acc.get(g.site)
        if counts is not None:
            counts[g.alexander2] = counts.get(g.alexander2, 0) + (-1 if g.h % 2 else 1)
    # summing per distinct Alexander vector, in first-appearance order,
    # registers the variables in the order the generators do
    return {s: LaurentPoly.sum((c, [(v, e) for v, e in a2 if e]) for a2, c in counts.items())
            for s, counts in acc.items()}


def graded_euler_characteristic(gens: list[GradedGenerator], s: Site) -> LaurentPoly:
    """Sum of (-1)^h times the Alexander monomial over the generators at s."""
    return euler_by_site(gens, [s])[s]


def euler_characteristics(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    return euler_by_site(generator_gradings(d), d.sites())


def poincare_table(d: TangleDiagram, s: Site | None = None):
    """Grouped counts of generators by (site, Alexander vector, delta, h)."""
    rows: dict[tuple, int] = {}
    for g in generator_gradings(d):
        if s is not None and g.site != s:
            continue
        key = (str(g.site), g.alexander2, g.delta2, g.h)
        rows[key] = rows.get(key, 0) + 1
    table = []
    for (site, a2, d2, h), count in sorted(rows.items()):
        table.append({
            "site": site,
            "alexander": {v: e / 2 for v, e in a2},
            "delta": d2 / 2,
            "h": h,
            "count": count,
        })
    return table
