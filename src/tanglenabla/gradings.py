"""Bigradings of the standard-diagram generators.

Generators are Kauffman states (marker tuples, see ``states``) decorated
with one binary choice per closed strand (the extra intersection point each
closed component contributes); a generator is one row, ``GradedGenerator``.
Gradings are absolute sums of crossing-local contributions:

* the Alexander vector and the delta grading sum the colour exponents and
  delta contributions of the marked quadrants (``TangleDiagram.quadrants``),
* a set decoration bit adds 2 to that closed colour's Alexander entry and
  leaves delta alone,

and the homological grading is h = (sum of Alexander entries)/2 - delta,
which these local rules keep integral.

``graded_rows`` computes each state's gradings once and states the
decorations as fixed shifts; ``generator_gradings`` (so ``poincare_table``)
and the ``gradings`` command expand them.  ``euler_characteristics`` builds no
generator: the frontier pass of ``nabla`` sums the states per site by
Alexander vector and delta, and each decoration shifts such a term.
"""

from __future__ import annotations

from itertools import product
from operator import add
from typing import NamedTuple, Optional

from .diagram import Site, TangleDiagram, TangleError
from .laurent import LaurentPoly
from .nabla import _BITS, _HALF, _MASK, _bias, _frontier, _packing, check_site
from .states import enumerate_states, site_of, state_codes


class GradedGenerator(NamedTuple):
    markers: tuple[int, ...]          # the Kauffman state
    ladybug_bits: tuple[int, ...]     # one per closed component, in component order
    alexander2: tuple[tuple[str, int], ...]   # colour -> doubled exponent, sorted
    delta2: int                       # doubled delta grading
    h: int
    site: Site


class Decoration(NamedTuple):
    bits: tuple[int, ...]     # one per closed component, in component order
    shift: tuple[int, ...]    # added to the doubled Alexander vector
    h: int                    # added to h: the number of set bits


def _h(total2: int, delta2: int) -> int:
    """h from the sum of the doubled Alexander entries and the doubled delta."""
    if (total2 - 2 * delta2) % 4:
        raise TangleError("E_GRADING", "homological grading is not integral")
    return (total2 - 2 * delta2) // 4


def _split_check(d: TangleDiagram) -> None:
    if d.split:
        raise TangleError("E_SPLIT", "no generators for a split diagram")


def _decorations(d: TangleDiagram, colours: list[str]) -> list[Decoration]:
    """The decorations in ``product`` order, each as its shifts: a set bit
    adds 4 to its closed colour's doubled entry (over ``colours``) and 1
    to h."""
    closed = [colours.index(c.colour) for c in d.components if c.kind == "closed"]
    out = []
    for bits in product((0, 1), repeat=len(closed)):
        shift = [0] * len(colours)
        for i, bit in zip(closed, bits):
            shift[i] += 4 * bit
        out.append(Decoration(bits, tuple(shift), sum(bits)))
    return out


def graded_rows(d: TangleDiagram):
    """``(colours, decorations, rows)``: the colours, sorted; the
    decorations; and per state in lex order the row ``(markers, a2,
    delta2, h, site)`` of its undecorated generator, where ``a2`` is the
    doubled Alexander vector over the colours."""
    _split_check(d)
    colours = sorted(d.colours())
    rows = []
    for x in enumerate_states(d):
        exp2, _, delta2 = state_codes(d, x)
        a2 = tuple([exp2.get(c, 0) for c in colours])
        rows.append((x, a2, delta2, _h(sum(a2), delta2), site_of(d, x)))
    return colours, _decorations(d, colours), rows


def generator_gradings(d: TangleDiagram) -> list[GradedGenerator]:
    """All graded generators, one per (state, decoration) pair: states in
    lex order, decorations in ``product`` order."""
    colours, decorations, rows = graded_rows(d)
    return [GradedGenerator(x, dec.bits, tuple(zip(colours, map(add, a2, dec.shift))),
                            delta2, h + dec.h, s)
            for x, a2, delta2, h, s in rows for dec in decorations]


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


def euler_characteristics(d: TangleDiagram,
                          s: Optional[Site] = None) -> dict[Site, LaurentPoly]:
    """The graded Euler characteristic at every site (only at ``s``, if
    given), equal to ``euler_by_site(generator_gradings(d), sites)``.

    One frontier pass packs the delta codes in place of the h codes, so
    each term is a doubled Alexander vector A and delta2, with its number
    of states and the least of them.  Its undecorated generators have
    h = (sum of A - 2 * delta2) / 4 and each decoration shifts A and h.
    Summing the terms in the order of their least states, decorations in
    ``product`` order and colours by name within a generator gives the
    variable table of the generator-order sum: a variable first appears in
    a generator whose state is the least one of its term.
    """
    if s is not None:
        check_site(d, s)
    _split_check(d)
    packed, shifts = _packing(d, "delta2")
    colours = sorted(d.colours())
    decorations = _decorations(d, colours)
    digit = {v: _BITS * k for k, v in enumerate(packed, 1)}
    ats = [digit.get(c) for c in colours]     # None: a colour at no crossing
    bias = _bias(len(packed) + 1)
    out = {}
    for site, terms in _frontier(d, s, shifts).items():
        monomials = []
        for _, e, c in sorted((least, e + bias, c) for e, (c, least) in terms.items()):
            a2 = [0 if at is None else (e >> at & _MASK) - _HALF for at in ats]
            if _h(sum(a2), (e & _MASK) - _HALF) % 2:
                c = -c
            for dec in decorations:
                monomials.append((-c if dec.h % 2 else c,
                                  [(v, x) for v, x in zip(colours, map(add, a2, dec.shift))
                                   if x]))
        out[site] = LaurentPoly.sum(monomials)
    return {t: out.get(t, LaurentPoly.zero()) for t in (d.sites() if s is None else [s])}


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
