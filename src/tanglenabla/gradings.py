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

A generator is one int key, high digits to low: the doubled Alexander
entries (colours by name) and delta as ``nabla``'s 20-bit digits biased by
``_HALF``, the decoration index k, the base-4 markers.  The state walk sums
a state's key over its corners and decoration k adds a fixed key; a digit
moves by at most 2 per corner and 4 per decoration bit, so for m below
2^16 no addition carries, and a site's keys sort as (Alexander vector,
delta, k, markers).  ``euler_characteristics`` builds no generator: the
frontier pass of ``nabla`` sums the states per site by Alexander vector
and delta, and each decoration shifts such a term.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import add
from typing import NamedTuple, Optional

from .diagram import Site, TangleDiagram, TangleError
from .laurent import LaurentPoly
from .nabla import _BITS, _HALF, _MASK, _bias, _frontier, check_site
from .states import markers_of, sites_of_bits, walk_states


class GradedGenerator(NamedTuple):
    markers: tuple[int, ...]          # the Kauffman state
    ladybug_bits: tuple[int, ...]     # one per closed component, in component order
    alexander2: tuple[tuple[str, int], ...]   # colour -> doubled exponent, sorted
    delta2: int                       # doubled delta grading
    h: int
    site: Site


class KeyLayout(NamedTuple):
    colours: list[str]                # sorted by name
    bits: list[tuple[int, ...]]       # decoration k's bits, in ``product`` order
    dec_keys: list[int]               # decoration k's key, the bias included
    m: int                            # the markers take the low 2m bits,
    kbits: int                        # k the next kbits, then delta's digit;
    at: list[int]                     # colour j's digit is at[j] bits above it

    def grades(self, head: int) -> tuple[tuple[int, ...], int, int, int]:
        """``(a2, delta2, h, k)`` of a generator's ``key >> 2m``."""
        e = head >> self.kbits
        a2 = tuple([(e >> at & _MASK) - _HALF for at in self.at])
        delta2 = (e & _MASK) - _HALF
        h, r = divmod(sum(a2) - 2 * delta2, 4)
        if r:
            raise TangleError("E_GRADING", "homological grading is not integral")
        return a2, delta2, h, head & (1 << self.kbits) - 1


def _layout(d: TangleDiagram) -> tuple[KeyLayout, list[tuple[int, ...]]]:
    """The key layout and each corner's Alexander and delta codes as keys."""
    if d.split:
        raise TangleError("E_SPLIT", "no generators for a split diagram")
    colours = sorted(d.colours())
    closed = [colours.index(c.colour) for c in d.components if c.kind == "closed"]
    bits = list(product((0, 1), repeat=len(closed)))
    m, kbits = len(d.crossings), (len(bits) - 1).bit_length()
    at = [_BITS * j for j in range(len(colours), 0, -1)]
    low, digit = 2 * m + kbits, dict(zip(colours, at))
    base = _bias(len(colours) + 1) << low
    dec_keys = [base + (sum(4 * b << at[i] for i, b in zip(closed, bs)) << low) + (k << 2 * m)
                for k, bs in enumerate(bits)]
    codes = [tuple((c.delta2 + sum(e << digit[v] for v, e in c.exp2)) << low for c in row)
             for row in d.quadrants]
    return KeyLayout(colours, bits, dec_keys, m, kbits, at), codes


def generator_keys(d: TangleDiagram) -> tuple[KeyLayout, list[tuple[int, int]]]:
    """The key layout and, per state in lex order, ``(row, occupied)``: the
    keys of its generators are ``row + layout.dec_keys[k]``, and
    ``states.sites_of_bits`` reads its site off ``occupied``."""
    layout, codes = _layout(d)
    return layout, [(e + x, occupied) for x, e, occupied in walk_states(d, codes)]


def generator_gradings(d: TangleDiagram) -> list[GradedGenerator]:
    """All graded generators, one per (state, decoration) pair: states in
    lex order, decorations in ``product`` order."""
    layout, rows = generator_keys(d)
    sites, m = sites_of_bits(d, {occupied for _, occupied in rows}), layout.m
    out = []
    for row, occupied in rows:
        x = markers_of(row & (1 << 2 * m) - 1, m)
        for a2, delta2, h, k in (layout.grades((row + dk) >> 2 * m) for dk in layout.dec_keys):
            out.append(GradedGenerator(x, layout.bits[k], tuple(zip(layout.colours, a2)),
                                       delta2, h, sites[occupied]))
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


def euler_characteristics(d: TangleDiagram,
                          s: Optional[Site] = None) -> dict[Site, LaurentPoly]:
    """The graded Euler characteristic at every site (only at ``s``, if
    given), equal to ``euler_by_site(generator_gradings(d), sites)``.

    One frontier pass sums the corner codes of ``generator_keys``, so each
    term is a state's key without its markers, with its number of states
    and the least of them.  A decoration's key reads as its shift of the
    Alexander vector, delta 0 and h its number of set bits.  Summing the
    terms in the order of their least states, decorations in ``product``
    order and colours by name within a generator gives the variable table
    of the generator-order sum: a variable first appears in a generator
    whose state is the least one of its term.
    """
    if s is not None:
        check_site(d, s)
    layout, codes = _layout(d)
    base, shift = layout.dec_keys[0], 2 * layout.m      # dec_keys[0]: the bias alone
    decorations = [layout.grades(dk >> shift) for dk in layout.dec_keys]
    out = {}
    for site, terms in _frontier(d, s, codes).items():
        monomials = []
        for _, e, c in sorted((least, e, c) for e, (c, least) in terms.items()):
            a2, _, h, _ = layout.grades((base + e) >> shift)
            for shift_k, _, h_k, _ in decorations:
                a2_k = map(add, a2, shift_k)
                monomials.append((-c if (h + h_k) % 2 else c,
                                  [(v, x) for v, x in zip(layout.colours, a2_k) if x]))
        out[site] = LaurentPoly.sum(monomials)
    return {t: out.get(t, LaurentPoly.zero()) for t in (d.sites() if s is None else [s])}


def poincare_table(d: TangleDiagram, s: Site | None = None):
    """Grouped counts of generators by (site, Alexander vector, delta, h)."""
    rows = Counter((str(g.site), g.alexander2, g.delta2, g.h)
                   for g in generator_gradings(d) if s is None or g.site == s)
    return [{"site": site, "alexander": {v: e / 2 for v, e in a2}, "delta": d2 / 2,
             "h": h, "count": count} for (site, a2, d2, h), count in sorted(rows.items())]
