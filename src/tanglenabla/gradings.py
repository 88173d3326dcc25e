"""Bigradings of the standard-diagram generators.

Generators are Kauffman states (marker tuples, see ``states``) decorated
with one binary choice per closed strand (the extra intersection point each
closed component contributes); a generator is one row, ``GradedGenerator``.
Gradings are absolute sums of crossing-local contributions:

* the Alexander vector and the delta grading sum the colour exponents and
  delta contributions of the marked quadrants (``diagram.CORNER_RULE``),
* a set decoration bit adds 2 to that closed colour's Alexander entry and
  1 to h, and leaves delta alone,

and the homological grading is h = (sum of Alexander entries)/2 - delta,
which these local rules keep integral.

A generator is one int key, high digits to low: the doubled Alexander
entries (colours by name), delta and 4h as ``nabla``'s 20-bit digits biased
by ``_HALF``, the decoration index k, the base-4 markers.  The corner codes
carry 4h = (sum of doubled Alexander entries) - 2 (doubled delta) in its own
digit, so h is read off the key, and ``E_GRADING`` is a 4h digit that is
not a multiple of 4.  The one pass over the states, ``states.frontier``,
sums a state's key over its corners, the markers included, so it keeps one
term per state; decoration k adds a fixed key.  A digit moves by at most 4
per corner and per decoration bit, so for m below 2^16 no addition carries,
and a site's keys sort as (Alexander vector, delta, k, markers), h being
fixed by the two before it.  The states of a site that share a head (the
key without markers) form a group, and group g under decoration k is one
run of generators with one set of gradings (``KeyLayout.runs``), so a site
sorts and decodes groups times decorations heads, not generators.

The Euler characteristic factors through the decorations: a set bit turns
a generator's term (-1)^h t^a into -t_c^2 times it, so at site s it is
P_s times the product of (1 - t_c^2) over the closed components c, with
P_s the sum of (-1)^h t^a over the states at s.  ``euler_characteristics``
runs the pass without the markers, sums each of its terms once into P_s and
decorates only the terms of P_s that do not cancel.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain, product
from operator import add, or_
from typing import NamedTuple, Optional

from .diagram import Site, TangleDiagram, TangleError
from .laurent import LaurentPoly
from .nabla import _BITS, _HALF, _MASK, _bias, check_site
from .states import count_bits, frontier, marker_codes, markers_of


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
    kbits: int                        # k the next kbits, then the 4h digit and
    at: list[int]                     # delta's; colour j's is at[j] bits above 4h's

    def grades(self, head: int) -> tuple[tuple[int, ...], int, int, int]:
        """``(a2, delta2, h, k)`` of a generator's ``key >> 2m``.  Its 4h
        digit is a multiple of 4: ``generator_keys`` checked the head, and a
        decoration adds multiples of 4 to it."""
        e = head >> self.kbits
        return (tuple([(e >> at & _MASK) - _HALF for at in self.at]),
                (e >> _BITS & _MASK) - _HALF, (e & _MASK) - _HALF >> 2,
                head & (1 << self.kbits) - 1)

    def alexander(self, alex: int) -> tuple[int, ...]:
        """The doubled Alexander entries (colours by name) of the bits of a
        key above delta's digit."""
        return tuple([(alex >> at - 2 * _BITS & _MASK) - _HALF for at in self.at])

    def runs(self, groups: dict[int, list]):
        """One site's generators in key order, one run per head.

        ``groups`` maps a state's head without decoration (see
        ``generator_keys``) to the marker codes of that group's states.
        Yields ``(alex, delta2, h, k, g)``: the gradings of group g (by
        position in ``groups``) under decoration k, whose generators are the
        group's states in lex order; ``alex`` is the packed Alexander vector
        (see ``alexander``).  Heads of distinct runs differ, so the site sorts
        one int per run, the group's head plus the decoration's; each group
        is decoded once, and decoration k adds its number of set bits to h.
        """
        shift = 2 * self.m
        dec = [dk >> shift for dk in self.dec_keys]     # bias, decoration shifts and k
        grades = [self.grades(gh + dec[0])[1:3] for gh in groups]   # (delta2, h)
        set_bits = [sum(b) for b in self.bits]
        gb = len(grades).bit_length()
        gmask, kmask = (1 << gb) - 1, (1 << self.kbits) - 1
        drop = gb + self.kbits + 2 * _BITS
        for key in sorted([gh + dh << gb | g for g, gh in enumerate(groups) for dh in dec]):
            delta2, h = grades[key & gmask]
            k = key >> gb & kmask
            yield key >> drop, delta2, h + set_bits[k], k, key & gmask


def _integral(keys: int, at: int) -> None:
    """``E_GRADING`` unless the 4h digit at bit ``at`` of ``keys`` (a key, or
    keys OR-ed together) is a multiple of 4: its two low bits are those of
    4h, whatever the bias and the digits below."""
    if keys >> at & 3:
        raise TangleError("E_GRADING", "homological grading is not integral")


def _layout(d: TangleDiagram) -> tuple[KeyLayout, list[tuple[int, ...]]]:
    """The key layout and each corner's Alexander, delta and 4h codes as
    keys: colour c weighs its digit plus 4h's, delta its digit minus twice
    4h's, so the 4h digit sums the doubled exponents minus twice delta."""
    if d.split:
        raise TangleError("E_SPLIT", "no generators for a split diagram")
    colours = sorted(d.colours())
    closed = [colours.index(c.colour) for c in d.components if c.kind == "closed"]
    bits = list(product((0, 1), repeat=len(closed)))
    m, kbits = len(d.crossings), (len(bits) - 1).bit_length()
    at = [_BITS * j for j in range(len(colours) + 1, 1, -1)]
    low, digit = 2 * m + kbits, dict(zip(colours, at))
    base = _bias(len(colours) + 2) << low
    # a set bit adds 4 to its colour's digit and to 4h's
    dec_keys = [base + (sum(4 * b * ((1 << at[i]) + 1) for i, b in zip(closed, bs)) << low)
                + (k << 2 * m) for k, bs in enumerate(bits)]
    h4 = 1 << low
    codes = d.corner_codes([(1 << digit[c] + low) + h4 for c in d.colours()],
                           delta=(1 << _BITS + low) - 2 * h4)
    return KeyLayout(colours, bits, dec_keys, m, kbits, at), codes


def generator_keys(d: TangleDiagram) -> tuple[KeyLayout, list[tuple[Site, dict[int, list[int]]]]]:
    """The key layout and each site's head groups: a state's head (its key
    without decoration and markers, ``key >> 2m``) maps to the marker codes
    of the site's states with that head, in lex order.  The generators of
    the state with head ``head`` and marker code x have the keys ``(head <<
    2m) + x + layout.dec_keys[k]``.  Raises ``E_GRADING`` if a head's 4h
    digit is not a multiple of 4."""
    layout, codes = _layout(d)
    shift = 2 * layout.m
    mask = (1 << shift) - 1
    codes = [tuple(map(add, row, mrow)) for row, mrow in zip(codes, marker_codes(layout.m))]
    out = []
    heads = 0
    for site, terms in frontier(d, None, codes).items():
        groups: dict[int, list[int]] = {}
        for row in sorted(terms):
            groups.setdefault(row >> shift, []).append(row & mask)
        heads = reduce(or_, groups, heads)
        out.append((site, groups))
    _integral(heads, layout.kbits)
    return layout, out


def generator_gradings(d: TangleDiagram) -> list[GradedGenerator]:
    """All graded generators, one per (state, decoration) pair: states in
    lex order, decorations in ``product`` order."""
    layout, sites = generator_keys(d)
    m, shift = layout.m, 2 * layout.m
    rows = sorted([(x, head, site) for site, groups in sites
                   for head, xs in groups.items() for x in xs])
    out = []
    for x, head, site in rows:
        markers = markers_of(x, m)
        for a2, delta2, h, k in (layout.grades(head + (dk >> shift)) for dk in layout.dec_keys):
            out.append(GradedGenerator(markers, layout.bits[k], tuple(zip(layout.colours, a2)),
                                       delta2, h, site))
    return out


def graded_euler_characteristic(gens: list[GradedGenerator], s: Site) -> LaurentPoly:
    """Sum of (-1)^h times the Alexander monomial over the generators at s,
    in generator order: variables in first-appearance order (by name within
    a generator), kept when their terms cancel."""
    return LaurentPoly.sum((-1 if g.h % 2 else 1, [(v, e) for v, e in g.alexander2 if e])
                           for g in gens if g.site == s)


def euler_characteristics(d: TangleDiagram,
                          s: Optional[Site] = None) -> dict[Site, LaurentPoly]:
    """The graded Euler characteristic at every site (only at ``s``, if
    given), equal to ``graded_euler_characteristic(generator_gradings(d), s)``
    at each site s.

    It is P_s times the product of (1 - t_c^2) over the closed components
    c (see the module docstring).  One pass of ``states.frontier`` sums the
    corner codes of the generator keys without the markers, so each term is
    a state's key without them, with one int: its number of states in the
    low ``count_bits(m)`` bits and the least of them above.  Each term goes
    once into P_s, one int -> coef map per site keyed by its packed
    Alexander digits and signed by the parity of its h, read off the 4h
    digit (and ``E_GRADING`` if that digit is not a multiple of 4).  Each
    term of P_s that does not cancel takes every decoration: decoration k
    adds its packed shift to the Alexander digits and flips the sign if it
    sets an odd number of bits.  Only the terms that survive that are
    decoded.

    The variable table is that of the generator-order sum: variables in
    the order they first have a non-zero exponent, by name within a
    generator, kept when their terms cancel.  The first generator with a
    colour is a decoration of the least state of a term, so the table reads
    the terms in the order of their least states: every closed colour is
    non-zero in one of the decorations of the site's least state, and any
    other colour first at the least state whose digit for it is non-zero,
    so the scan reads the decorations of the first term and only the
    undecorated digits of the others.
    """
    if s is not None:
        check_site(d, s)
    layout, codes = _layout(d)
    low = 2 * layout.m + layout.kbits                   # the 4h digit's place
    drop = low + 2 * _BITS                              # below the colour digits
    base = layout.dec_keys[0]                           # the bias alone
    bias = base >> drop
    decorations = [(dk - base >> drop, sum(bs) % 2) for dk, bs in zip(layout.dec_keys, layout.bits)]
    at = [a - 2 * _BITS for a in layout.at]
    mask = (1 << count_bits(layout.m)) - 1
    out = {}
    for site, terms in frontier(d, s, codes, least=True).items():
        p: dict[int, int] = {}
        keys = 0
        for e, v in terms.items():
            e += base
            keys |= e
            c = v & mask
            alex = e >> drop
            # bit 2 of the 4h digit is the parity of h (the bias is a multiple of 8)
            p[alex] = p.get(alex, 0) + (-c if e >> low + 2 & 1 else c)
        _integral(keys, low)
        chi: dict[int, int] = {}
        for alex, c in p.items():
            if c:
                for dk, odd in decorations:
                    chi[alex + dk] = chi.get(alex + dk, 0) + (-c if odd else c)
        first, *rest = sorted(terms, key=terms.get)
        found: dict[int, None] = {}         # colour indices, in first-appearance order
        for alex in chain([(first + base >> drop) + dk for dk, _ in decorations],
                          (e + base >> drop for e in rest)):
            if len(found) == len(at):
                break
            nonzero = alex ^ bias
            found.update(dict.fromkeys([j for j, a in enumerate(at) if nonzero >> a & _MASK]))
        out[site] = LaurentPoly([layout.colours[j] for j in found],
                                {tuple([(alex >> at[j] & _MASK) - _HALF for j in found]): c
                                 for alex, c in chi.items() if c})
    return {t: out.get(t, LaurentPoly.zero()) for t in (d.sites() if s is None else [s])}


def poincare_table(d: TangleDiagram):
    """Grouped counts of generators by (site, Alexander vector, delta, h):
    each run of ``KeyLayout.runs`` adds its group's size to its row."""
    layout, sites = generator_keys(d)
    rows: Counter = Counter()
    for site, groups in sites:
        sizes = [len(xs) for xs in groups.values()]
        for alex, delta2, h, _, g in layout.runs(groups):
            rows[str(site), layout.alexander(alex), delta2, h] += sizes[g]
    return [{"site": site, "alexander": {v: e / 2 for v, e in zip(layout.colours, a2)},
             "delta": d2 / 2, "h": h, "count": count}
            for (site, a2, d2, h), count in sorted(rows.items())]
