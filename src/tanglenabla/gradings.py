"""Bigradings of the standard-diagram generators.

Generators are Kauffman states (marker tuples, see ``states``) decorated
with one binary choice per closed strand (the extra intersection point each
closed component contributes); a generator is one row, ``GradedGenerator``.
Gradings are absolute sums of crossing-local contributions:

* the Alexander vector and the delta grading sum the colour exponents and
  delta contributions of the marked quadrants (``diagram.CORNER_RULE``),
* a set decoration bit adds 2 to that closed colour's Alexander entry and
  leaves delta alone,

and the homological grading is h = (sum of Alexander entries)/2 - delta,
which these local rules keep integral.

A generator is one int key, high digits to low: the doubled Alexander
entries (colours by name) and delta as ``nabla``'s 20-bit digits biased by
``_HALF``, the decoration index k, the base-4 markers.  The one pass over
the states, ``states.frontier``, sums a state's key over its corners, the
markers included, so it keeps one term per state; decoration k adds a
fixed key.  A digit moves by at most 2 per corner and 4 per decoration
bit, so for m below 2^16 no addition carries, and a site's keys sort as
(Alexander vector, delta, k, markers).  The states of a site that share a
head (the key without markers) form a group, and group g under decoration
k is one run of generators with one set of gradings (``KeyLayout.runs``),
so a site sorts and decodes groups times decorations heads, not
generators.  ``euler_characteristics`` runs the same pass without the
markers, so it sums the states per site by Alexander vector and delta, and
each decoration shifts such a term's packed Alexander digits.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import add
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

    def alexander(self, alex: int) -> tuple[int, ...]:
        """The doubled Alexander entries (colours by name) of the bits of a
        key above delta's digit."""
        return tuple([(alex >> at - _BITS & _MASK) - _HALF for at in self.at])

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
        dec = [dk >> shift for dk in self.dec_keys]     # bias, Alexander shift and k
        grades = [self.grades(gh + dec[0])[1:3] for gh in groups]   # (delta2, h)
        set_bits = [sum(b) for b in self.bits]
        gb = len(grades).bit_length()
        gmask, kmask, drop = (1 << gb) - 1, (1 << self.kbits) - 1, gb + self.kbits + _BITS
        for key in sorted([gh + dh << gb | g for g, gh in enumerate(groups) for dh in dec]):
            delta2, h = grades[key & gmask]
            k = key >> gb & kmask
            yield key >> drop, delta2, h + set_bits[k], k, key & gmask


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
    codes = d.corner_codes([1 << digit[c] + low for c in d.colours()], delta=1 << low)
    return KeyLayout(colours, bits, dec_keys, m, kbits, at), codes


def generator_keys(d: TangleDiagram) -> tuple[KeyLayout, list[tuple[Site, dict[int, list[int]]]]]:
    """The key layout and each site's head groups: a state's head (its key
    without decoration and markers, ``key >> 2m``) maps to the marker codes
    of the site's states with that head, in lex order.  The generators of
    the state with head ``head`` and marker code x have the keys ``(head <<
    2m) + x + layout.dec_keys[k]``."""
    layout, codes = _layout(d)
    shift = 2 * layout.m
    mask = (1 << shift) - 1
    codes = [tuple(map(add, row, mrow)) for row, mrow in zip(codes, marker_codes(layout.m))]
    out = []
    for site, terms in frontier(d, None, codes).items():
        groups: dict[int, list[int]] = {}
        for row in sorted(terms):
            groups.setdefault(row >> shift, []).append(row & mask)
        out.append((site, groups))
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

    One pass of ``states.frontier`` sums the corner codes of the generator
    keys without the markers, so each term is a state's key without them,
    with one int: its number of states in the low ``count_bits(m)`` bits
    and the least of them above, so the terms sort by their least states.
    Each term is decoded once, for its h (and its ``E_GRADING``); its
    Alexander digits stay packed, and decoration k adds its packed shift to
    them and its number of set bits to h.  The term's coefficient, signed
    by the parity of that h, goes to one int -> coef map per site, terms in
    the order of their least states and decorations in ``product`` order,
    so a key first enters the map at the first generator with that
    Alexander vector.  Reading each distinct key once, in that order, and
    colours by name within a key, gives the variable table of the
    generator-order sum: a colour first appears in a generator whose state
    is the least one of its term, and stays when its terms cancel.
    """
    if s is not None:
        check_site(d, s)
    layout, codes = _layout(d)
    base, shift = layout.dec_keys[0], 2 * layout.m      # dec_keys[0]: the bias alone
    drop = shift + layout.kbits + _BITS                 # below the colour digits
    decorations = [(dk - base >> drop, sum(bs)) for dk, bs in zip(layout.dec_keys, layout.bits)]
    mask = (1 << count_bits(layout.m)) - 1
    out = {}
    for site, terms in frontier(d, s, codes, least=True).items():
        acc: dict[int, int] = {}
        for v, e in sorted([(v, e) for e, v in terms.items()]):
            c = v & mask
            h = layout.grades((base + e) >> shift)[2]
            alex = base + e >> drop
            for dk, h_k in decorations:
                acc[alex + dk] = acc.get(alex + dk, 0) + (-c if (h + h_k) % 2 else c)
        rows = [(layout.alexander(alex), c) for alex, c in acc.items()]
        found: dict[int, None] = {}         # colour indices, in first-appearance order
        for a2, _ in rows:
            if len(found) == len(a2):
                break
            found.update(dict.fromkeys(j for j, e in enumerate(a2) if e))
        out[site] = LaurentPoly([layout.colours[j] for j in found],
                                {tuple([a2[j] for j in found]): c for a2, c in rows})
    return {t: out.get(t, LaurentPoly.zero()) for t in (d.sites() if s is None else [s])}


def poincare_table(d: TangleDiagram, s: Site | None = None):
    """Grouped counts of generators by (site, Alexander vector, delta, h)."""
    rows = Counter((str(g.site), g.alexander2, g.delta2, g.h)
                   for g in generator_gradings(d) if s is None or g.site == s)
    return [{"site": site, "alexander": {v: e / 2 for v, e in a2}, "delta": d2 / 2,
             "h": h, "count": count} for (site, a2, d2, h), count in sorted(rows.items())]
