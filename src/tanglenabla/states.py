"""Generalised Kauffman states and the one pass over them.

A state places one marker per crossing into one of its four quadrant
regions so that every closed region is occupied exactly once and every
open region at most once.  For a connected diagram with n open strands
this forces exactly n-1 occupied open regions.  A state is its marker
tuple: entry i is the quadrant (0..3) that holds the marker of crossing i.

``frontier`` is the one walk over the states.  It sums per-corner codes
over each state crossing by crossing and merges the states whose sums and
frontier keys agree, so it meets no state one by one: ``nabla`` and
``gradings.euler_characteristics`` run it on the corner monomials,
``gradings.generator_keys`` on the Alexander and delta codes.  Each
term is one int, its number of states.  At h = -1 (``at_h``) the codes
carry no h digit and the count is signed instead: the quadrant whose
corner carries h negates it, so terms that differ only in h merge and
cancel inside the pass; only ``nabla --hat`` and the catalogue's hatted
families keep the h digit.  For the callers that order terms by their
least state (``nabla``'s decoder and ``gradings.euler_characteristics``)
the least state's marker code sits above the count, which is offset by
half its bits' range so that it may be negative; extending a term is one
addition (after a flip of the count's bits where it is negated) and a
merge keeps the smaller int.  With each corner's marker added to its code
in base-4 digit m-1-i (``marker_codes``), no two states share a sum, so
the pass keeps one term per state, whose sum holds the state's markers in
its low 2m bits; that is how ``enumerate_states``, the
``states`` command and ``gradings.generator_keys`` list the states.  A
state's site is read off the pass too: the final keys of the full pass are
the sites, and ``enumerate_states(d, s)`` lists the states at s alone.
"""

from __future__ import annotations

import functools

from .diagram import CORNER_RULE, Site, TangleDiagram


# per crossing sign (> 0, < 0), the quadrant whose corner carries h^(-sign)
_H_QUADRANT = tuple([[eh != 0 for _, _, eh, _ in rule].index(True) for rule in CORNER_RULE])


def frontier(d: TangleDiagram, s: Site | None, codes: list[tuple[int, ...]],
             least: bool = False, at_h: bool = False) -> dict[Site, dict[int, int]]:
    """The state sums per site reached (only ``s``, if given), each a map
    from the sum of ``codes[i][q]`` over a state's corners to one int: the
    number of states with that sum.  With ``at_h``, for codes without an h
    digit, the count is signed: each state counts (-1)^(its corners that
    carry h), a crossing's h corner being the quadrant with h^(-sign) in the
    h column of ``CORNER_RULE``, and a term whose states cancel keeps a
    count of 0.  With ``least``, the int holds the count plus 2^(k-1) in its
    low k = ``count_bits(m)`` bits and the least of those states above
    them, a state as its marker code (crossing i in base-4 digit m-1-i,
    which orders like the marker tuples), so the ints of a site's terms
    order as their least states.  Split diagrams have none.

    The pass keeps, per frontier key, the sums of the prefix states that
    reach it.  At crossing i it adds each admitted quadrant's code to them
    and merges prefixes with equal keys.  ``bits[i][q]`` is the region bit
    of quadrant q at crossing i (read off ``TangleDiagram.corners``) and
    ``live[i]`` holds the regions with a corner at crossing i or later.
    The key at crossing i is ``filled & live[i]``, which starts with the
    open regions outside ``s`` filled; for the full family it also keeps
    the open regions filled so far, so the final keys are the sites.  A
    region that must be filled (a closed one, or an open one in ``s``) is
    checked right after its last crossing, and the memo ``children`` admits
    a quadrant only if the crossings after it can still be placed, so every
    prefix ends in a state.  Each crossing fills one region, so ``children``
    drops a quadrant without recursing when it leaves more regions to fill
    than crossings to place.
    """
    if d.split:
        return {}
    bits = [tuple([1 << r for r in row[3:]]) for row in d.corners]
    must = opens = 0
    for k, r in enumerate(d.regions):
        if r.kind == "closed" or (s is not None and r.rid in s.arcs):
            must |= 1 << k
        elif r.kind == "open":
            opens |= 1 << k
    filled, keep = (opens, 0) if s is not None else (0, opens)
    m = len(bits)
    live = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        live[i] = live[i + 1] | bits[i][0] | bits[i][1] | bits[i][2] | bits[i][3]
    if must & ~live[0]:
        return {}          # an untouchable region to fill: no states
    # check[i]: the regions to fill whose last corner is at crossing i;
    # need[i]: those to fill with a corner at crossing i or later
    check = [must & live[i] & ~live[i + 1] for i in range(m)]
    need = [must & lv for lv in live]

    @functools.cache
    def children(i: int, key: int) -> list[tuple[int, int]]:
        """The (quadrant, next key) pairs at crossing i that lead to a state."""
        got = []
        for q, b in enumerate(bits[i]):
            if key & b or (key | b) & check[i] != check[i]:
                continue
            nxt = (key | b) & live[i + 1]
            # each crossing left fills one region
            if (need[i + 1] & ~nxt).bit_count() > m - i - 1:
                continue
            if i + 1 == m or children(i + 1, nxt):
                got.append((q, nxt))
        return got

    # a term is its count plus, with ``least``, half (2^(k-1)) and its least
    # prefix state shifted above them (quadrant q of crossing i adds
    # marks[i][q]); a merge keeps the smaller int, with the least state, and
    # adds the other's count, masked off, less its half.  Counts alone add
    # in full.
    if least:
        k = count_bits(m)
        half, mask = 1 << k - 1, (1 << k) - 1
        marks = [tuple([x << k for x in row]) for row in marker_codes(m)]
    else:
        half, mask, marks = 0, -1, [(0, 0, 0, 0)] * m
    # at h = -1 the h corner negates the count of each term it extends,
    # (v ^ mask) + 1; no quadrant is 4
    hq = _H_QUADRANT if at_h else (4, 4)
    front = {filled & live[0]: {0: 1 + half}}
    for i, row in enumerate(codes):
        out: dict[int, dict[int, int]] = {}
        lv = live[i]
        row_bits, row_marks, neg = bits[i], marks[i], hq[d.corners[i][0] < 0]
        for key, terms in front.items():
            for q, nxt in children(i, key & lv):
                sh, mk, src = row[q], row_marks[q], terms
                if q == neg:
                    # the terms extended and negated here, with nothing left to add
                    mk += 1
                    src = {e + sh: (v ^ mask) + mk for e, v in terms.items()}
                    sh = mk = 0
                k2 = nxt | (key | row_bits[q]) & keep
                dst = out.get(k2)
                if dst is None:
                    out[k2] = src if q == neg else {e + sh: v + mk for e, v in terms.items()}
                    continue
                for e, v in src.items():
                    e += sh
                    v += mk
                    t = dst.get(e)
                    if t is None:
                        dst[e] = v
                    elif t < v:
                        dst[e] = t + (v & mask) - half
                    else:
                        dst[e] = v + (t & mask) - half
        front = out
    children.cache_clear()   # it refers to itself: free the memo now, not at the next gc
    if s is not None:
        return {s: terms for terms in front.values()}
    arcs = [(k, r.rid) for k, r in enumerate(d.regions) if r.kind == "open"]
    return {Site(frozenset([a for k, a in arcs if key >> k & 1])): terms
            for key, terms in front.items()}


def count_bits(m: int) -> int:
    """The number k of low bits of a term of ``frontier(..., least=True)``
    that hold its count plus 2^(k-1): an m-crossing diagram has at most 4^m
    states, so every count fits, and the spare bit holds the sign of the
    signed counts at h = -1."""
    return 2 * m + 2


def marker_codes(m: int) -> list[tuple[int, int, int, int]]:
    """Quadrant q of crossing i as q in base-4 digit m-1-i: summed over a
    state's corners, its marker code."""
    return [(0, 1 << k, 2 << k, 3 << k) for k in range(2 * m - 2, -1, -2)]


def markers_of(x: int, m: int) -> tuple[int, ...]:
    """The marker tuple of the base-4 marker code x of an m-crossing state."""
    return tuple([x >> k & 3 for k in range(2 * m - 2, -1, -2)])


def enumerate_states(d: TangleDiagram, s: Site | None = None) -> list[tuple[int, ...]]:
    """All generalised Kauffman states, sorted by their marker vectors; with
    a site ``s``, only the states at ``s``.  Split diagrams have none."""
    m = len(d.crossings)
    sums = frontier(d, s, marker_codes(m))
    return [markers_of(x, m) for x in sorted([x for terms in sums.values() for x in terms])]
