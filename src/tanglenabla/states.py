"""Enumeration of generalised Kauffman states.

A state places one marker per crossing into one of its four quadrant
regions so that every closed region is occupied exactly once and every
open region at most once.  For a connected diagram with n open strands
this forces exactly n-1 occupied open regions.  A state is its marker
tuple: entry i is the quadrant (0..3) that holds the marker of crossing i.

``walk_states`` is the one enumerator, a walk over the crossings in index
order that meets the states in lex order and adds up the corner codes it
is given; ``enumerate_states``, the ``gradings`` keys and the ``states``
command read it.  ``walk_tables`` builds its tables and memo; the frontier
pass of ``nabla`` runs on the same ones.
"""

from __future__ import annotations

import functools

from .diagram import Site, TangleDiagram


def walk_tables(d: TangleDiagram, s: Site | None = None):
    """The tables of the index-order walk over the states (at ``s``, if
    given), or None when there are none.

    Returns ``(bits, live, start, children)``: ``bits[i][q]`` is the region
    bit of quadrant q at crossing i (read off ``TangleDiagram.corners``),
    ``live[i]`` holds the regions with a corner at crossing i or later,
    ``start`` is the key at crossing 0 (the open regions outside ``s``
    filled) and ``children(i, key)`` lists the ``(quadrant, next key)``
    pairs at crossing i, for ``key = filled & live[i]``, from which the
    remaining crossings can still be placed.  A region that must be filled
    (a closed one, or an open one in ``s``) is checked right after its last
    crossing.  ``children`` is a memo that refers to itself: call
    ``children.cache_clear()`` when done.
    """
    if d.split:
        return None
    bits = [tuple([1 << r for r in row[3:]]) for row in d.corners]
    must = filled = 0
    for k, r in enumerate(d.regions):
        if r.kind == "closed" or (s is not None and r.rid in s.arcs):
            must |= 1 << k
        elif s is not None and r.kind == "open":
            filled |= 1 << k
    m = len(bits)
    live = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        live[i] = live[i + 1] | bits[i][0] | bits[i][1] | bits[i][2] | bits[i][3]
    if must & ~live[0]:
        return None        # an untouchable region to fill: no states
    # check[i]: the regions to fill whose last corner is at crossing i
    check = [must & live[i] & ~live[i + 1] for i in range(m)]

    @functools.cache
    def children(i: int, key: int) -> list[tuple[int, int]]:
        """The (quadrant, next key) pairs at crossing i that lead to a state."""
        got = []
        for q, b in enumerate(bits[i]):
            if key & b or (key | b) & check[i] != check[i]:
                continue
            nxt = (key | b) & live[i + 1]
            if i + 1 == m or children(i + 1, nxt):
                got.append((q, nxt))
        return got

    return bits, live, filled & live[0], children


def walk_states(d: TangleDiagram, codes=None, s: Site | None = None):
    """Per state in lex order (only those at ``s``, if given), three ints:
    its markers (crossing i in base-4 digit m-1-i), the sum of
    ``codes[i][q]`` over its corners (0 without codes) and the bits of the
    open regions it occupies (see ``sites_of_bits``).

    The walk tries quadrants 0..3 at each crossing and enters a child only
    if the memo of ``walk_tables`` says the crossings after it can still be
    placed, so every branch ends in a state.  Split diagrams have none.
    """
    tables = walk_tables(d, s)
    if tables is None:
        return []
    bits, _, start, children = tables
    m = len(bits)
    codes = codes or [(0, 0, 0, 0)] * m
    keep = sum(1 << k for k, r in enumerate(d.regions) if r.kind == "open")
    opens = [tuple(b & keep for b in row) for row in bits]
    out: list[tuple[int, int, int]] = []

    def walk(i: int, key: int, x: int, e: int, occupied: int) -> None:
        if i == m:
            out.append((x, e, occupied))
            return
        row, ob = codes[i], opens[i]
        for q, nxt in children(i, key):
            walk(i + 1, nxt, 4 * x + q, e + row[q], occupied | ob[q])

    walk(0, start, 0, 0, 0)
    children.cache_clear()   # it refers to itself: free the memo now, not at the next gc
    return out


def markers_of(x: int, m: int) -> tuple[int, ...]:
    """The marker tuple of the base-4 marker code x of an m-crossing state."""
    return tuple([x >> k & 3 for k in range(2 * m - 2, -1, -2)])


def sites_of_bits(d: TangleDiagram, masks) -> dict[int, Site]:
    """The site of each open-region bitmask in ``masks``."""
    arcs = [(k, r.rid) for k, r in enumerate(d.regions) if r.kind == "open"]
    return {b: Site(frozenset(a for k, a in arcs if b >> k & 1)) for b in masks}


def enumerate_states(d: TangleDiagram, s: Site | None = None) -> list[tuple[int, ...]]:
    """All generalised Kauffman states, sorted by their marker vectors; with
    a site ``s``, only the states at ``s``.  Split diagrams have none."""
    m = len(d.crossings)
    return [markers_of(x, m) for x, _, _ in walk_states(d, s=s)]


def site_of(d: TangleDiagram, x: tuple[int, ...]) -> Site:
    """The set of open regions (named by their arcs) occupied by x."""
    occupied = frozenset(row[q].region for row, q in zip(d.quadrants, x))
    return Site(occupied & d.open_regions)
