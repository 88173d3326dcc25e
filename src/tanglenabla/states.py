"""Enumeration of generalised Kauffman states.

A state places one marker per crossing into one of its four quadrant
regions so that every closed region is occupied exactly once and every
open region at most once.  For a connected diagram with n open strands
this forces exactly n-1 occupied open regions.

``enumerate_states`` walks the crossings in index order with a memo that
says whether the crossings still to place can complete a state, so it
enters no branch that ends without one and yields the states in lex order.
``walk_tables`` builds the walk's tables and memo; the frontier pass of
``nabla`` runs on the same ones.
"""

from __future__ import annotations

import functools

from .diagram import Site, TangleDiagram


class KauffmanState:
    """Marker assignment crossing -> quadrant (0..3)."""

    __slots__ = ("markers",)

    def __init__(self, markers: tuple[int, ...]):
        self.markers = markers

    def __iter__(self):
        return iter(self.markers)

    def __eq__(self, other):
        return isinstance(other, KauffmanState) and self.markers == other.markers

    def __hash__(self):
        return hash(self.markers)

    def __repr__(self):
        return "KauffmanState(" + " ".join(f"x{i + 1}:q{q}" for i, q in enumerate(self.markers)) + ")"


def walk_tables(d: TangleDiagram, s: Site | None = None):
    """The tables of the index-order walk over the states (at ``s``, if
    given), or None when there are none.

    Returns ``(bits, live, start, children)``: ``bits[i][q]`` is the region
    bit of quadrant q at crossing i, ``live[i]`` holds the regions with a
    corner at crossing i or later, ``start`` is the key at crossing 0 (the
    open regions outside ``s`` filled) and ``children(i, key)`` lists the
    ``(quadrant, next key)`` pairs at crossing i, for ``key = filled &
    live[i]``, from which the remaining crossings can still be placed.  A
    region that must be filled (a closed one, or an open one in ``s``) is
    checked right after its last crossing.  ``children`` is a memo that
    refers to itself: call ``children.cache_clear()`` when done.
    """
    if d.split:
        return None
    index = {r.rid: k for k, r in enumerate(d.regions)}
    bits = [tuple(1 << index[corner.region] for corner in row) for row in d.quadrants]
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


def enumerate_states(d: TangleDiagram, s: Site | None = None) -> list[KauffmanState]:
    """All generalised Kauffman states, sorted by their marker vectors; with
    a site ``s``, only the states at ``s``.

    The walk places crossings 0..m-1 in index order, trying quadrants 0..3
    at each, with region sets held as int bitmasks (see ``walk_tables``).
    It enters a child only if the memo keyed by ``(i, filled & live[i])``
    says the crossings from i on can still be placed, so every branch
    entered ends in a state, in lex order.  Split diagrams have no states.
    """
    tables = walk_tables(d, s)
    if tables is None:
        return []
    bits, _, start, children = tables
    m = len(bits)
    out: list[KauffmanState] = []
    markers = [0] * m

    def walk(i: int, key: int) -> None:
        if i == m:
            out.append(KauffmanState(tuple(markers)))
            return
        for q, nxt in children(i, key):
            markers[i] = q
            walk(i + 1, nxt)

    walk(0, start)
    children.cache_clear()   # it refers to itself: free the memo now, not at the next gc
    return out


def site_of(d: TangleDiagram, x: KauffmanState) -> Site:
    """The set of open regions (named by their arcs) occupied by x."""
    occupied = frozenset(row[q].region for row, q in zip(d.quadrants, x.markers))
    return Site(occupied & d.open_regions)


def state_codes(d: TangleDiagram, x: KauffmanState) -> tuple[dict[str, int], int, int]:
    """The quadrant codes of ``TangleDiagram.quadrants`` summed over x: the
    doubled colour exponents (in first-appearance order: crossing order,
    the under colour before the over colour), the doubled h exponent and
    the doubled delta grading."""
    exp2: dict[str, int] = {}
    h2 = delta2 = 0
    for row, q in zip(d.quadrants, x.markers):
        corner = row[q]
        for v, e in corner.exp2:
            exp2[v] = exp2.get(v, 0) + e
        h2 += corner.h2
        delta2 += corner.delta2
    return exp2, h2, delta2
