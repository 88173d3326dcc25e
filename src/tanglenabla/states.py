"""Enumeration of generalised Kauffman states.

A state places one marker per crossing into one of its four quadrant
regions so that every closed region is occupied exactly once and every
open region at most once.  For a connected diagram with n open strands
this forces exactly n-1 occupied open regions.
"""

from __future__ import annotations

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


def enumerate_states(d: TangleDiagram, s: Site | None = None) -> list[KauffmanState]:
    """All generalised Kauffman states, sorted by their marker vectors; with
    a site ``s``, only the states at ``s``.

    Backtracking assigns the most constrained crossing first (fewest free
    quadrants, then lowest index) and puts at most one marker in any
    region; a region that must be filled (a closed one, or an open one in
    ``s``) left empty with no unassigned crossing around it prunes the
    branch, so every complete assignment fills each such region exactly
    once.  The open regions outside ``s`` start out filled.  Split diagrams
    have no states.
    """
    if d.split:
        return []
    index = {r.rid: k for k, r in enumerate(d.regions)}
    if s is None:
        must = [r.kind == "closed" for r in d.regions]
        filled = [False] * len(index)
    else:
        must = [r.kind == "closed" or r.rid in s.arcs for r in d.regions]
        filled = [r.kind == "open" and r.rid not in s.arcs for r in d.regions]
    quad = [tuple(index[corner.region] for corner in row) for row in d.quadrants]

    # remaining[r] = unassigned crossing corners at region r
    remaining = [0] * len(index)
    for row in quad:
        for r in row:
            remaining[r] += 1
    if any(c and not n for c, n in zip(must, remaining)):
        return []          # an untouchable region to fill: no states
    assigned = [-1] * len(quad)
    todo = set(range(len(quad)))
    out: list[tuple[int, ...]] = []

    def rec():
        if not todo:
            out.append(tuple(assigned))
            return
        ci, free = -1, None
        for i in todo:
            f = [q for q, r in enumerate(quad[i]) if not filled[r]]
            if not f:
                return
            if free is None or (len(f), i) < (len(free), ci):
                ci, free = i, f
        regs = quad[ci]
        todo.discard(ci)
        for r in regs:
            remaining[r] -= 1
        for q in free:
            r = regs[q]
            assigned[ci] = q
            filled[r] = True
            # only the regions around ci changed
            if all(filled[x] or remaining[x] or not must[x] for x in regs):
                rec()
            filled[r] = False
        assigned[ci] = -1
        for r in regs:
            remaining[r] += 1
        todo.add(ci)

    rec()
    return [KauffmanState(markers) for markers in sorted(out)]


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
