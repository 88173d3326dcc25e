"""Oriented tangle diagrams as planar combinatorial maps.

A diagram is stored declaratively, close to its text form: a list of
crossings (each naming its under/over edge pairs, in flow order, plus a
chirality sign), the counterclockwise sequence of boundary end edges
interleaved with arc labels, and a colour per strand component.  All faces,
orientations and adjacency data are derived and validated on construction.

Conventions (used consistently everywhere):

* Rotations are counterclockwise in the standard drawing plane (x right,
  y up, observer on the +z side).
* The four slots of a crossing are numbered ccw with slot 0 the incoming
  under-strand end.  A crossing is positive exactly when the over-strand
  enters at slot 3, i.e. ccw slot order (u_in, o_out, u_out, o_in);
  negative crossings have ccw order (u_in, o_in, u_out, o_out).
* Quadrant q of a crossing is the corner between slots q and q+1 (mod 4).
* Boundary arcs: arc k precedes boundary end k counterclockwise, so arc k
  runs from end k-1 to end k.

Construction numbers the edge ends (crossing ci slot s is 4*ci + s, boundary
end k is 4*m + k) and states each rule on them once; callers read an end as
that int, ``divmod(end, 4)``, with ``end >= 4*m`` a boundary end.  A strand
is followed end to end: from a tail end across its edge (``alpha``) to the
head end, then out through the opposite slot (s + 2) % 4 of that crossing;
the components, and the pieces that decide whether the diagram is split,
come from that one walk.  Face tracing keeps the region of every dart, which
is what ``region_beside`` and the corners of ``quadrants`` read; a split
diagram traces no faces, so it has no regions and no region beside any
edge.  Renaming edges and reversing strands are ``Crossing.renamed`` and
``Crossing.reversed``, and ``Crossing.from_slots`` inverts ``slots``; the
transforms and glueing use them rather than building crossings by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional


class TangleError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


RESERVED_NAMES = {"h", "delta"}
_TOKEN = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Crossing:
    """One 4-valent vertex; edge ids listed in flow order per strand."""

    sign: int
    under: tuple[str, str]  # (incoming edge, outgoing edge)
    over: tuple[str, str]

    def slots(self) -> tuple[str, str, str, str]:
        """Edge ids at slots 0..3 in ccw order (slot 0 = under-in)."""
        if self.sign > 0:
            return (self.under[0], self.over[1], self.under[1], self.over[0])
        return (self.under[0], self.over[0], self.under[1], self.over[1])

    @classmethod
    def from_slots(cls, sign: int, slots) -> "Crossing":
        """The crossing of this sign whose ``slots()`` are ``slots``."""
        oi = 3 if sign > 0 else 1
        return cls(sign, (slots[0], slots[2]), (slots[oi], slots[oi ^ 2]))

    @property
    def over_in_slot(self) -> int:
        return 3 if self.sign > 0 else 1

    def role_of_slot(self, s: int) -> tuple[str, bool]:
        """(strand, incoming) for slot s, strand in {'under','over'}."""
        if s == 0:
            return "under", True
        if s == 2:
            return "under", False
        return "over", s == self.over_in_slot

    def renamed(self, f) -> "Crossing":
        """The same crossing with every edge id e replaced by f(e)."""
        return Crossing(self.sign, (f(self.under[0]), f(self.under[1])),
                        (f(self.over[0]), f(self.over[1])))

    def reversed(self, under: bool, over: bool) -> "Crossing":
        """The crossing with the named strands flowing the other way; the
        sign flips when exactly one of them does."""
        return Crossing(-self.sign if under != over else self.sign,
                        self.under[::-1] if under else self.under,
                        self.over[::-1] if over else self.over)


@dataclass(frozen=True)
class Component:
    colour: str
    kind: str                    # 'open' | 'closed'
    edges: tuple[str, ...]       # in flow order


@dataclass(frozen=True)
class Region:
    rid: str
    kind: str                    # 'open' | 'closed' | 'outer'
    corners: tuple[tuple[int, int], ...]   # (crossing index, quadrant)
    arcs: tuple[str, ...]


@dataclass(frozen=True)
class Site:
    """A choice of n-1 boundary arcs (equivalently open regions)."""

    arcs: frozenset[str]

    def __str__(self):
        return ",".join(sorted(self.arcs)) if self.arcs else "-"


class Quadrant(NamedTuple):
    """One corner of a crossing: its region and its local Alexander code."""

    region: Optional[str]               # None on a split diagram
    exp2: tuple[tuple[str, int], ...]   # doubled colour exponents, non-zero
    h2: int                             # doubled exponent of h
    delta2: int                         # doubled delta contribution


class UnionFind:
    """Disjoint sets of hashable items, each represented by its smallest member."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class TangleDiagram:
    """Validated oriented tangle diagram.  Treat instances as immutable."""

    def __init__(self, name: str, crossings: Iterable[Crossing],
                 boundary: Iterable[str], arcs: Iterable[str],
                 colour_seeds: Mapping[str, str],
                 outer_hint: Optional[tuple[str, str]] = None,
                 edge_dirs: Optional[Mapping[str, bool]] = None,
                 free_circles: Iterable[str] = ()):
        self.name = name
        self.crossings = tuple(crossings)
        self.boundary = tuple(boundary)
        self.arcs = tuple(arcs)
        self.outer_hint = outer_hint
        # crossingless closed strands with no attachments; their presence
        # always makes the diagram split
        self.free_circles = tuple(free_circles)
        self._validate_shape()
        self._resolve_ends()
        self._orient_edges(edge_dirs or {})
        self._walk_components(colour_seeds)
        # split = a closed part of the diagram is disconnected from the rest
        # (then the invariants vanish); a disconnected OPEN part instead makes
        # the diagram invalid, since some open region meets the boundary
        # circle in more than one arc.
        self.split = bool(self.free_circles) or not self._classify_pieces()
        self.regions: tuple[Region, ...] = ()   # a split diagram has no faces
        if not self.split:
            self._trace_faces()

    # ------------------------------------------------------------------
    # shape / occurrence resolution

    def _validate_shape(self):
        if len(self.boundary) % 2:
            raise TangleError("E_SYNTAX", "odd number of boundary ends")
        if self.boundary:
            if len(self.arcs) != len(self.boundary):
                raise TangleError("E_SYNTAX", "need one arc label per boundary end")
        elif len(self.arcs) != 1:
            raise TangleError("E_SYNTAX", "a closed diagram carries exactly one arc label")
        if len(set(self.arcs)) != len(self.arcs):
            raise TangleError("E_SYNTAX", "duplicate arc label")
        for a in self.arcs:
            if not _TOKEN.match(a):
                raise TangleError("E_SYNTAX", f"bad arc label {a!r}")
        if not self.boundary and self.outer_hint is None:
            raise TangleError("E_SYNTAX", "closed diagram needs an outer-region hint")

    def _resolve_ends(self):
        """Number the edge ends: crossing ci slot s -> 4*ci+s, boundary k -> 4m+k."""
        m = len(self.crossings)
        occ: dict[str, list[int]] = {}
        for ci, c in enumerate(self.crossings):
            for s, e in enumerate(c.slots()):
                occ.setdefault(e, []).append(4 * ci + s)
        for k, e in enumerate(self.boundary):
            occ.setdefault(e, []).append(4 * m + k)
        for e, ends in occ.items():
            if len(ends) != 2:
                raise TangleError("E_DANGLING", f"edge {e!r} used {len(ends)} time(s)")
        self.n_ends = 4 * m + len(self.boundary)
        self.alpha = [0] * self.n_ends
        self.edge_of_end = [""] * self.n_ends
        for e, (a, b) in occ.items():
            self.alpha[a], self.alpha[b] = b, a
            self.edge_of_end[a] = self.edge_of_end[b] = e
        self.edges = sorted(occ)
        self._occ = occ

    # ------------------------------------------------------------------
    # orientations

    def _orient_edges(self, edge_dirs: Mapping[str, bool]):
        """Mark each end incoming/outgoing; directions come from crossing roles.

        An edge running from boundary to boundary meets no crossing; its
        flow comes from ``edge_dirs`` (True, the default: from its first
        boundary position to its second) and is kept, for these edges only,
        in ``self.edge_dirs``.
        """
        m = len(self.crossings)
        incoming: list[Optional[bool]] = [None] * self.n_ends
        for ci, c in enumerate(self.crossings):
            for s in range(4):
                _, is_in = c.role_of_slot(s)
                incoming[4 * ci + s] = is_in
        for end in range(4 * m, self.n_ends):
            other = self.alpha[end]
            if incoming[other] is not None:
                incoming[end] = not incoming[other]
        self.edge_dirs: dict[str, bool] = {}
        for e, (a, b) in self._occ.items():
            if incoming[a] is None and incoming[b] is None:
                first_is_tail = self.edge_dirs[e] = edge_dirs.get(e, True)
                incoming[a] = not first_is_tail
                incoming[b] = first_is_tail
        for e, (a, b) in self._occ.items():
            if incoming[a] == incoming[b]:
                raise TangleError("E_ORIENT", f"edge {e!r} has inconsistent orientation")
        self.incoming = incoming

    def flow_ends(self, edge: str) -> tuple[int, int]:
        """(tail end, head end) of an edge."""
        a, b = self._occ[edge]
        return (a, b) if self.incoming[b] else (b, a)

    # ------------------------------------------------------------------
    # components and colours

    def _walk_components(self, colour_seeds: Mapping[str, str]):
        """Follow each strand end to end: from a tail end, across its edge
        (``alpha``) to the head end, and on through the opposite slot of
        that crossing.  Open strands come first, in the order of the
        boundary end they enter at; closed ones each start at their least
        edge.  Records the component of every tail end."""
        m4 = 4 * len(self.crossings)
        alpha, edge_of_end = self.alpha, self.edge_of_end
        comp_of_tail = [-1] * self.n_ends
        walks: list[tuple[str, list[str]]] = []

        def walk(tail: int) -> tuple[str, list[str]]:
            edges = []
            while comp_of_tail[tail] < 0:
                comp_of_tail[tail] = len(walks)
                edges.append(edge_of_end[tail])
                head = alpha[tail]
                if head >= m4:
                    return "open", edges
                tail = head ^ 2    # slot s -> (s + 2) % 4 at the same crossing
            return "closed", edges

        for end in range(m4, self.n_ends):
            if not self.incoming[end]:
                walks.append(walk(end))
        for e in self.edges:
            tail, _ = self.flow_ends(e)
            if comp_of_tail[tail] < 0:
                kind, edges = walk(tail)
                if kind == "open":
                    raise TangleError("E_ORIENT", "open strand not anchored on the boundary")
                walks.append((kind, edges))
        self._comp_of_tail = comp_of_tail

        comps = []
        for kind, walk in walks:
            colours = {colour_seeds[e] for e in walk if e in colour_seeds}
            if len(colours) > 1:
                raise TangleError("E_SYNTAX", f"conflicting colours {sorted(colours)} on one strand")
            if not colours:
                raise TangleError("E_SYNTAX", f"no colour given for the strand through {walk[0]!r}")
            colour = colours.pop()
            if colour in RESERVED_NAMES or not _TOKEN.match(colour):
                raise TangleError("E_SYNTAX", f"bad colour name {colour!r}")
            comps.append(Component(colour, kind, tuple(walk)))
        for colour in self.free_circles:
            comps.append(Component(colour, "closed", ()))
        self.components = tuple(comps)
        self.colour_of_edge = {e: c.colour for c in comps for e in c.edges}
        self.n_open = sum(1 for c in comps if c.kind == "open")
        self.m_closed = len(comps) - self.n_open
        if len(self.boundary) != 2 * self.n_open:
            raise TangleError("E_ORIENT", "boundary ends inconsistent with open strands")

    def colours(self) -> tuple[str, ...]:
        seen: list[str] = []
        for c in self.components:
            if c.colour not in seen:
                seen.append(c.colour)
        return tuple(seen)

    def _classify_pieces(self) -> bool:
        """True if the diagram is connected; False if only closed pieces are
        disconnected (a split diagram); raises if open parts are separated."""
        pieces = UnionFind()
        for ci, c in enumerate(self.crossings):
            # the under and over strands leave at slot 2 and opposite over-in
            pieces.union(self._comp_of_tail[4 * ci + 2],
                         self._comp_of_tail[4 * ci + (c.over_in_slot + 2) % 4])
        if len({pieces.find(i) for i in range(self.n_open)}) > 1:
            raise TangleError("E_DISCONNECTED",
                              "two separate parts of the diagram reach the boundary")
        return len({pieces.find(i) for i in range(len(self.components))}) <= 1

    # ------------------------------------------------------------------
    # faces

    def _trace_faces(self):
        """Orbit-trace the rotation system; identify regions and quadrants.

        Face-of-a-dart semantics: the face on the right-hand side when
        travelling away from the dart's attachment along its edge.
        """
        m = len(self.crossings)
        two_n = len(self.boundary)
        n_str = self.n_ends
        # extra darts for boundary arcs: arc k start -> n_str + 2k, end -> n_str + 2k + 1
        total = n_str + 2 * two_n
        sigma = [0] * total
        alpha = list(self.alpha) + [0] * (2 * two_n)
        for k in range(two_n):
            alpha[n_str + 2 * k] = n_str + 2 * k + 1
            alpha[n_str + 2 * k + 1] = n_str + 2 * k
        for ci in range(m):
            for s in range(4):
                sigma[4 * ci + s] = 4 * ci + (s + 1) % 4
        for k in range(two_n):
            nxt_arc_start = n_str + 2 * ((k + 1) % two_n)
            strand = 4 * m + k
            arc_end = n_str + 2 * k + 1
            sigma[nxt_arc_start] = strand
            sigma[strand] = arc_end
            sigma[arc_end] = nxt_arc_start

        face_of = [-1] * total
        faces: list[list[int]] = []
        for d0 in range(total):
            if face_of[d0] >= 0:
                continue
            orbit = []
            d = d0
            while face_of[d] < 0:
                face_of[d] = len(faces)
                orbit.append(d)
                d = sigma[alpha[d]]
            faces.append(orbit)

        v = m + two_n if two_n else m
        e = len(self.edges) + two_n
        if v - e + len(faces) != 2:
            raise TangleError("E_NONPLANAR", "rotation system is not planar")

        if two_n:
            exterior = face_of[n_str]  # face of arc 0's start dart
        else:
            edge, side = self.outer_hint
            tail, head = self.flow_ends(edge)
            exterior = face_of[tail if side == "R" else head]

        # classify faces
        arc_end_face = {}
        for k in range(two_n):
            arc_end_face[k] = face_of[n_str + 2 * k + 1]
        open_faces: dict[int, list[str]] = {}
        for k, label in enumerate(self.arcs if two_n else ()):
            open_faces.setdefault(arc_end_face[k], []).append(label)
        if two_n:
            if exterior in open_faces:
                raise TangleError("E_DISCONNECTED", "an open region wraps around the diagram")
            for fi, labels in open_faces.items():
                if len(labels) > 1:
                    raise TangleError(
                        "E_DISCONNECTED",
                        f"arcs {labels} lie on one region; the diagram is not connected")
        else:
            open_faces = {exterior: [self.arcs[0]]}

        corners: dict[int, list[tuple[int, int]]] = {}
        for ci in range(m):
            for q in range(4):
                fi = face_of[4 * ci + (q + 1) % 4]
                corners.setdefault(fi, []).append((ci, q))

        regions: list[Region] = []
        closed_faces = [fi for fi in range(len(faces))
                        if fi not in open_faces and (not two_n or fi != exterior)]
        closed_faces.sort(key=lambda fi: min(corners.get(fi, [(m, 4)])))
        named: dict[int, str] = {}
        for fi, labels in sorted(open_faces.items(), key=lambda kv: kv[1][0]):
            kind = "open" if two_n else "outer"
            rid = labels[0]
            named[fi] = rid
            regions.append(Region(rid, kind, tuple(sorted(corners.get(fi, []))), tuple(labels)))
        for idx, fi in enumerate(closed_faces):
            rid = f"r{idx}"
            named[fi] = rid
            regions.append(Region(rid, "closed", tuple(sorted(corners.get(fi, []))), ()))
        self.regions = tuple(sorted(regions, key=lambda r: r.rid))
        self.open_regions = frozenset(r.rid for r in regions if r.kind == "open")
        # region of each strand dart; None for the exterior of a tangle
        self._region_of_dart = [named.get(fi) for fi in face_of[:n_str]]

    # ------------------------------------------------------------------
    # queries

    def region(self, rid: str) -> Optional[Region]:
        """The region named ``rid``; None if there is none."""
        return next((r for r in self.regions if r.rid == rid), None)

    def region_beside(self, edge: str, side: str) -> Optional[str]:
        """Region on the 'L'/'R' side of an edge, w.r.t. its flow direction:
        the face of its tail dart on the right, of its head dart on the left.
        None for an unknown edge and on a split diagram."""
        if self.split or edge not in self._occ:
            return None
        tail, head = self.flow_ends(edge)
        return self._region_of_dart[tail if side == "R" else head]

    def sites(self) -> list[Site]:
        """All (n-1)-element subsets of the arcs, in deterministic order."""
        from itertools import combinations
        labels = sorted(self.arcs) if self.boundary else []
        k = self.n_open - 1
        if k < 0:
            return []
        return [Site(frozenset(c)) for c in combinations(labels, k)]

    @cached_property
    def quadrants(self) -> tuple[tuple[Quadrant, ...], ...]:
        """Per crossing, its four corners in quadrant order.

        Built once, on first use.  The Alexander codes, with slot 0 the
        under-in end and quadrant q between slots q and q+1:

        * the under colour u contributes u^{-1/2} on the two quadrants left
          of the under-strand (q2, q3) and u^{+1/2} on its right (q0, q1);
        * the over colour o contributes o^{+1/2} left of the over-strand and
          o^{-1/2} on its right;
        * the quadrant between both incoming ends (q3 at a positive
          crossing, q0 at a negative one) carries h^{-sign};
        * that quadrant and the opposite one, between both outgoing ends,
          add sign/2 to the delta grading.
        """
        table = []
        for ci, c in enumerate(self.crossings):
            u = self.colour_of_edge[c.under[0]]
            o = self.colour_of_edge[c.over[0]]
            left_of_over = ((c.over_in_slot + 2) % 4, (c.over_in_slot + 3) % 4)
            both_in = 3 if c.sign > 0 else 0
            row = []
            for q in range(4):
                exp = {u: -1 if q in (2, 3) else 1}
                exp[o] = exp.get(o, 0) + (1 if q in left_of_over else -1)
                row.append(Quadrant(
                    None if self.split else self._region_of_dart[4 * ci + (q + 1) % 4],
                    tuple((v, e) for v, e in exp.items() if e),
                    -2 * c.sign if q == both_in else 0,
                    c.sign if q % 2 == both_in % 2 else 0))
            table.append(tuple(row))
        return tuple(table)

    def __eq__(self, other):
        if not isinstance(other, TangleDiagram):
            return NotImplemented
        return (self.crossings == other.crossings and self.boundary == other.boundary
                and self.arcs == other.arcs
                and self.colour_of_edge == other.colour_of_edge
                and self.split == other.split)

    def __repr__(self):
        return (f"<TangleDiagram {self.name!r}: {len(self.crossings)} crossings, "
                f"{2 * self.n_open} ends, {self.m_closed} closed>")


def compute_regions(d: TangleDiagram) -> tuple[Region, ...]:
    """The faces of the diagram's combinatorial map, open regions named by
    their boundary arc and closed ones r0, r1, ... deterministically."""
    if d.split:
        raise TangleError("E_SPLIT", "a split diagram has no region structure")
    return d.regions


def linking_number(d: TangleDiagram, i: str, j: str = "all") -> "Fraction":
    """Half the signed count of crossings between colours i and j.

    With j='all', sums lk(i, t) over every other colour t.  Returned as an
    exact Fraction (it is a half-integer).
    """
    from fractions import Fraction
    cols = d.colours()
    if i not in cols or (j != "all" and j not in cols):
        raise TangleError("E_UNKNOWN_COLOUR", f"unknown colour in ({i!r}, {j!r})")
    if i == j:
        raise TangleError("E_UNKNOWN_COLOUR", "linking number needs two distinct colours")
    total = 0
    for c in d.crossings:
        cu = d.colour_of_edge[c.under[0]]
        co = d.colour_of_edge[c.over[0]]
        pair = {cu, co}
        if j == "all":
            if i in pair and len(pair) == 2:
                total += c.sign
        elif pair == {i, j}:
            total += c.sign
    return Fraction(total, 2)


# ----------------------------------------------------------------------
# text format

def parse_tangle(text: str) -> TangleDiagram:
    """Parse the `.tgl` plain-text diagram format.

    Lines: ``tangle <name>``, ``ends <2n>``, ``boundary <arc> <edge> ...``
    (counterclockwise, starting with an arc label), one
    ``crossing <id> <+|-> under <in> <out> over <in> <out>`` per crossing,
    and ``colour <seed-edge> <name>`` per strand.  ``#`` starts a comment.
    """
    name = "tangle"
    ends_declared: Optional[int] = None
    boundary: list[str] = []
    arcs: list[str] = []
    crossings: list[Crossing] = []
    colour_seeds: dict[str, str] = {}
    free_circles: list[str] = []
    outer_hint = None
    seen_ids = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kw = tok[0]
        if kw == "tangle":
            if len(tok) != 2:
                raise TangleError("E_SYNTAX", f"line {lineno}: tangle <name>")
            name = tok[1]
        elif kw == "ends":
            if len(tok) != 2 or not tok[1].isdigit():
                raise TangleError("E_SYNTAX", f"line {lineno}: ends <2n>")
            ends_declared = int(tok[1])
        elif kw == "boundary":
            body = tok[1:]
            if len(body) % 2:
                raise TangleError("E_SYNTAX", f"line {lineno}: boundary alternates arc, edge")
            arcs = body[0::2]
            boundary = body[1::2]
        elif kw == "outer":
            if len(tok) != 4 or tok[3] not in ("L", "R"):
                raise TangleError("E_SYNTAX", f"line {lineno}: outer <arc> <edge> <L|R>")
            arcs = [tok[1]]
            outer_hint = (tok[2], tok[3])
        elif kw == "crossing":
            if (len(tok) != 9 or tok[2] not in ("+", "-")
                    or tok[3] != "under" or tok[6] != "over"):
                raise TangleError(
                    "E_SYNTAX",
                    f"line {lineno}: crossing <id> <+|-> under <in> <out> over <in> <out>")
            if tok[1] in seen_ids:
                raise TangleError("E_SYNTAX", f"line {lineno}: duplicate crossing id {tok[1]!r}")
            seen_ids.add(tok[1])
            crossings.append(Crossing(1 if tok[2] == "+" else -1,
                                      (tok[4], tok[5]), (tok[7], tok[8])))
        elif kw == "colour":
            if len(tok) != 3:
                raise TangleError("E_SYNTAX", f"line {lineno}: colour <seed-edge> <name>")
            colour_seeds[tok[1]] = tok[2]
        elif kw == "circle":
            if len(tok) != 2:
                raise TangleError("E_SYNTAX", f"line {lineno}: circle <colour>")
            free_circles.append(tok[1])
        else:
            raise TangleError("E_SYNTAX", f"line {lineno}: unknown keyword {kw!r}")

    if not crossings:
        raise TangleError("E_NO_CROSSING", "a diagram needs at least one crossing")
    if ends_declared is not None and ends_declared != len(boundary):
        raise TangleError("E_SYNTAX",
                          f"ends {ends_declared} but boundary lists {len(boundary)}")
    return TangleDiagram(name, crossings, boundary, arcs, colour_seeds, outer_hint,
                         free_circles=free_circles)


def serialize(d: TangleDiagram) -> str:
    lines = [f"tangle {d.name}", f"ends {len(d.boundary)}"]
    if d.boundary:
        parts = []
        for a, e in zip(d.arcs, d.boundary):
            parts.extend((a, e))
        lines.append("boundary " + " ".join(parts))
    else:
        lines.append(f"outer {d.arcs[0]} {d.outer_hint[0]} {d.outer_hint[1]}")
    for i, c in enumerate(d.crossings, 1):
        sign = "+" if c.sign > 0 else "-"
        lines.append(f"crossing x{i} {sign} under {c.under[0]} {c.under[1]}"
                     f" over {c.over[0]} {c.over[1]}")
    for comp in d.components:
        if comp.edges:
            lines.append(f"colour {min(comp.edges)} {comp.colour}")
    for colour in d.free_circles:
        lines.append(f"circle {colour}")
    return "\n".join(lines) + "\n"
