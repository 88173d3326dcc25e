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
that int, ``divmod(end, 4)``, with ``end >= 4*m`` a boundary end.  Each end
is incoming or not by the slot table of its crossing's sign.  A strand is
followed end to end: from a tail end across its edge (``alpha``) to the
head end, then out through the opposite slot (s + 2) % 4 of that crossing;
the components, and the pieces that decide whether the diagram is split,
come from that one walk.  Faces are traced on the same ints, with no darts
for the boundary arcs (``_trace_faces``), and every end keeps the index of
its region, which ``region_beside`` and ``corners`` read; a split diagram
traces no faces, so it has no regions and no region beside any edge.

The Alexander corner rule is stated once, as ``CORNER_RULE``: per crossing
sign and quadrant, the doubled exponents of the under colour, the over
colour and h, and the doubled delta.  ``corners`` holds the ints it reads per
crossing (sign, under and over colour, region of each quadrant), and
``corner_codes`` packs each corner into one int under weights its caller
chooses; the one pass over the states (``states.frontier``) reads them.
They are the only form of the quadrant labels: a region is named by
``regions[r].rid`` and a colour by ``colours()[c]`` where a reader wants
names.

Renaming edges and reversing strands are ``Crossing.renamed`` and
``Crossing.reversed``, and ``Crossing.from_slots`` inverts ``slots``; the
transforms and glueing use them rather than building crossings by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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


class Component(NamedTuple):
    colour: str
    kind: str                    # 'open' | 'closed'
    edges: tuple[str, ...]       # in flow order


class Region(NamedTuple):
    rid: str
    kind: str                    # 'open' | 'closed' | 'outer'
    corners: tuple[tuple[int, int], ...]   # (crossing index, quadrant)
    arcs: tuple[str, ...]


class Site(NamedTuple):
    """A choice of n-1 boundary arcs (equivalently open regions)."""

    arcs: frozenset[str]

    def __str__(self):
        return ",".join(sorted(self.arcs)) if self.arcs else "-"


# The Alexander corner rule, with slot 0 the under-in end and quadrant q
# between slots q and q+1: per quadrant q of a positive crossing (row 0) and
# of a negative one (row 1), the doubled exponents of the under colour u, the
# over colour o and h, and the doubled delta grading.
#
# * u contributes u^{+1/2} on the two quadrants right of the under-strand
#   (q0, q1) and u^{-1/2} on its left (q2, q3);
# * o contributes o^{+1/2} left of the over-strand and o^{-1/2} on its right;
# * the quadrant between both incoming ends (q3 at a positive crossing, q0
#   at a negative one) carries h^{-sign};
# * that quadrant and the opposite one, between both outgoing ends, add
#   sign/2 to the delta grading.
CORNER_RULE = (((1, -1, 0, 0), (1, 1, 0, 1), (-1, 1, 0, 0), (-1, -1, -2, 1)),
               ((1, 1, 2, -1), (1, -1, 0, 0), (-1, -1, 0, -1), (-1, 1, 0, 0)))

# Which of slots 0..3 are incoming ends, at a positive crossing (row 0: ccw
# u_in, o_out, u_out, o_in) and at a negative one (row 1: u_in, o_in, u_out,
# o_out).
_SLOT_IN = ((True, False, False, True), (True, True, False, False))


def _colour_name(colour: str) -> str:
    """``colour``, if it may name a strand: a token other than h and delta."""
    if colour in RESERVED_NAMES or not _TOKEN.match(colour):
        raise TangleError("E_SYNTAX", f"bad colour name {colour!r}")
    return colour


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
        if not self.boundary and self.outer_hint[0] not in self._first_end:
            raise TangleError("E_SYNTAX", f"outer hint names no edge {self.outer_hint[0]!r}")
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
        names = [e for c in self.crossings for e in c.slots()]
        names += self.boundary
        first: dict[str, int] = {}
        alpha = [-1] * len(names)
        for end, e in enumerate(names):
            a = first.setdefault(e, end)
            if a != end and alpha[a] < 0:
                alpha[a], alpha[end] = end, a
        if -1 in alpha:
            e = next(e for e in first if names.count(e) != 2)
            raise TangleError("E_DANGLING", f"edge {e!r} used {names.count(e)} time(s)")
        self.n_ends = len(names)
        self.alpha = alpha
        self.edge_of_end = names
        self.edges = sorted(first)
        self._first_end = first

    # ------------------------------------------------------------------
    # orientations

    def _orient_edges(self, edge_dirs: Mapping[str, bool]):
        """Mark each end incoming/outgoing: crossing ends by the slot table
        of their sign, boundary ends opposite to the other end of their edge.

        An edge running from boundary to boundary meets no crossing; its
        flow comes from ``edge_dirs`` (True, the default: from its first
        boundary position to its second) and is kept, for these edges only,
        in ``self.edge_dirs``.
        """
        m4 = 4 * len(self.crossings)
        alpha = self.alpha
        incoming: list[bool] = []
        for c in self.crossings:
            incoming += _SLOT_IN[c.sign < 0]
        self.edge_dirs: dict[str, bool] = {}
        for end in range(m4, self.n_ends):
            other = alpha[end]
            if other > end:     # the first end of a bare edge
                e = self.edge_of_end[end]
                first_is_tail = self.edge_dirs[e] = edge_dirs.get(e, True)
                incoming.append(not first_is_tail)
            else:
                incoming.append(not incoming[other])
        for a in range(m4):
            if incoming[a] == incoming[alpha[a]]:
                raise TangleError("E_ORIENT",
                                  f"edge {self.edge_of_end[a]!r} has inconsistent orientation")
        self.incoming = incoming

    def flow_ends(self, edge: str) -> tuple[int, int]:
        """(tail end, head end) of an edge."""
        a = self._first_end[edge]
        b = self.alpha[a]
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
        alpha, edge_of_end, incoming = self.alpha, self.edge_of_end, self.incoming
        comp_of_tail = [-1] * self.n_ends
        walks: list[tuple[str, list[str]]] = []

        def walk(tail: int) -> tuple[str, list[str]]:
            edges = []
            c = len(walks)
            while comp_of_tail[tail] < 0:
                comp_of_tail[tail] = c
                edges.append(edge_of_end[tail])
                head = alpha[tail]
                if head >= m4:
                    return "open", edges
                tail = head ^ 2    # slot s -> (s + 2) % 4 at the same crossing
            return "closed", edges

        for end in range(m4, self.n_ends):
            if not incoming[end]:
                walks.append(walk(end))
        first = self._first_end
        for e in self.edges:
            tail = first[e]
            if incoming[tail]:
                tail = alpha[tail]
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
            comps.append(Component(_colour_name(colours.pop()), kind, tuple(walk)))
        for colour in self.free_circles:
            comps.append(Component(_colour_name(colour), "closed", ()))
        self.components = tuple(comps)
        self._colours = tuple(dict.fromkeys(c.colour for c in comps))
        self.colour_of_edge = {e: c.colour for c in comps for e in c.edges}
        self.n_open = sum(1 for c in comps if c.kind == "open")
        self.m_closed = len(comps) - self.n_open
        if len(self.boundary) != 2 * self.n_open:
            raise TangleError("E_ORIENT", "boundary ends inconsistent with open strands")

    def colours(self) -> tuple[str, ...]:
        """The distinct strand colours, in component order."""
        return self._colours

    def _classify_pieces(self) -> bool:
        """True if the diagram is connected; False if only closed pieces are
        disconnected (a split diagram); raises if open parts are separated."""
        piece = list(range(len(self.components)))   # the piece of each component
        comp = self._comp_of_tail
        for ci, c in enumerate(self.crossings):
            # the under and over strands leave at slot 2 and at slot 1 or 3
            a, b = piece[comp[4 * ci + 2]], piece[comp[4 * ci + (1 if c.sign > 0 else 3)]]
            if a != b:
                piece = [a if p == b else p for p in piece]
        if len(set(piece[:self.n_open])) > 1:
            raise TangleError("E_DISCONNECTED",
                              "two separate parts of the diagram reach the boundary")
        return len(set(piece)) <= 1

    # ------------------------------------------------------------------
    # faces

    def _trace_faces(self):
        """Trace the faces on the edge ends, then name them.

        The face of end d is the one on the right when leaving d along its
        edge; it goes on at the slot after ``alpha[d]`` counterclockwise or,
        when ``alpha[d]`` is boundary end k, past arc k to boundary end k-1.
        The arcs are not numbered as ends: the face that passes end k is arc
        k's open region, and the exterior of a tangle, the one face no end
        lies on, is counted apart.  Corners are listed in (crossing,
        quadrant) order, and closed faces are named r0, r1, ... in the
        order of their least corner.
        """
        m = len(self.crossings)
        m4, n = 4 * m, self.n_ends
        alpha = self.alpha
        face_of = [-1] * n
        arcs_on: list[list[int]] = []    # per face, the arcs it passes
        for start in range(n):
            if face_of[start] >= 0:
                continue
            f = len(arcs_on)
            ks = []
            d = start
            while face_of[d] < 0:
                face_of[d] = f
                d = alpha[d]
                if d < m4:
                    d = d - 3 if d & 3 == 3 else d + 1
                else:
                    ks.append(d - m4)
                    d = d - 1 if d > m4 else n - 1
            arcs_on.append(ks)

        if m - len(self.edges) + len(arcs_on) + bool(self.boundary) != 2:
            raise TangleError("E_NONPLANAR", "rotation system is not planar")

        if self.boundary:
            shared = [sorted(ks) for ks in arcs_on if len(ks) > 1]
            if shared:
                raise TangleError(
                    "E_DISCONNECTED",
                    f"arcs {[self.arcs[k] for k in min(shared)]} lie on one region; "
                    "the diagram is not connected")
            kind = "open"
            named = {f: self.arcs[ks[0]] for f, ks in enumerate(arcs_on) if ks}
        else:
            kind = "outer"
            edge, side = self.outer_hint
            tail, head = self.flow_ends(edge)
            named = {face_of[tail if side == "R" else head]: self.arcs[0]}

        corners: list[list[tuple[int, int]]] = [[] for _ in arcs_on]
        for ci in range(m):     # quadrant q is the face of end 4ci + (q + 1) % 4
            b = 4 * ci
            corners[face_of[b + 1]].append((ci, 0))
            corners[face_of[b + 2]].append((ci, 1))
            corners[face_of[b + 3]].append((ci, 2))
            corners[face_of[b]].append((ci, 3))
        closed = sorted((f for f in range(len(arcs_on)) if f not in named),
                        key=corners.__getitem__)
        faces = [(rid, kind, f) for f, rid in named.items()]
        faces += [(f"r{i}", "closed", f) for i, f in enumerate(closed)]
        faces.sort(key=itemgetter(0))
        index = [0] * len(arcs_on)
        regions = []
        for i, (rid, kind, f) in enumerate(faces):
            index[f] = i
            regions.append(Region(rid, kind, tuple(corners[f]), () if kind == "closed" else (rid,)))
        self.regions = tuple(regions)
        # region of each end, as an index into regions
        self._region_of_dart = [index[f] for f in face_of]

    # ------------------------------------------------------------------
    # queries

    def region(self, rid: str) -> Optional[Region]:
        """The region named ``rid``; None if there is none."""
        return next((r for r in self.regions if r.rid == rid), None)

    def region_beside(self, edge: str, side: str) -> Optional[str]:
        """Region on the 'L'/'R' side of an edge, w.r.t. its flow direction:
        the face of its tail dart on the right, of its head dart on the left.
        None for an unknown edge and on a split diagram."""
        if self.split or edge not in self._first_end:
            return None
        tail, head = self.flow_ends(edge)
        return self.regions[self._region_of_dart[tail if side == "R" else head]].rid

    @cached_property
    def _sites(self) -> tuple[Site, ...]:
        """All (n-1)-element subsets of the arcs, in deterministic order.
        Built once, on first use."""
        from itertools import combinations
        labels = sorted(self.arcs) if self.boundary else []
        k = self.n_open - 1
        if k < 0:
            return ()
        return tuple([Site(frozenset(c)) for c in combinations(labels, k)])

    def sites(self) -> list[Site]:
        """All (n-1)-element subsets of the arcs, in deterministic order."""
        return list(self._sites)

    def has_site(self, s: Site) -> bool:
        """Whether ``s`` is one of ``sites()``."""
        return s in self._sites

    @cached_property
    def corners(self) -> tuple[tuple[int, ...], ...]:
        """Per crossing, the ints that the corner rule (``CORNER_RULE``)
        reads: ``(sign, u, o, r0, r1, r2, r3)``, with u and o the under and
        over colours as indices into ``colours()`` and r_q the region of
        quadrant q, the face of dart 4ci + (q + 1) % 4, as an index into
        ``regions`` (-1 on a split diagram).  Built once, on first use."""
        index = {c: k for k, c in enumerate(self._colours)}
        colour = [index[c.colour] for c in self.components]
        comp = self._comp_of_tail    # under leaves at slot 2, over at slot 1 or 3
        region = [-1] * self.n_ends if self.split else self._region_of_dart
        return tuple([(c.sign, colour[comp[b + 2]], colour[comp[b + (1 if c.sign > 0 else 3)]],
                       region[b + 1], region[b + 2], region[b + 3], region[b])
                      for c, b in zip(self.crossings, range(0, self.n_ends, 4))])

    def corner_codes(self, weight, h: int = 0, delta: int = 0) -> list[tuple[int, ...]]:
        """Per crossing, each quadrant's code as one int: the doubled
        exponents of ``CORNER_RULE`` times ``weight[u]``, ``weight[o]`` and
        ``h``, plus its doubled delta times ``delta``.  The packers choose
        the weights: ``nabla`` one digit per colour and h, ``gradings`` one
        per colour and delta."""
        rule = CORNER_RULE
        return [tuple([eu * weight[u] + eo * weight[o] + eh * h + ed * delta
                       for eu, eo, eh, ed in rule[sign < 0]])
                for sign, u, o, *_ in self.corners]

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
    (counterclockwise, starting with an arc label) or, for a 0-ended
    diagram, ``outer <arc> <edge> <L|R>`` (the arc label of its outer
    region, which lies on that side of that edge), one
    ``crossing <id> <+|-> under <in> <out> over <in> <out>`` per crossing,
    ``colour <seed-edge> <name>`` per strand and ``circle <name>`` per
    crossingless closed strand.  A colour name is a token other than ``h``
    and ``delta``; a ``colour`` line names an edge of the diagram, and at
    most one names each edge.  ``flow <edge> <k>`` says that a bare arc, an
    edge from boundary end k to another boundary end, flows from end k
    (ends count from 0); without it a bare arc flows from its first end.
    ``#`` starts a comment.
    """
    name = "tangle"
    ends_declared: Optional[int] = None
    boundary: list[str] = []
    arcs: list[str] = []
    crossings: list[Crossing] = []
    colour_seeds: dict[str, str] = {}
    colour_lines: list[tuple[int, str]] = []
    flows: dict[str, tuple[int, int]] = {}     # bare arc -> (line, end it flows from)
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
            if len(tok) != 2 or not (tok[1].isascii() and tok[1].isdigit()):
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
            if tok[1] in colour_seeds:
                raise TangleError("E_SYNTAX", f"line {lineno}: edge {tok[1]!r} coloured twice")
            colour_seeds[tok[1]] = tok[2]
            colour_lines.append((lineno, tok[1]))
        elif kw == "flow":
            if len(tok) != 3 or not (tok[2].isascii() and tok[2].isdigit()):
                raise TangleError("E_SYNTAX", f"line {lineno}: flow <edge> <k>")
            if tok[1] in flows:
                raise TangleError("E_SYNTAX", f"line {lineno}: edge {tok[1]!r} given two flows")
            flows[tok[1]] = (lineno, int(tok[2]))
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
    edge_dirs = {}
    for e, (lineno, k) in flows.items():
        ends = [j for j, b in enumerate(boundary) if b == e]
        if len(ends) != 2 or k not in ends:
            raise TangleError("E_SYNTAX", f"line {lineno}: no bare arc {e!r} at end {k}")
        edge_dirs[e] = k == ends[0]
    d = TangleDiagram(name, crossings, boundary, arcs, colour_seeds, outer_hint, edge_dirs,
                      free_circles)
    for lineno, e in colour_lines:
        if e not in d.colour_of_edge:
            raise TangleError("E_SYNTAX", f"line {lineno}: colour names no edge {e!r}")
    return d


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
    for e, first_is_tail in d.edge_dirs.items():
        if not first_is_tail:
            lines.append(f"flow {e} {d.boundary.index(e, d.boundary.index(e) + 1)}")
    for colour in d.free_circles:
        lines.append(f"circle {colour}")
    return "\n".join(lines) + "\n"
