"""Diagram-level transformations: mirror, orientation reversal, glueing,
closure, mutation, Reidemeister moves and the small surgeries (crossing
switch, oriented smoothing, closed-component deletion) that the property
checks are built from.

All operations are pure, and each builds its result with exactly one
validated TangleDiagram construction and no intermediate diagram:
``glue_diagrams`` builds its own; every other transform goes through
``_rebuild``, the splicing ones (smoothing, deletion, capping and closure,
kink and bigon removal) by way of ``_Splicer.rebuild`` after merging edges.

Glueing and capping are stated once, on unvalidated ``Shape`` records:
``_glue_ends`` pairs the ends and checks their orientations, ``_glue_shapes``
joins the paired ends and renames the edges; ``_cap_shape`` states which two
ends a cap joins and how the arcs merge, and leaves the crossings to its
caller.  ``glue_diagrams`` and ``_cap`` add colours, arc maps and the outer
region of a closed result.  Random growth in ``verify`` reads
``_glue_ends`` and ``_cap_shape`` on int edge ids.

Edge renaming (splicing, glueing) goes through ``Crossing.renamed`` and
strand reversal (``reverse_orientation``, ``mutate_tangle``) through
``_reversed``, which applies ``Crossing.reversed`` to the crossings and flips
the diagram's ``edge_dirs``, the flow of its crossingless strands.  A result
that keeps the input's boundary reads those flags off the input.

Each location rule is stated once.  ``_kink_slot``, ``_bigon`` and
``_triangle`` say where an RM1, RM2 or RM3 removal applies; the finders
(``find_kinks``, ``find_bigons``, ``find_triangles``) and the moves both ask
them.  A crossing an RM insertion adds is given by its strands, each
passage as its (incoming, outgoing) edges in flow order; a crossing a move
re-points is rebuilt from its four slots by ``Crossing.from_slots``.
Glueing reads each input arc's region off the glued diagram beside the end
edge that follows the arc.  A split diagram has no regions, so every region
query on it finds nothing.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagram import Crossing, TangleDiagram, TangleError


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


def _seeds_of(d: TangleDiagram) -> dict[str, str]:
    return {comp.edges[0]: comp.colour for comp in d.components if comp.edges}


def _rebuild(d: TangleDiagram, *, crossings=None, boundary=None, arcs=None,
             seeds=None, edge_dirs=None, outer_hint="keep", name=None,
             free_circles=None) -> TangleDiagram:
    return TangleDiagram(
        name if name is not None else d.name,
        d.crossings if crossings is None else crossings,
        d.boundary if boundary is None else boundary,
        d.arcs if arcs is None else arcs,
        _seeds_of(d) if seeds is None else seeds,
        d.outer_hint if outer_hint == "keep" else outer_hint,
        d.edge_dirs if edge_dirs is None else edge_dirs,
        d.free_circles if free_circles is None else free_circles,
    )


def _fresh_edge(d: TangleDiagram, taken: set[str]) -> str:
    i = len(d.edges) + len(taken) + 1
    while f"e{i}" in d._first_end or f"e{i}" in taken:
        i += 1
    taken.add(f"e{i}")
    return f"e{i}"


class Shape(NamedTuple):
    """What glueing and capping read and write: a diagram's name, crossings,
    boundary edges and arc labels, and ``incoming[k]``, the diagram's
    ``incoming`` at boundary end k.  Nothing in it is validated."""

    name: str
    crossings: tuple[Crossing, ...]
    boundary: tuple[str, ...]
    arcs: tuple[str, ...]
    incoming: tuple[bool, ...]


def shape_of(d: TangleDiagram) -> Shape:
    return Shape(d.name, d.crossings, d.boundary, d.arcs,
                 tuple(d.incoming[4 * len(d.crossings):]))


# ----------------------------------------------------------------------
# elementary symmetries

def mirror_diagram(d: TangleDiagram) -> TangleDiagram:
    """Swap over- and under-strand at every crossing; rotations are kept."""
    new = [Crossing(-c.sign, c.over, c.under) for c in d.crossings]
    return _rebuild(d, crossings=new, name=d.name + "_mirror")


def switch_crossing(d: TangleDiagram, ci: int) -> TangleDiagram:
    if not 0 <= ci < len(d.crossings):
        raise TangleError("E_BAD_LOCATION", f"no crossing {ci}")
    new = list(d.crossings)
    c = new[ci]
    new[ci] = Crossing(-c.sign, c.over, c.under)
    return _rebuild(d, crossings=new)


def _reversed(d: TangleDiagram, crossings, edges):
    """``crossings`` (edge ids of ``d``) and the direction flags of ``d``
    with every strand through ``edges`` flowing the other way."""
    new = [c.reversed(c.under[0] in edges, c.over[0] in edges) for c in crossings]
    return new, {e: flag != (e in edges) for e, flag in d.edge_dirs.items()}


def reverse_orientation(d: TangleDiagram, colours) -> TangleDiagram:
    """Reverse the flow of every component with a colour in ``colours``."""
    colours = {colours} if isinstance(colours, str) else set(colours)
    unknown = colours - set(d.colours())
    if unknown or not colours:
        raise TangleError("E_UNKNOWN_COLOUR", f"cannot reverse {sorted(unknown or {'nothing'})}")
    edges = {e for e, colour in d.colour_of_edge.items() if colour in colours}
    crossings, dirs = _reversed(d, d.crossings, edges)
    return _rebuild(d, crossings=crossings, edge_dirs=dirs, name=d.name + "_rev")


def recolour(d: TangleDiagram, mapping) -> TangleDiagram:
    """Rename strand colours; distinct components may be given one name."""
    seeds = {e: mapping.get(colour, colour) for e, colour in _seeds_of(d).items()}
    return _rebuild(d, seeds=seeds,
                    free_circles=tuple(mapping.get(c, c) for c in d.free_circles))


# ----------------------------------------------------------------------
# splice engine (shared by smoothing, deletion and the removing RM moves)

class _Splicer(UnionFind):
    """Merges edges (keeping the smallest id) and rebuilds the diagram."""

    def __init__(self, d: TangleDiagram):
        super().__init__()
        self.d = d
        self.dead: set[str] = set()   # edges dropped outright (loops, bigon sides)
        self.colour = dict(d.colour_of_edge)   # colour each edge carries into the result
        self.circles = list(d.free_circles)    # free circles kept in the result

    def rebuild(self, removed: set[int], name: str, boundary=None, arcs=None,
                outer_hint="keep") -> TangleDiagram:
        d = self.d
        find = self.find
        crossings = [c.renamed(find) for ci, c in enumerate(d.crossings) if ci not in removed]
        # direction flags for merged boundary-to-boundary edges (these only
        # arise in position-preserving rebuilds: smoothing or deletion can
        # reduce an open strand to a bare arc)
        dirs: dict[str, bool] = {}
        if boundary is None:
            boundary = tuple(find(e) for e in d.boundary)
            first: dict[str, int] = {}
            for k, e in enumerate(boundary):
                if e in first:
                    dirs[e] = not d.incoming[4 * len(d.crossings) + first[e]]
                else:
                    first[e] = k
        # surviving attachment count per representative
        attach: dict[str, int] = {}
        for c in crossings:
            for e in (*c.under, *c.over):
                attach[e] = attach.get(e, 0) + 1
        for e in boundary:
            attach[e] = attach.get(e, 0) + 1
        members: dict[str, set[str]] = {}
        for e in d.edges:
            if e not in self.dead:
                members.setdefault(find(e), set()).add(self.colour[e])
        circles = list(self.circles)
        seeds: dict[str, str] = {}
        for rep in sorted(members):
            colours = members[rep]
            if len(colours) != 1:
                raise TangleError("E_ORIENT", "splice would merge different colours")
            if attach.get(rep, 0) == 0:
                circles.append(colours.pop())
            else:
                seeds[rep] = colours.pop()
        return _rebuild(d, crossings=crossings, boundary=boundary, arcs=arcs, seeds=seeds,
                        edge_dirs=dirs, outer_hint=outer_hint, name=name,
                        free_circles=circles)

    def removal(self, removed: set[int], name: str, what: str) -> TangleDiagram:
        """``rebuild`` for a removing move: E_DISCONNECTS when the result is
        disconnected, or split where the diagram was not or the reverse."""
        try:
            out = self.rebuild(removed, name)
        except TangleError as ex:
            if ex.code == "E_DISCONNECTED":
                raise TangleError("E_DISCONNECTS",
                                  f"{what} removal leaves an invalid diagram") from ex
            raise
        if out.split != self.d.split:
            raise TangleError("E_DISCONNECTS", f"{what} removal disconnects the diagram")
        return out


def smooth_crossing(d: TangleDiagram, ci: int) -> TangleDiagram:
    """Oriented resolution of one crossing (in-ends joined to out-ends
    without crossing).  The two strands must carry the same colour."""
    if not 0 <= ci < len(d.crossings):
        raise TangleError("E_BAD_LOCATION", f"no crossing {ci}")
    c = d.crossings[ci]
    if d.colour_of_edge[c.under[0]] != d.colour_of_edge[c.over[0]]:
        raise TangleError("E_HYPOTHESIS", "smoothing merges strands of different colours")
    sp = _Splicer(d)
    sp.union(c.under[0], c.over[1])
    sp.union(c.over[0], c.under[1])
    return sp.rebuild({ci}, d.name + "_sm")


def delete_component(d: TangleDiagram, colour: str) -> TangleDiagram:
    """Remove a closed component, letting every other strand pass straight
    through its former crossings."""
    victims = [comp for comp in d.components if comp.colour == colour]
    if not victims:
        raise TangleError("E_UNKNOWN_COLOUR", f"no component coloured {colour!r}")
    if any(comp.kind != "closed" for comp in victims):
        raise TangleError("E_HYPOTHESIS", "only closed components can be deleted")
    dead_edges = {e for comp in victims for e in comp.edges}
    sp = _Splicer(d)
    sp.dead.update(dead_edges)
    removed = set()
    for ci, c in enumerate(d.crossings):
        u_dead = c.under[0] in dead_edges
        o_dead = c.over[0] in dead_edges
        if not (u_dead or o_dead):
            continue
        removed.add(ci)
        if u_dead and not o_dead:
            sp.union(c.over[0], c.over[1])
        elif o_dead and not u_dead:
            sp.union(c.under[0], c.under[1])
    sp.circles = [col for col in d.free_circles if col != colour]
    return sp.rebuild(removed, d.name + f"_minus_{colour}")


# ----------------------------------------------------------------------
# capping, closure, reopening

def _cap_shape(s: Shape, arc: str) -> tuple[Shape, str, str]:
    """Join the two boundary ends flanking ``arc`` by an arc inside its
    region: the arcs on both sides of ``arc`` merge, keeping the smaller
    label, and a boundary end of a joined edge takes the smaller id.
    Returns the capped shape and the edges at the two joined ends.  The
    crossings pass through as they are: the caller joins the two edges in
    them (``_cap`` by its ``_Splicer``, the random growth of ``verify`` on
    its edge ids)."""
    if arc not in s.arcs or not s.boundary:
        raise TangleError("E_BAD_LOCATION", f"no boundary arc {arc!r}")
    two_n = len(s.boundary)
    k = s.arcs.index(arc)
    e_prev, e_next = s.boundary[k - 1], s.boundary[k]   # ends before and after the arc
    if two_n == 2 and e_prev == e_next:
        raise TangleError("E_BAD_LOCATION", "capping a crossingless strand")
    if s.incoming[k - 1] == s.incoming[k]:
        raise TangleError("E_ORIENT", "cap would join two inward or two outward ends")
    low, high = min(e_prev, e_next), max(e_prev, e_next)
    join = lambda e: low if e == high else e
    keep = [i for i in range(two_n) if i not in ((k - 1) % two_n, k)]
    side_arcs = (s.arcs[k - 1], s.arcs[(k + 1) % two_n])
    merged = min(side_arcs)
    arcs = tuple(merged if s.arcs[i] in side_arcs else s.arcs[i] for i in keep)
    capped = Shape(s.name + "_cap", s.crossings,
                   tuple(join(s.boundary[i]) for i in keep), arcs or (merged,),
                   tuple(s.incoming[i] for i in keep))
    return capped, e_prev, e_next


def _cap(d: TangleDiagram, arc: str, name: Optional[str] = None) -> TangleDiagram:
    """``_cap_shape`` on a diagram.  The region of ``arc`` becomes closed; the
    two joined strands become one, of the smaller colour.  Closing the last
    pair of ends makes the merged region the outer one."""
    capped, e_prev, e_next = _cap_shape(shape_of(d), arc)
    col1 = d.colour_of_edge[e_prev]
    col2 = d.colour_of_edge[e_next]
    sp = _Splicer(d)
    if col1 != col2:
        # the two strands become one; identify their colours
        for comp in d.components:
            if e_prev in comp.edges or e_next in comp.edges:
                sp.colour.update(dict.fromkeys(comp.edges, min(col1, col2)))
    sp.union(e_prev, e_next)
    outer_hint = d.outer_hint
    if not capped.boundary:
        # remember the outer region through an edge side, preferring a kept edge id
        sides = [(e, side) for e in sorted(d.edges) for side in ("R", "L")
                 if d.region_beside(e, side) == capped.arcs[0]]
        if not sides:
            raise TangleError("E_BAD_LOCATION", "cannot identify the outer region")
        e, side = next((es for es in sides if sp.find(es[0]) == es[0]), sides[0])
        outer_hint = (sp.find(e), side)
    return sp.rebuild(set(), name or capped.name, boundary=capped.boundary,
                      arcs=capped.arcs, outer_hint=outer_hint)


def close_tangle(d: TangleDiagram, at: Optional[str] = None) -> TangleDiagram:
    """Close a 2-ended tangle to a link diagram, or a 4-ended tangle to a
    2-ended one, by joining the ends flanking the named arc."""
    if d.n_open == 1:
        arc = at if at is not None else min(d.arcs)
    elif d.n_open == 2:
        if at is None:
            raise TangleError("E_BAD_LOCATION", "closing a 4-ended tangle needs an arc")
        arc = at
    else:
        raise TangleError("E_ARITY", f"cannot close a {2 * d.n_open}-ended tangle")
    return _cap(d, arc, name=d.name + f"_closed_{arc}")


def reopen(d: TangleDiagram) -> TangleDiagram:
    """Cut the least edge on the outer region of a closed (0-ended)
    diagram, producing a 2-ended tangle."""
    if d.boundary or d.split:
        raise TangleError("E_BAD_LOCATION", "reopen expects a closed connected diagram")
    choices = [(e, side) for e in d.edges for side in ("L", "R")
               if d.region_beside(e, side) == d.arcs[0]]
    if not choices:
        raise TangleError("E_BAD_LOCATION", "no edge borders the outer region")
    e, side = choices[0]
    e_new = _fresh_edge(d, set())
    # tail piece keeps the id `e` and exits the disc; the head piece enters.
    # A closed diagram has no boundary, so the head sits at a crossing.
    crossings, _ = _replace_head_occurrence(d.crossings, d.boundary, d, e, e_new)
    return _rebuild(d, crossings=crossings, boundary=(e_new, e) if side == "L" else (e, e_new),
                    arcs=("a", "b"), edge_dirs={}, outer_hint=None, name=d.name + "_open")


# ----------------------------------------------------------------------
# glueing

class GlueRecord(NamedTuple):
    diagram: TangleDiagram
    arc_map_1: dict[str, str]    # old arc label -> region id of the result
    arc_map_2: dict[str, str]
    iota_1: dict[str, str]       # old colour -> new colour
    iota_2: dict[str, str]


def _arc_labels(n: int) -> list[str]:
    base = "abcdefghijklmnopqrstuvwxyz"
    return [base[i % 26] + (str(i // 26 + 1) if i >= 26 else "") for i in range(n)]


def _glue_ends(incoming1, incoming2, start1: int, start2: int, count: int):
    """The ends a glue joins and keeps, given ``incoming`` at the ends of
    both sides: the paired positions ``(p1, p2)``, ends ``start1,
    start1+1, ...`` of side 1 against ``start2, start2-1, ...`` of side 2,
    and the kept positions of each side, in the glued boundary's order.
    None when a pair would join two inward or two outward ends."""
    n1, n2 = len(incoming1), len(incoming2)
    for t in range(count):
        if incoming1[(start1 + t) % n1] == incoming2[(start2 - t) % n2]:
            return None
    pairs = [((start1 + t) % n1, (start2 - t) % n2) for t in range(count)]
    return (pairs, [(start1 + count + t) % n1 for t in range(n1 - count)],
            [(start2 + 1 + t) % n2 for t in range(n2 - count)])


def _glue_shapes(s1: Shape, s2: Shape, start1: int, start2: int, count: int):
    """The shape of ``glue_diagrams``, the paired end positions ``(p1, p2)``,
    and the maps naming an edge of s1 or of s2 in the glued shape."""
    n1, n2 = len(s1.boundary), len(s2.boundary)
    if not (1 <= count <= min(n1, n2)):
        raise TangleError("E_ARITY", f"cannot glue {count} ends of {n1} and {n2}")
    if count == n1 and count == n2:
        raise TangleError("E_ARITY", "glueing away every end; use close_tangle instead")
    if not (0 <= start1 < n1 and 0 <= start2 < n2):
        raise TangleError("E_BAD_LOCATION", f"no end {start1} of {n1} or no end {start2} of {n2}")
    plan = _glue_ends(s1.incoming, s2.incoming, start1, start2, count)
    if plan is None:
        raise TangleError("E_ORIENT", "glued ends must join an outgoing to an incoming strand")
    pairs, keep1, keep2 = plan
    # prefix s2's edges so that no renamed id meets one of s1's
    taken, edges2 = ({e for c in s.crossings for e in (*c.under, *c.over)}.union(s.boundary)
                     for s in (s1, s2))
    prefix = "g_"
    while any(prefix + e in taken for e in edges2):
        prefix = "g" + prefix
    # union-find on the combined edge set; find2 names an s2 edge in the result
    edges = UnionFind()
    find = edges.find
    for p1, p2 in pairs:
        edges.union(s1.boundary[p1], prefix + s2.boundary[p2])

    def find2(e: str) -> str:
        return find(prefix + e)

    boundary = (*(find(s1.boundary[i]) for i in keep1), *(find2(s2.boundary[i]) for i in keep2))
    glued = Shape(f"{s1.name}+{s2.name}",
                  (*(c.renamed(find) for c in s1.crossings),
                   *(c.renamed(find2) for c in s2.crossings)),
                  boundary, tuple(_arc_labels(len(boundary))),
                  (*(s1.incoming[i] for i in keep1), *(s2.incoming[i] for i in keep2)))
    return glued, pairs, find, find2


def glue_diagrams(d1: TangleDiagram, d2: TangleDiagram,
                  start1: int, start2: int, count: int) -> GlueRecord:
    """Glue boundary ends ``start1 .. start1+count-1`` of d1 (ccw) to ends
    ``start2, start2-1, ...`` of d2 (cw), identifying strands end to end;
    ``E_BAD_LOCATION`` unless each start is an end of its diagram.

    Arc labels of the result are assigned fresh, counterclockwise from the
    first surviving d1 end; the returned record maps each input arc to the
    region of the result it became part of, and each input colour to the
    colour it was identified with.
    """
    s, pairs, find, find2 = _glue_shapes(shape_of(d1), shape_of(d2), start1, start2, count)

    # identified strands: component-level union-find over both inputs
    def comp_at(d, p):
        return d._comp_of_tail[d.flow_ends(d.boundary[p])[0]]
    strands = UnionFind()
    for p1, p2 in pairs:
        strands.union((1, comp_at(d1, p1)), (2, comp_at(d2, p2)))
    # each class of strands takes the colour of its first member, made unique
    firsts: dict[tuple[int, int], tuple] = {}
    for which, d, mapper in ((1, d1, find), (2, d2, find2)):
        for idx, comp in enumerate(d.components):
            if comp.edges:
                firsts.setdefault(strands.find((which, idx)), (comp, mapper))
    seeds: dict[str, str] = {}
    class_colour: dict[tuple[int, int], str] = {}
    for root in sorted(firsts):
        comp, mapper = firsts[root]
        colour, k = comp.colour, 2
        while colour in class_colour.values():
            colour, k = f"{comp.colour}_{k}", k + 1
        class_colour[root] = colour
        seeds[mapper(comp.edges[0])] = colour

    glued = TangleDiagram(s.name, s.crossings, s.boundary, s.arcs, seeds,
                          free_circles=d1.free_circles + d2.free_circles)

    # arc k precedes end k counterclockwise, so it lies right of a strand
    # leaving the disc there and left of one entering
    def arc_map(d, mapper):
        m4 = 4 * len(d.crossings)
        return {a: glued.region_beside(mapper(e), "R" if d.incoming[m4 + k] else "L")
                for k, (a, e) in enumerate(zip(d.arcs, d.boundary))}

    iotas: tuple[dict[str, str], dict[str, str]] = ({}, {})
    for which, d, iota in ((1, d1, iotas[0]), (2, d2, iotas[1])):
        for idx, comp in enumerate(d.components):
            if not comp.edges:
                iota.setdefault(comp.colour, comp.colour)
                continue
            new_colour = class_colour[strands.find((which, idx))]
            if iota.setdefault(comp.colour, new_colour) != new_colour:
                raise TangleError("E_ORIENT",
                                  f"colour {comp.colour!r} maps two ways under glueing")
    return GlueRecord(glued, arc_map(d1, find), arc_map(d2, find2), *iotas)


# ----------------------------------------------------------------------
# mutation

# the boundary position each position takes its end from
_AXES = {"x": (3, 2, 1, 0), "y": (1, 0, 3, 2), "z": (2, 3, 0, 1)}


def mutate_tangle(d: TangleDiagram, axis: str) -> TangleDiagram:
    """Rotate a 4-ended tangle by pi about the named axis (x horizontal,
    y vertical, z through the viewing direction); arc labels stay attached
    to their boundary positions.  If the rotation lands the strand ends on
    positions with the opposite in/out pattern, every component is reversed.
    """
    if axis not in _AXES:
        raise TangleError("E_BAD_LOCATION", f"axis must be one of {tuple(_AXES)}")
    if len(d.boundary) != 4:
        raise TangleError("E_NOT_FOURENDED", "mutation needs a 4-ended diagram")
    old_pattern = tuple(not d.incoming[4 * len(d.crossings) + k] for k in range(4))
    perm = _AXES[axis]
    boundary = tuple(d.boundary[p] for p in perm)
    # reflections (x, y) compose with an over/under swap at every crossing
    crossings = (d.crossings if axis == "z"
                 else tuple(Crossing(c.sign, c.over, c.under) for c in d.crossings))
    new_pattern = tuple(old_pattern[perm[k]] for k in range(4))
    name, dirs = d.name + f"_mut{axis}", None
    if new_pattern == tuple(not p for p in old_pattern):
        crossings, dirs = _reversed(d, crossings, set(d.edges))
        name += "_rev"
    elif new_pattern != old_pattern:
        raise TangleError("E_ORIENT", "mutation cannot match the boundary orientations")
    return _rebuild(d, crossings=crossings, boundary=boundary, edge_dirs=dirs, name=name)


# ----------------------------------------------------------------------
# Reidemeister moves

def _replace_head_occurrence(crossings, boundary, d, edge, new_id):
    """Re-point the head-side occurrence of ``edge`` to a new edge id."""
    _, head = d.flow_ends(edge)
    ci, s = divmod(head, 4)
    crossings = list(crossings)
    boundary = list(boundary)
    if ci >= len(d.crossings):
        boundary[head - 4 * len(d.crossings)] = new_id
    else:
        slots = list(crossings[ci].slots())
        slots[s] = new_id
        crossings[ci] = Crossing.from_slots(crossings[ci].sign, slots)
    return crossings, boundary


def rm1_insert(d: TangleDiagram, edge: str, side: str, sign: int) -> TangleDiagram:
    """Insert a kink on an edge; ``side`` ('L'/'R' of the flow) places the
    loop, ``sign`` picks the new crossing's sign."""
    if edge not in d._first_end or side not in ("L", "R") or sign not in (1, -1):
        raise TangleError("E_BAD_LOCATION", f"bad kink location {edge!r}/{side}/{sign}")
    taken: set[str] = set()
    k2 = _fresh_edge(d, taken)
    k3 = _fresh_edge(d, taken)
    # the strand passes the crossing twice: edge -> loop k2, then k2 -> k3;
    # the first passage is over when the loop's side agrees with the sign
    if (sign > 0) == (side == "R"):
        c = Crossing(sign, (k2, k3), (edge, k2))
    else:
        c = Crossing(sign, (edge, k2), (k2, k3))
    crossings, boundary = _replace_head_occurrence(d.crossings, d.boundary, d, edge, k3)
    crossings.append(c)
    return _rebuild(d, crossings=crossings, boundary=boundary, name=d.name + "_rm1")


def _kink_slot(d: TangleDiagram, ci) -> Optional[int]:
    """The first slot s of crossing ``ci`` whose edge also takes slot s + 1
    (a removable kink), or None."""
    if ci not in range(len(d.crossings)):
        return None
    slots = d.crossings[ci].slots()
    return next((s for s in range(4) if slots[s] == slots[(s + 1) % 4]), None)


def find_kinks(d: TangleDiagram) -> list[int]:
    """Crossings carrying a removable kink (an edge on two adjacent slots)."""
    return [ci for ci in range(len(d.crossings)) if _kink_slot(d, ci) is not None]


def rm1_remove(d: TangleDiagram, ci: int) -> TangleDiagram:
    s = _kink_slot(d, ci)
    if s is None:
        raise TangleError("E_BAD_LOCATION", f"crossing {ci} carries no kink")
    slots = d.crossings[ci].slots()
    a, b = slots[(s + 2) % 4], slots[(s + 3) % 4]
    if a == b:
        raise TangleError("E_DISCONNECTS", "removing the kink leaves a bare circle")
    sp = _Splicer(d)
    sp.dead.add(slots[s])
    sp.union(a, b)
    return sp.removal({ci}, d.name + "_rm1r", "kink")


def rm2_insert(d: TangleDiagram, edge1: str, side1: str, edge2: str, side2: str,
               first_over: bool = True) -> TangleDiagram:
    """Push edge1 across edge2; both named sides must face a common region
    (a split diagram has none)."""
    f1 = d.region_beside(edge1, side1)
    f2 = d.region_beside(edge2, side2)
    if edge1 == edge2 or f1 is None or f1 != f2:
        raise TangleError("E_BAD_LOCATION", "edges do not face a common region")
    taken: set[str] = set()
    a2, a3 = _fresh_edge(d, taken), _fresh_edge(d, taken)
    b2, b3 = _fresh_edge(d, taken), _fresh_edge(d, taken)
    # strand 1 passes the new crossings as edge1 -> a2 -> a3, strand 2 as
    # edge2 -> b2 -> b3; (x1, y1) and (x2, y2) are their passages at x and y
    x1, y1 = ((a2, a3), (edge1, a2)) if side1 == "R" else ((edge1, a2), (a2, a3))
    x2, y2 = ((edge2, b2), (b2, b3)) if side2 == "R" else ((b2, b3), (edge2, b2))
    sign = 1 if (side1 == side2) == first_over else -1
    if first_over:
        cx, cy = Crossing(sign, x2, x1), Crossing(-sign, y2, y1)
    else:
        cx, cy = Crossing(sign, x1, x2), Crossing(-sign, y1, y2)
    crossings, boundary = _replace_head_occurrence(d.crossings, d.boundary, d, edge1, a3)
    crossings, boundary = _replace_head_occurrence(crossings, boundary,
                                                   d, edge2, b3)
    crossings.extend([cx, cy])
    return _rebuild(d, crossings=crossings, boundary=boundary, name=d.name + "_rm2")


def _bigon(d: TangleDiagram, r) -> Optional[tuple[int, int, str, str]]:
    """``(c1, c2, e1, e2)`` when region ``r`` is a bigon an RM2 move removes:
    closed, with corners at two crossings c1 and c2, two distinct sides e1
    (leaving c1's corner) and e2 (leaving c2's), and e1 over or under at
    both crossings.  Otherwise None."""
    if r is None or r.kind != "closed" or len(r.corners) != 2:
        return None
    (c1, q1), (c2, q2) = r.corners
    slots1, slots2 = d.crossings[c1].slots(), d.crossings[c2].slots()
    e1, e2 = slots1[(q1 + 1) % 4], slots2[(q2 + 1) % 4]
    if c1 == c2 or e1 == e2 or e1 not in slots2:
        return None
    # odd slots belong to the over strand
    if slots1.index(e1) % 2 != slots2.index(e1) % 2:
        return None
    return c1, c2, e1, e2


def find_bigons(d: TangleDiagram) -> list[str]:
    """Closed regions removable by an RM2 move."""
    return [r.rid for r in d.regions if _bigon(d, r) is not None]


def rm2_remove(d: TangleDiagram, region: str) -> TangleDiagram:
    bigon = _bigon(d, d.region(region))
    if bigon is None:
        raise TangleError("E_BAD_LOCATION", f"region {region!r} is not a removable bigon")
    c1, c2, e1, e2 = bigon
    sp = _Splicer(d)
    sp.dead.update((e1, e2))
    for g in (e1, e2):
        # join the outer edges of strand g at both crossings
        outs = [slots[(slots.index(g) + 2) % 4]
                for slots in (d.crossings[c1].slots(), d.crossings[c2].slots())]
        sp.union(*outs)
    return sp.removal({c1, c2}, d.name + "_rm2r", "bigon")


def _triangle(d: TangleDiagram, r) -> Optional[list[str]]:
    """The sides of region ``r``, each leaving a corner, in corner order,
    when ``r`` admits a slide move: closed, with three corners at distinct
    crossings, three distinct sides, and strands that stack (the over/under
    relations at the corners form no cycle).  Otherwise None."""
    if r is None or r.kind != "closed" or len(r.corners) != 3:
        return None
    if len({c for c, _ in r.corners}) != 3:
        return None
    slots = [d.crossings[c].slots() for c, _ in r.corners]
    edges = [s[(q + 1) % 4] for s, (_, q) in zip(slots, r.corners)]
    if len(set(edges)) != 3:
        return None
    beats = set()
    for s, (_, q) in zip(slots, r.corners):
        arrive, depart = s[q], s[(q + 1) % 4]
        if arrive not in edges:
            return None
        # (over, under): odd slots belong to the over strand
        beats.add((arrive, depart) if q % 2 else (depart, arrive))
    e0, e1, e2 = edges
    if ({(e0, e1), (e1, e2), (e2, e0)} <= beats or
            {(e1, e0), (e2, e1), (e0, e2)} <= beats):
        return None
    return edges


def find_triangles(d: TangleDiagram) -> list[str]:
    """Closed triangular regions admitting a slide move (transitive stacking)."""
    return [r.rid for r in d.regions if _triangle(d, r) is not None]


def rm3(d: TangleDiagram, region: str) -> TangleDiagram:
    """Slide move across a triangular region: each of the three strands
    passes its two crossings in the opposite order afterwards."""
    r = d.region(region)
    tri_edges = _triangle(d, r)
    if tri_edges is None:
        raise TangleError("E_BAD_LOCATION", f"region {region!r} admits no slide move")
    new_slots = {ci: list(d.crossings[ci].slots()) for ci, _ in r.corners}
    for f in tri_edges:
        tail, head = d.flow_ends(f)
        ci, p_out = divmod(tail, 4)
        cj, q_in = divmod(head, 4)
        p_in = (p_out + 2) % 4
        q_out = (q_in + 2) % 4
        P = d.crossings[ci].slots()[p_in]
        Q = d.crossings[cj].slots()[q_out]
        new_slots[ci][p_in] = f
        new_slots[ci][p_out] = Q
        new_slots[cj][q_in] = P
        new_slots[cj][q_out] = f
    crossings = list(d.crossings)
    for ci, slots in new_slots.items():
        crossings[ci] = Crossing.from_slots(d.crossings[ci].sign, slots)
    return _rebuild(d, crossings=crossings, name=d.name + "_rm3")


def apply_rm_move(d: TangleDiagram, move: str, location) -> TangleDiagram:
    """Dispatch a Reidemeister move; ``location`` is move-specific:

    RM1_insert: (edge, side, sign); RM1_remove: crossing index;
    RM2_insert: (edge1, side1, edge2, side2, first_over);
    RM2_remove / RM3: region id.
    """
    if move == "RM1_insert":
        return rm1_insert(d, *location)
    if move == "RM1_remove":
        return rm1_remove(d, location)
    if move == "RM2_insert":
        return rm2_insert(d, *location)
    if move == "RM2_remove":
        return rm2_remove(d, location)
    if move == "RM3":
        return rm3(d, location)
    raise TangleError("E_BAD_LOCATION", f"unknown move {move!r}")
