"""Diagram-level transformations: mirror, orientation reversal, glueing,
closure, mutation, Reidemeister moves and the small surgeries (crossing
switch, oriented smoothing, closed-component deletion) that the property
checks are built from.

All operations are pure, and each builds its result with exactly one
validated TangleDiagram construction and no intermediate diagram:
``glue_diagrams`` builds its own; every other transform goes through
``_rebuild``, the splicing ones (smoothing, deletion, capping and closure,
kink and bigon removal) by way of ``_Splicer.rebuild`` after merging edges.

Edge renaming (splicing, glueing) goes through ``Crossing.renamed`` and
strand reversal (``reverse_orientation``, ``mutate_tangle``) through
``_reversed``, which applies ``Crossing.reversed`` to the crossings and flips
the diagram's ``edge_dirs``, the flow of its crossingless strands.  A result
that keeps the input's boundary reads those flags off the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import Crossing, TangleDiagram, TangleError, UnionFind


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
    while f"e{i}" in d._occ or f"e{i}" in taken:
        i += 1
    taken.add(f"e{i}")
    return f"e{i}"


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

def _cap(d: TangleDiagram, arc: str, name: Optional[str] = None) -> TangleDiagram:
    """Join the two boundary ends flanking ``arc`` by an arc inside its
    region.  The region of ``arc`` becomes closed; its two neighbouring arcs
    merge (keeping the lexicographically smaller label)."""
    if arc not in d.arcs or not d.boundary:
        raise TangleError("E_BAD_LOCATION", f"no boundary arc {arc!r}")
    two_n = len(d.boundary)
    k = d.arcs.index(arc)
    m = len(d.crossings)
    e_prev = d.boundary[(k - 1) % two_n]   # end before the arc
    e_next = d.boundary[k]                 # end after the arc
    in_prev = d.incoming[4 * m + (k - 1) % two_n]
    in_next = d.incoming[4 * m + k]
    if two_n == 2 and e_prev == e_next:
        raise TangleError("E_BAD_LOCATION", "capping a crossingless strand")
    if in_prev == in_next:
        raise TangleError("E_ORIENT", "cap would join two inward or two outward ends")
    col1 = d.colour_of_edge[e_prev]
    col2 = d.colour_of_edge[e_next]
    sp = _Splicer(d)
    if col1 != col2:
        # the two strands become one; identify their colours
        for comp in d.components:
            if e_prev in comp.edges or e_next in comp.edges:
                sp.colour.update(dict.fromkeys(comp.edges, min(col1, col2)))
    sp.union(e_prev, e_next)
    keep_positions = [i for i in range(two_n) if i not in ((k - 1) % two_n, k)]
    new_boundary = tuple(sp.find(d.boundary[i]) for i in keep_positions)
    # merge the arcs on both sides of the capped one
    label_prev = d.arcs[(k - 1) % two_n]
    label_next = d.arcs[(k + 1) % two_n]
    merged = min(label_prev, label_next)
    new_arcs = []
    for i in keep_positions:
        lab = d.arcs[i]
        new_arcs.append(merged if lab in (label_prev, label_next) else lab)
    outer_hint = d.outer_hint
    if not new_boundary:
        # closing the last pair of ends: the merged region becomes the outer
        # one; remember it through an edge side, preferring a kept edge id
        other_arc = label_prev if label_prev != arc else label_next
        sides = [(e, side) for e in sorted(d.edges) for side in ("R", "L")
                 if d.region_beside(e, side) == other_arc]
        if not sides:
            raise TangleError("E_BAD_LOCATION", "cannot identify the outer region")
        e, side = next((es for es in sides if sp.find(es[0]) == es[0]), sides[0])
        outer_hint = (sp.find(e), side)
        new_arcs = [merged]
    return sp.rebuild(set(), name or (d.name + "_cap"),
                      boundary=new_boundary, arcs=new_arcs, outer_hint=outer_hint)


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


def reopen(d: TangleDiagram, edge: Optional[str] = None) -> TangleDiagram:
    """Cut one strand of a closed (0-ended) diagram next to the outer
    region, producing a 2-ended tangle."""
    if d.boundary or d.split:
        raise TangleError("E_BAD_LOCATION", "reopen expects a closed connected diagram")
    outer = d.arcs[0]
    choices = []
    for e in sorted(d.edges):
        for side in ("L", "R"):
            if d.region_beside(e, side) == outer:
                choices.append((e, side))
    if edge is not None:
        choices = [c for c in choices if c[0] == edge]
    if not choices:
        raise TangleError("E_BAD_LOCATION", "edge does not border the outer region")
    e, side = choices[0]
    e_new = _fresh_edge(d, set())
    # tail piece keeps the id `e` and exits the disc; the head piece enters.
    # A closed diagram has no boundary, so the head sits at a crossing.
    crossings, _ = _replace_head_occurrence(d.crossings, d.boundary, d, e, e_new)
    seeds = _seeds_of(d)
    seeds[e_new] = d.colour_of_edge[e]
    return _rebuild(d, crossings=crossings, boundary=(e_new, e) if side == "L" else (e, e_new),
                    arcs=("a", "b"), seeds=seeds, edge_dirs={}, outer_hint=None,
                    name=d.name + "_open")


# ----------------------------------------------------------------------
# glueing

@dataclass
class GlueRecord:
    diagram: TangleDiagram
    arc_map_1: dict[str, str]    # old arc label -> region id of the result
    arc_map_2: dict[str, str]
    iota_1: dict[str, str]       # old colour -> new colour
    iota_2: dict[str, str]


def _arc_labels(n: int) -> list[str]:
    base = "abcdefghijklmnopqrstuvwxyz"
    out = []
    i = 0
    while len(out) < n:
        out.append(base[i % 26] if i < 26 else base[i % 26] + str(i // 26 + 1))
        i += 1
    return out


def glue_diagrams(d1: TangleDiagram, d2: TangleDiagram,
                  start1: int, start2: int, count: int) -> GlueRecord:
    """Glue boundary ends ``start1 .. start1+count-1`` of d1 (ccw) to ends
    ``start2, start2-1, ...`` of d2 (cw), identifying strands end to end.

    Arc labels of the result are assigned fresh, counterclockwise from the
    first surviving d1 end; the returned record maps each input arc to the
    region of the result it became part of, and each input colour to the
    colour it was identified with.
    """
    n1, n2 = len(d1.boundary), len(d2.boundary)
    if not (1 <= count <= min(n1, n2)):
        raise TangleError("E_ARITY", f"cannot glue {count} ends of {n1} and {n2}")
    if count == n1 and count == n2:
        raise TangleError("E_ARITY", "glueing away every end; use close_tangle instead")
    m1 = len(d1.crossings)
    m2 = len(d2.crossings)
    # prefix d2's edges so that no renamed id meets one of d1's
    prefix = "g_"
    while any(prefix + e in d1._occ for e in d2.edges):
        prefix = "g" + prefix
    ren2 = {e: prefix + e for e in d2.edges}

    pairs = []
    for t in range(count):
        p1 = (start1 + t) % n1
        p2 = (start2 - t) % n2
        if d1.incoming[4 * m1 + p1] == d2.incoming[4 * m2 + p2]:
            raise TangleError("E_ORIENT", "glued ends must join an outgoing to an incoming strand")
        pairs.append((p1, p2))

    # union-find on the combined edge set; find2 names a d2 edge in the result
    edges = UnionFind()
    find = edges.find
    for p1, p2 in pairs:
        edges.union(d1.boundary[p1], ren2[d2.boundary[p2]])

    def find2(e: str) -> str:
        return find(ren2[e])

    keep1 = [(start1 + count + t) % n1 for t in range(n1 - count)]
    keep2 = [(start2 + 1 + t) % n2 for t in range(n2 - count)]
    boundary = [find(d1.boundary[i]) for i in keep1]
    boundary += [find2(d2.boundary[i]) for i in keep2]

    # arc bookkeeping: group old arcs into the arcs/regions of the result
    arc_sets = UnionFind()
    # seam-interior arc pairs (become regions of the result)
    for t in range(1, count):
        arc_sets.union((1, d1.arcs[(start1 + t) % n1]), (2, d2.arcs[(start2 - t + 1) % n2]))
    # the two seam-end merges (stay on the boundary)
    arc_sets.union((1, d1.arcs[(start1 + count) % n1]), (2, d2.arcs[(start2 - count + 1) % n2]))
    arc_sets.union((2, d2.arcs[(start2 + 1) % n2]), (1, d1.arcs[start1 % n1]))

    new_labels = _arc_labels(len(boundary))
    # which result arc does each kept position carry
    arcs_by_class: dict[tuple, str] = {}
    for idx, i in enumerate(keep1):
        arcs_by_class[arc_sets.find((1, d1.arcs[i]))] = new_labels[idx]
    for idx, i in enumerate(keep2):
        arcs_by_class[arc_sets.find((2, d2.arcs[i]))] = new_labels[len(keep1) + idx]

    crossings = ([c.renamed(find) for c in d1.crossings]
                 + [c.renamed(find2) for c in d2.crossings])

    # identified strands: component-level union-find over both inputs
    comp_of_edge: dict[str, tuple[int, int]] = {}
    for which, d in ((1, d1), (2, d2)):
        for idx, comp in enumerate(d.components):
            for e in comp.edges:
                comp_of_edge[e if which == 1 else ren2[e]] = (which, idx)
    strands = UnionFind()
    for p1, p2 in pairs:
        strands.union(comp_of_edge[d1.boundary[p1]], comp_of_edge[ren2[d2.boundary[p2]]])

    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for which, d in ((1, d1), (2, d2)):
        for idx, comp in enumerate(d.components):
            if comp.edges:
                classes.setdefault(strands.find((which, idx)), []).append((which, idx))
    def _comp(key):
        which, idx = key
        return (d1 if which == 1 else d2).components[idx]
    name_taken: set[str] = set()
    seeds: dict[str, str] = {}
    class_colour: dict[tuple[int, int], str] = {}
    for root in sorted(classes):
        members = classes[root]
        base = _comp(members[0]).colour
        colour, k = base, 2
        while colour in name_taken:
            colour = f"{base}_{k}"
            k += 1
        name_taken.add(colour)
        class_colour[root] = colour
        which, idx = members[0]
        e0 = _comp(members[0]).edges[0]
        seeds[find(e0) if which == 1 else find2(e0)] = colour

    glued = TangleDiagram(f"{d1.name}+{d2.name}", crossings, tuple(boundary),
                          tuple(new_labels), seeds,
                          free_circles=d1.free_circles + d2.free_circles)

    # resolve where every old arc ended up
    def region_of_old_arc(d, which, arc):
        cls = arc_sets.find((which, arc))
        if cls in arcs_by_class:
            return arcs_by_class[cls]
        # interior: identify through an edge side bounding the old region
        mapper = find if which == 1 else find2
        for e in sorted(d.edges):
            for side in ("R", "L"):
                if d.region_beside(e, side) == arc:
                    return glued.region_beside(mapper(e), side)
        raise TangleError("E_BAD_LOCATION", f"cannot locate old arc {arc!r}")

    arc_map_1 = {a: region_of_old_arc(d1, 1, a) for a in d1.arcs}
    arc_map_2 = {a: region_of_old_arc(d2, 2, a) for a in d2.arcs}
    iota_1: dict[str, str] = {}
    iota_2: dict[str, str] = {}
    for which, d, iota in ((1, d1, iota_1), (2, d2, iota_2)):
        for idx, comp in enumerate(d.components):
            if not comp.edges:
                iota.setdefault(comp.colour, comp.colour)
                continue
            new_colour = class_colour[strands.find((which, idx))]
            if iota.setdefault(comp.colour, new_colour) != new_colour:
                raise TangleError("E_ORIENT",
                                  f"colour {comp.colour!r} maps two ways under glueing")
    return GlueRecord(glued, arc_map_1, arc_map_2, iota_1, iota_2)


# ----------------------------------------------------------------------
# mutation

_AXES = ("x", "y", "z")


def mutate_tangle(d: TangleDiagram, axis: str) -> TangleDiagram:
    """Rotate a 4-ended tangle by pi about the named axis (x horizontal,
    y vertical, z through the viewing direction); arc labels stay attached
    to their boundary positions.  If the rotation lands the strand ends on
    positions with the opposite in/out pattern, every component is reversed.
    """
    if axis not in _AXES:
        raise TangleError("E_BAD_LOCATION", f"axis must be one of {_AXES}")
    if len(d.boundary) != 4:
        raise TangleError("E_NOT_FOURENDED", "mutation needs a 4-ended diagram")
    old_pattern = tuple(not d.incoming[4 * len(d.crossings) + k] for k in range(4))

    if axis == "z":
        boundary = (d.boundary[2], d.boundary[3], d.boundary[0], d.boundary[1])
        crossings = d.crossings
        perm = (2, 3, 0, 1)
    else:
        # reflections compose with an over/under swap at every crossing
        crossings = tuple(Crossing(c.sign, c.over, c.under) for c in d.crossings)
        if axis == "y":
            boundary = (d.boundary[1], d.boundary[0], d.boundary[3], d.boundary[2])
            perm = (1, 0, 3, 2)
        else:
            boundary = (d.boundary[3], d.boundary[2], d.boundary[1], d.boundary[0])
            perm = (3, 2, 1, 0)
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

def _crossing_from_rays(ends, over_tag: str) -> Crossing:
    """Build a crossing from four (angle, edge, strand_tag, incoming) rays.

    The rays are sorted counterclockwise; strand tags pick the over strand.
    """
    tags = {tag for _, _, tag, _ in ends}
    under_tag = (tags - {over_tag}).pop()
    ccw = sorted(ends)
    u_in = next(i for i, (_, _, tag, inc) in enumerate(ccw) if tag == under_tag and inc)
    slots = [ccw[(u_in + k) % 4] for k in range(4)]
    assert slots[2][2] == under_tag and not slots[2][3]
    o_in = 3 if slots[3][3] else 1
    sign = 1 if o_in == 3 else -1
    under = (slots[0][1], slots[2][1])
    over = (slots[o_in][1], slots[(o_in + 2) % 4][1])
    c = Crossing(sign, under, over)
    assert c.slots() == tuple(s[1] for s in slots)
    return c


def _replace_head_occurrence(crossings, boundary, d, edge, new_id):
    """Re-point the head-side occurrence of ``edge`` to a new edge id."""
    tail, head = d.flow_ends(edge)
    at = d.attach_of_end(head)
    crossings = list(crossings)
    boundary = list(boundary)
    if at[0] == "b":
        boundary[at[1]] = new_id
    else:
        _, ci, s = at
        c = crossings[ci]
        strand, is_in = c.role_of_slot(s)
        if strand == "under":
            pair = list(c.under)
            pair[0 if is_in else 1] = new_id
            crossings[ci] = Crossing(c.sign, tuple(pair), c.over)
        else:
            pair = list(c.over)
            pair[0 if is_in else 1] = new_id
            crossings[ci] = Crossing(c.sign, c.under, tuple(pair))
    return crossings, boundary


def rm1_insert(d: TangleDiagram, edge: str, side: str, sign: int) -> TangleDiagram:
    """Insert a kink on an edge; ``side`` ('L'/'R' of the flow) places the
    loop, ``sign`` picks the new crossing's sign."""
    if edge not in d._occ or side not in ("L", "R") or sign not in (1, -1):
        raise TangleError("E_BAD_LOCATION", f"bad kink location {edge!r}/{side}/{sign}")
    taken: set[str] = set()
    k2 = _fresh_edge(d, taken)
    k3 = _fresh_edge(d, taken)
    over_first = (sign > 0) == (side == "R")
    # passage 1: edge -> loop (k2); passage 2: k2 -> k3
    if side == "R":
        rays = [(270.0, edge, "P1", True), (45.0, k2, "P1", False),
                (315.0, k2, "P2", True), (135.0, k3, "P2", False)]
    else:
        rays = [(270.0, edge, "P1", True), (135.0, k2, "P1", False),
                (225.0, k2, "P2", True), (45.0, k3, "P2", False)]
    c = _crossing_from_rays(rays, "P1" if over_first else "P2")
    assert c.sign == sign
    crossings, boundary = _replace_head_occurrence(d.crossings, d.boundary, d, edge, k3)
    crossings.append(c)
    seeds = _seeds_of(d)
    seeds.setdefault(edge, d.colour_of_edge[edge])
    return _rebuild(d, crossings=crossings, boundary=boundary, seeds=seeds,
                    name=d.name + "_rm1")


def find_kinks(d: TangleDiagram) -> list[int]:
    """Crossings carrying a removable kink (an edge on two adjacent slots)."""
    out = []
    for ci, c in enumerate(d.crossings):
        slots = c.slots()
        if any(slots[s] == slots[(s + 1) % 4] for s in range(4)):
            out.append(ci)
    return out


def rm1_remove(d: TangleDiagram, ci: int) -> TangleDiagram:
    if ci not in find_kinks(d):
        raise TangleError("E_BAD_LOCATION", f"crossing {ci} carries no kink")
    c = d.crossings[ci]
    slots = c.slots()
    s = next(s for s in range(4) if slots[s] == slots[(s + 1) % 4])
    a, b = slots[(s + 2) % 4], slots[(s + 3) % 4]
    if a == b:
        raise TangleError("E_DISCONNECTS", "removing the kink leaves a bare circle")
    sp = _Splicer(d)
    sp.dead.add(slots[s])
    sp.union(a, b)
    try:
        out = sp.rebuild({ci}, d.name + "_rm1r")
    except TangleError as ex:
        if ex.code == "E_DISCONNECTED":
            raise TangleError("E_DISCONNECTS",
                              "kink removal leaves an invalid diagram") from ex
        raise
    if out.split != d.split:
        raise TangleError("E_DISCONNECTS", "kink removal disconnects the diagram")
    return out


def rm2_insert(d: TangleDiagram, edge1: str, side1: str, edge2: str, side2: str,
               first_over: bool = True) -> TangleDiagram:
    """Push edge1 across edge2; both named sides must face a common region."""
    if d.split:
        raise TangleError("E_BAD_LOCATION", "no moves on split diagrams")
    f1 = d.region_beside(edge1, side1)
    f2 = d.region_beside(edge2, side2)
    if edge1 == edge2 or f1 is None or f1 != f2:
        raise TangleError("E_BAD_LOCATION", "edges do not face a common region")
    taken: set[str] = set()
    a2, a3 = _fresh_edge(d, taken), _fresh_edge(d, taken)
    b2, b3 = _fresh_edge(d, taken), _fresh_edge(d, taken)
    e1_up = side1 == "R"     # local model: E1 on the left, flowing up if 'R'
    e2_down = side2 == "R"   # E2 on the right, flowing down if 'R'
    # pieces: edge1 keeps its id on the tail side; a2 = finger tip, a3 = rest
    #         edge2 keeps its id on the tail side; b2 = middle, b3 = rest
    if e1_up:
        a_south, a_north = edge1, a3
    else:
        a_south, a_north = a3, edge1
    if e2_down:
        b_north, b_south = edge2, b3
    else:
        b_north, b_south = b3, edge2
    x_rays = [(0.0, a2, "A", e1_up), (180.0, a_north, "A", not e1_up),
              (90.0, b_north, "B", e2_down), (270.0, b2, "B", not e2_down)]
    y_rays = [(0.0, a2, "A", not e1_up), (180.0, a_south, "A", e1_up),
              (90.0, b2, "B", e2_down), (270.0, b_south, "B", not e2_down)]
    over = "A" if first_over else "B"
    cx = _crossing_from_rays(x_rays, over)
    cy = _crossing_from_rays(y_rays, over)
    crossings, boundary = _replace_head_occurrence(d.crossings, d.boundary, d, edge1, a3)
    crossings, boundary = _replace_head_occurrence(crossings, boundary,
                                                   d, edge2, b3)
    crossings.extend([cx, cy])
    seeds = _seeds_of(d)
    seeds.setdefault(edge1, d.colour_of_edge[edge1])
    seeds.setdefault(edge2, d.colour_of_edge[edge2])
    return _rebuild(d, crossings=crossings, boundary=boundary, seeds=seeds,
                    name=d.name + "_rm2")


def find_bigons(d: TangleDiagram) -> list[str]:
    """Closed regions removable by an RM2 move."""
    out = []
    for r in d.regions:
        if r.kind != "closed" or len(r.corners) != 2:
            continue
        (c1, q1), (c2, q2) = r.corners
        if c1 == c2:
            continue
        e1 = d.crossings[c1].slots()[(q1 + 1) % 4]
        e2 = d.crossings[c2].slots()[(q2 + 1) % 4]
        if e1 == e2:
            continue
        # one strand must be over at both crossings
        over1 = d.crossings[c1].slots().index(e1) in (1, 3)
        # e1 runs from c1's corner to c2; which slot does it take there?
        s_at_c2 = [s for s in range(4) if d.crossings[c2].slots()[s] == e1]
        if not s_at_c2:
            continue
        over1b = s_at_c2[0] in (1, 3)
        if over1 == over1b:
            out.append(r.rid)
    return out


def rm2_remove(d: TangleDiagram, region: str) -> TangleDiagram:
    if region not in find_bigons(d):
        raise TangleError("E_BAD_LOCATION", f"region {region!r} is not a removable bigon")
    r = d.region(region)
    (c1, q1), (c2, q2) = r.corners
    e1 = d.crossings[c1].slots()[(q1 + 1) % 4]
    e2 = d.crossings[c2].slots()[(q2 + 1) % 4]
    sp = _Splicer(d)
    sp.dead.update((e1, e2))
    for g in (e1, e2):
        # outer edges of strand g at both crossings
        outs = []
        for ci in (c1, c2):
            slots = d.crossings[ci].slots()
            s = slots.index(g)
            outs.append(slots[(s + 2) % 4])
        sp.union(outs[0], outs[1])
    try:
        out = sp.rebuild({c1, c2}, d.name + "_rm2r")
    except TangleError as ex:
        if ex.code == "E_DISCONNECTED":
            raise TangleError("E_DISCONNECTS",
                              "bigon removal leaves an invalid diagram") from ex
        raise
    if out.split and not d.split:
        raise TangleError("E_DISCONNECTS", "bigon removal disconnects the diagram")
    return out


def find_triangles(d: TangleDiagram) -> list[str]:
    """Closed triangular regions admitting a slide move (transitive stacking)."""
    out = []
    for r in d.regions:
        if r.kind != "closed" or len(r.corners) != 3:
            continue
        cis = [c for c, _ in r.corners]
        if len(set(cis)) != 3:
            continue
        edges = [d.crossings[c].slots()[(q + 1) % 4] for c, q in r.corners]
        if len(set(edges)) != 3:
            continue
        # over/under relations between the three strands must be acyclic
        beats = set()
        for c, q in r.corners:
            slots = d.crossings[c].slots()
            arrive = slots[q]
            depart = slots[(q + 1) % 4]
            if arrive not in edges:
                break
            hi = arrive if slots.index(arrive) in (1, 3) else depart
            lo = depart if hi == arrive else arrive
            beats.add((hi, lo))
        else:
            e0, e1, e2 = edges
            cyclic = ({(e0, e1), (e1, e2), (e2, e0)} <= beats or
                      {(e1, e0), (e2, e1), (e0, e2)} <= beats)
            if not cyclic:
                out.append(r.rid)
    return out


def rm3(d: TangleDiagram, region: str) -> TangleDiagram:
    """Slide move across a triangular region: each of the three strands
    passes its two crossings in the opposite order afterwards."""
    if region not in find_triangles(d):
        raise TangleError("E_BAD_LOCATION", f"region {region!r} admits no slide move")
    r = d.region(region)
    tri_edges = []
    for c, q in r.corners:
        e = d.crossings[c].slots()[(q + 1) % 4]
        if e not in tri_edges:
            tri_edges.append(e)

    new_slots = {ci: list(d.crossings[ci].slots()) for ci, _ in r.corners}
    for f in tri_edges:
        tail, head = d.flow_ends(f)
        _, ci, p_out = d.attach_of_end(tail)
        _, cj, q_in = d.attach_of_end(head)
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
        c = d.crossings[ci]
        under = (slots[0], slots[2])
        oi = c.over_in_slot
        over = (slots[oi], slots[(oi + 2) % 4])
        crossings[ci] = Crossing(c.sign, under, over)
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
