"""Independent reference computations used by the test suite.

These deliberately avoid the quadrant table (``TangleDiagram.quadrants``)
and the state search: states are checked against a raw 4^m filter, their
codes are derived afresh from the slot roles of each crossing, and the
empty-site polynomial of 2-ended tangles is checked against a
crossing-switch resolution that only knows the skein identity, descending
diagrams and split detection.  The right-hand side of the glueing formula
is summed by a scan of every site pair per target site.

One oracle sits between brute force and the frontier pass of ``nabla``:
``state_sum_nabla_hat`` enumerates the states with the index-order walk
and sums the quadrant codes of each one, grouping the states by site.

``canonicalize``, ``canonical_form`` and ``isomorphic`` compare diagrams up
to relabelling of edges and crossings, for the transform tests.
"""

from itertools import product
from typing import Optional

from tanglenabla import transform as tr
from tanglenabla.diagram import Site, TangleDiagram, TangleError, serialize
from tanglenabla.laurent import H, LaurentPoly, binomial
from tanglenabla.states import enumerate_states, site_of, state_codes


def _region_tables(d: TangleDiagram):
    """(kind of each region, region of each (crossing, quadrant) corner),
    both read off ``d.regions`` and not off the quadrant table."""
    kind = {r.rid: r.kind for r in d.regions}
    region_at = {corner: r.rid for r in d.regions for corner in r.corners}
    return kind, region_at


def _defect_test(d: TangleDiagram):
    """``state_defect`` for ``d``, with its region tables built once."""
    kind, region_at = _region_tables(d)

    def defect(markers) -> Optional[str]:
        counts: dict[str, int] = {}
        for corner in enumerate(markers):
            rid = region_at[corner]
            counts[rid] = counts.get(rid, 0) + 1
        for r, k in kind.items():
            c = counts.get(r, 0)
            if k == "closed" and c != 1:
                return f"closed region {r} holds {c} markers"
            if k != "closed" and c > 1:
                return f"{k} region {r} holds {c} markers"
        n_open_markers = sum(c for r, c in counts.items() if kind[r] == "open")
        if n_open_markers != d.n_open - 1:
            return f"{n_open_markers} open markers, expected {d.n_open - 1}"
        return None
    return defect


def state_defect(d: TangleDiagram, markers) -> Optional[str]:
    """Why a marker assignment is not a state, or None if it is one: every
    closed region holds exactly one marker, every other region at most one,
    and n-1 markers sit in open regions."""
    return _defect_test(d)(markers)


def brute_force_states(d: TangleDiagram) -> list[tuple[int, ...]]:
    """All marker assignments passing the occupancy constraints, from the
    full 4^m enumeration."""
    if d.split:
        return []
    defect = _defect_test(d)
    return [markers for markers in product(range(4), repeat=len(d.crossings))
            if defect(markers) is None]


def brute_force_site(d: TangleDiagram, markers) -> Site:
    """The open regions (named by their arcs) that the markers occupy."""
    kind, region_at = _region_tables(d)
    regions = (region_at[corner] for corner in enumerate(markers))
    return Site(frozenset(r for r in regions if kind[r] == "open"))


def _corner_codes(d: TangleDiagram, ci: int, q: int) -> tuple[dict[str, int], int, int]:
    """(doubled colour exponents, doubled h exponent, doubled delta) of
    quadrant q at crossing ci, read off the slot roles: q lies right of a
    strand when it sits between the strand's incoming slot and the next
    two slots counterclockwise."""
    c = d.crossings[ci]
    slots = c.slots()
    exp: dict[str, int] = {}
    for strand, right_sign in (("under", 1), ("over", -1)):
        s_in = next(s for s in range(4) if c.role_of_slot(s) == (strand, True))
        colour = d.colour_of_edge[slots[s_in]]
        right = q in (s_in, (s_in + 1) % 4)
        exp[colour] = exp.get(colour, 0) + (right_sign if right else -right_sign)
    ends_in = (c.role_of_slot(q)[1], c.role_of_slot((q + 1) % 4)[1])
    h2 = -2 * c.sign if ends_in == (True, True) else 0
    delta2 = c.sign if ends_in[0] == ends_in[1] else 0
    return exp, h2, delta2


def brute_force_nabla_hat(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    """The hatted state sum per site over the brute-force states.

    A colour whose code at one crossing is 0 (the halves of a self-crossing
    cancelling) is not registered there, so the variable table lists the
    colours in the order their non-zero codes first appear."""
    out = {s: LaurentPoly.zero() for s in d.sites()}
    for markers in brute_force_states(d):
        exp: dict[str, int] = {}
        for ci, q in enumerate(markers):
            codes, h2, _ = _corner_codes(d, ci, q)
            for v, e in (*codes.items(), ("h", h2)):
                if e:
                    exp[v] = exp.get(v, 0) + e
        site = brute_force_site(d, markers)
        out[site] = out[site] + LaurentPoly.monomial(1, {v: e for v, e in exp.items() if e})
    return out


def state_sum(d: TangleDiagram, states: list[tuple[int, ...]]) -> LaurentPoly:
    """The sum of the state monomials, one per state in the given order; a
    colour whose exponent sums to 0 over a state is left out of that
    state's monomial."""
    monomials = []
    for x in states:
        exp2, h2, _ = state_codes(d, x)
        pairs = [(v, e) for v, e in exp2.items() if e]
        if h2:
            pairs.append((H, h2))
        monomials.append((1, pairs))
    return LaurentPoly.sum(monomials)


def state_sum_nabla_hat(d: TangleDiagram, s: Optional[Site] = None):
    """The hatted state sum per site over the enumerated states, grouped by
    ``site_of``; with a site ``s``, the value at s over ``enumerate_states(d, s)``."""
    if s is not None:
        return state_sum(d, enumerate_states(d, s))
    by_site: dict[Site, list[tuple[int, ...]]] = {t: [] for t in d.sites()}
    for x in enumerate_states(d):
        by_site[site_of(d, x)].append(x)
    return {t: state_sum(d, states) for t, states in by_site.items()}


def brute_force_gradings(d: TangleDiagram) -> list[tuple]:
    """Sorted (markers, decoration bits, alexander2, delta2) over all
    generators: the brute-force states, one bit per closed component."""
    closed = [c.colour for c in d.components if c.kind == "closed"]
    out = []
    for markers in brute_force_states(d):
        a2 = {c: 0 for c in d.colours()}
        delta2 = 0
        for ci, q in enumerate(markers):
            codes, _, dd = _corner_codes(d, ci, q)
            for v, e in codes.items():
                a2[v] += e
            delta2 += dd
        for bits in product((0, 1), repeat=len(closed)):
            a2_bits = dict(a2)
            for colour, bit in zip(closed, bits):
                a2_bits[colour] += 4 * bit
            out.append((markers, bits, tuple(sorted(a2_bits.items())), delta2))
    return sorted(out)


def rescan_euler(gens, s: Site) -> LaurentPoly:
    """The graded Euler characteristic at s as a running LaurentPoly sum of
    (-1)^h times the Alexander monomial, rescanning every generator."""
    acc = LaurentPoly.zero()
    for g in gens:
        if g.site == s:
            coef = -1 if g.h % 2 else 1
            acc = acc + LaurentPoly.monomial(coef, {v: e for v, e in g.alexander2 if e})
    return acc


def glueing_sums(rec: tr.GlueRecord, hats_1: dict, hats_2: dict) -> dict[Site, LaurentPoly]:
    """The right-hand side of the glueing formula per site of the glued
    diagram, scanning
    every (s1, s2) site pair once per target site: a pair counts at s when
    its image regions are distinct, cover every closed region on the seam
    and, besides those, are exactly the open regions of s."""
    T = rec.diagram
    hats_1 = {s: p.rename(rec.iota_1) for s, p in hats_1.items()}
    hats_2 = {s: p.rename(rec.iota_2) for s, p in hats_2.items()}
    kind = {r.rid: r.kind for r in T.regions}
    seam_closed = {rid for rid in list(rec.arc_map_1.values()) +
                   list(rec.arc_map_2.values()) if kind.get(rid) == "closed"}
    out = {}
    for s in T.sites():
        total = LaurentPoly.zero()
        for s1_ in hats_1:
            img1 = [rec.arc_map_1[a] for a in s1_.arcs]
            for s2_ in hats_2:
                img2 = [rec.arc_map_2[a] for a in s2_.arcs]
                occ = img1 + img2
                if len(set(occ)) != len(occ):
                    continue
                occ_set = set(occ)
                if seam_closed - occ_set:
                    continue
                open_occ = {r for r in occ_set if kind.get(r) == "open"}
                if open_occ != set(s.arcs):
                    continue
                if occ_set - seam_closed - open_occ:
                    continue
                total = total + hats_1[s1_] * hats_2[s2_]
        out[s] = total
    return out


def _first_ascending_crossing(d: TangleDiagram):
    """Index of the first crossing met as an under-pass on the canonical
    walk (open strand from its inward end, then closed strands), or None
    for a descending diagram."""
    visited: set[int] = set()
    order = sorted(d.components, key=lambda c: (c.kind != "open", c.edges))
    for comp in order:
        for e in comp.edges:
            _, head = d.flow_ends(e)
            ci, slot = divmod(head, 4)
            if ci >= len(d.crossings) or ci in visited:
                continue
            visited.add(ci)
            if slot == 0:   # first passage is the under-strand
                return ci
    return None


def _simplified(d: TangleDiagram):
    """Greedy kink/bigon removal; None means the tangle fell apart (so the
    empty-site polynomial vanishes)."""
    while True:
        kinks = tr.find_kinks(d)
        if kinks:
            try:
                d = tr.rm1_remove(d, kinks[0])
                continue
            except TangleError:
                return None
        bigons = tr.find_bigons(d)
        if bigons:
            try:
                d = tr.rm2_remove(d, bigons[0])
                continue
            except TangleError:
                return None
        return d


def conway_skein(d: TangleDiagram, depth: int = 60) -> LaurentPoly:
    """The single-variable empty-site polynomial of a 2-ended tangle,
    computed purely by skein resolution in the variable t."""
    if depth < 0:
        raise RuntimeError("skein resolution did not terminate")
    if d.n_open != 1:
        raise ValueError("the skein resolver works on 2-ended tangles")
    d = tr.recolour(d, {c: "t" for c in d.colours()})
    if d.split:
        return LaurentPoly.zero()
    d2 = _simplified(d)
    if d2 is None:
        return LaurentPoly.zero()
    d = d2
    if d.split:
        return LaurentPoly.zero()
    if not d.crossings:
        return LaurentPoly.integer(1) if len(d.components) == 1 else LaurentPoly.zero()
    ci = _first_ascending_crossing(d)
    if ci is None:
        # descending: an unknot, or an unlink (hence split) otherwise
        return LaurentPoly.integer(1) if len(d.components) == 1 else LaurentPoly.zero()
    switched = tr.switch_crossing(d, ci)
    smoothed = tr.smooth_crossing(d, ci)
    sm_val = conway_skein(smoothed, depth - 1)
    sw_val = conway_skein(switched, depth - 1)
    t = binomial("t")
    if d.crossings[ci].sign > 0:
        return sw_val + t * sm_val
    return sw_val - t * sm_val


def canonicalize(d: TangleDiagram) -> TangleDiagram:
    """Relabel edges and reorder crossings by a breadth-first traversal.

    The traversal starts at boundary position 0 (or at the outer hint for a
    closed diagram) and explores crossing slots counterclockwise from the
    slot of first discovery, so the result depends only on the isomorphism
    class rel boundary.
    """
    if d.split:
        return d
    order: dict[int, int] = {}
    entry_slot: dict[int, int] = {}
    edge_new: dict[str, str] = {}
    queue: list[int] = []

    def visit_edge(e: str):
        if e not in edge_new:
            edge_new[e] = f"e{len(edge_new) + 1}"

    m4 = 4 * len(d.crossings)

    def discover(end: int):
        ci, s = divmod(end, 4)
        if end < m4 and ci not in order:
            order[ci] = len(order)
            entry_slot[ci] = s
            queue.append(ci)

    starts = list(d.boundary) if d.boundary else [d.outer_hint[0]]
    for e in starts:
        visit_edge(e)
        for end in d._occ[e]:
            discover(end)
    qi = 0
    while qi < len(queue):
        ci = queue[qi]
        qi += 1
        slots = d.crossings[ci].slots()
        for off in range(4):
            s = (entry_slot[ci] + off) % 4
            e = slots[s]
            visit_edge(e)
            for end in d._occ[e]:
                discover(end)

    ren = edge_new.__getitem__
    new_crossings = [d.crossings[ci].renamed(ren)
                     for ci in sorted(range(len(d.crossings)), key=order.__getitem__)]
    new_boundary = tuple(ren(e) for e in d.boundary)
    seeds = {}
    for comp in d.components:
        seeds[min(ren(e) for e in comp.edges)] = comp.colour
    hint = None
    if d.outer_hint:
        hint = (ren(d.outer_hint[0]), d.outer_hint[1])
    dirs = {ren(e): flag for e, flag in d.edge_dirs.items()}
    return TangleDiagram(d.name, new_crossings, new_boundary, d.arcs, seeds, hint, dirs)


def canonical_form(d: TangleDiagram) -> str:
    text = serialize(canonicalize(d))
    lines = text.splitlines()
    return "\n".join(["tangle _"] + lines[1:]) + "\n"


def isomorphic(d1: TangleDiagram, d2: TangleDiagram) -> bool:
    """Equality up to relabelling of edges/crossings (arc labels fixed)."""
    return canonical_form(d1) == canonical_form(d2)
