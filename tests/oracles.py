"""Independent reference computations used by the test suite.

These deliberately avoid the corner ints and their rule
(``TangleDiagram.corners``, ``diagram.CORNER_RULE``) and the state search:
states are checked against a raw 4^m filter and their sites read off the
regions' corner lists (``brute_force_site``), their codes are derived
afresh from the slot roles of each crossing, and the
empty-site polynomial of 2-ended tangles is checked against a
crossing-switch resolution that only knows the skein identity, descending
diagrams and split detection.  The right-hand side of the glueing formula
is summed by a scan of every site pair per target site; ``add_all`` sums a
list of polynomials in one pass with the table of their ``+`` fold,
``pack`` packs a polynomial as ``nabla.packed_family`` packs a family, and
``packed_at_h`` takes a hatted packed map to h = -1 term by term, as
``packed_family`` did before its pass summed the signed counts.
``CHECKS`` holds the catalogue checks as they ran on polynomials, before
they compared packed families, with ``substitute``, the specialization
they were written with.  ``rescan_euler``, ``gradings_output`` and
``poincare_table`` work from a generator list: the graded Euler
characteristic as a running sum over it, the ``gradings`` command's stdout
as the sorted list written by ``json.dumps`` or line by line, and the
grouped generator table as a count of its generators.

Two oracles sit between brute force and the fast paths: they enumerate the
states with ``enumerate_states`` and sum the slot-role codes of each one
(``state_codes``).  ``state_sum_nabla_hat`` groups the states by site, for
the frontier pass of ``nabla``; ``rescan_generators`` lists the generators
state by state with ``brute_force_site``, for the packed keys of
``gradings``.

``canonicalize``, ``canonical_form`` and ``isomorphic`` compare diagrams up
to relabelling of edges and crossings, for the transform tests.

``trace_faces`` and ``corner_ints`` are the construction's face tracer and
corner table as they were before it traced on the edge ends alone: an
explicit rotation system with two darts per boundary arc, region names per
dart, and corners looked up by region name.

``random_diagram`` is the seeded generator that builds every piece, glue
and cap as a validated diagram; ``verify.random_diagram`` must make the
same rng draws and return the same diagrams.  ``random_knot_tangle``
builds whole diagrams on it and drops those with a closed strand, where
``verify.random_knot_tangle`` drops their shapes unbuilt.
"""

import json
import random
from collections import Counter
from itertools import product
from typing import Optional

from tanglenabla import transform as tr
from tanglenabla import verify as vf
from tanglenabla.diagram import (Crossing, Region, Site, TangleDiagram, TangleError,
                                 linking_number, serialize)
from tanglenabla.gradings import GradedGenerator, generator_gradings
from tanglenabla.laurent import H, LaurentError, LaurentPoly, _order_vars, binomial
from tanglenabla.nabla import nabla_all, nabla_hat_all
from tanglenabla.states import enumerate_states


def _role_of_slot(c: Crossing, s: int) -> tuple[str, bool]:
    """(strand, incoming) for slot s of crossing c, strand 'under' or 'over'."""
    if s == 0:
        return "under", True
    if s == 2:
        return "under", False
    return "over", s == (3 if c.sign > 0 else 1)


def trace_faces(d: TangleDiagram):
    """(regions, open region names, region name of each edge end) of a
    diagram that is not split, by orbit-tracing its rotation system: the
    edge ends plus a start and an end dart per boundary arc, with sigma
    turning counterclockwise and alpha crossing an edge or an arc.  The
    face of a dart lies on the right when leaving it along its edge."""
    m = len(d.crossings)
    two_n = len(d.boundary)
    n_str = d.n_ends
    # arc k's start dart is n_str + 2k, its end dart n_str + 2k + 1
    total = n_str + 2 * two_n
    sigma = [0] * total
    alpha = list(d.alpha) + [0] * (2 * two_n)
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
        x = d0
        while face_of[x] < 0:
            face_of[x] = len(faces)
            orbit.append(x)
            x = sigma[alpha[x]]
        faces.append(orbit)
    assert (m + two_n if two_n else m) - len(d.edges) - two_n + len(faces) == 2

    if two_n:
        exterior = face_of[n_str]
    else:
        edge, side = d.outer_hint
        tail, head = d.flow_ends(edge)
        exterior = face_of[tail if side == "R" else head]
    open_faces: dict[int, list[str]] = {}
    for k, label in enumerate(d.arcs if two_n else ()):
        open_faces.setdefault(face_of[n_str + 2 * k + 1], []).append(label)
    if two_n:
        assert exterior not in open_faces
        assert all(len(labels) == 1 for labels in open_faces.values())
    else:
        open_faces = {exterior: [d.arcs[0]]}

    corners: dict[int, list[tuple[int, int]]] = {}
    for ci in range(m):
        for q in range(4):
            corners.setdefault(face_of[4 * ci + (q + 1) % 4], []).append((ci, q))
    closed_faces = [fi for fi in range(len(faces))
                    if fi not in open_faces and (not two_n or fi != exterior)]
    closed_faces.sort(key=lambda fi: min(corners.get(fi, [(m, 4)])))
    named: dict[int, str] = {}
    regions = []
    for fi, labels in sorted(open_faces.items(), key=lambda kv: kv[1][0]):
        named[fi] = labels[0]
        regions.append(Region(labels[0], "open" if two_n else "outer",
                              tuple(sorted(corners.get(fi, []))), tuple(labels)))
    for idx, fi in enumerate(closed_faces):
        named[fi] = f"r{idx}"
        regions.append(Region(f"r{idx}", "closed", tuple(sorted(corners.get(fi, []))), ()))
    return (tuple(sorted(regions, key=lambda r: r.rid)),
            frozenset(r.rid for r in regions if r.kind == "open"),
            [named.get(fi) for fi in face_of[:n_str]])


def corner_ints(d: TangleDiagram) -> tuple[tuple[int, ...], ...]:
    """``TangleDiagram.corners`` from colour names and region names: the
    colours of each crossing's incoming edges, and the region of each
    quadrant from ``trace_faces`` (-1 on a split diagram)."""
    colour = {c: k for k, c in enumerate(d.colours())}
    of_edge = d.colour_of_edge
    if d.split:
        region = [-1] * d.n_ends
    else:
        regions, _, region_of_dart = trace_faces(d)
        index = {r.rid: k for k, r in enumerate(regions)}
        region = [index.get(rid, -1) for rid in region_of_dart]
    return tuple([(c.sign, colour[of_edge[c.under[0]]], colour[of_edge[c.over[0]]],
                   region[4 * ci + 1], region[4 * ci + 2], region[4 * ci + 3],
                   region[4 * ci]) for ci, c in enumerate(d.crossings)])


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


def _site_reader(d: TangleDiagram):
    """``brute_force_site`` for ``d``, with its region tables built once."""
    kind, region_at = _region_tables(d)

    def site(markers) -> Site:
        regions = (region_at[corner] for corner in enumerate(markers))
        return Site(frozenset(r for r in regions if kind[r] == "open"))
    return site


def brute_force_site(d: TangleDiagram, markers) -> Site:
    """The open regions (named by their arcs) that the markers occupy."""
    return _site_reader(d)(markers)


def _corner_codes(d: TangleDiagram, ci: int, q: int) -> tuple[dict[str, int], int, int]:
    """(doubled colour exponents, doubled h exponent, doubled delta) of
    quadrant q at crossing ci, read off the slot roles: q lies right of a
    strand when it sits between the strand's incoming slot and the next
    two slots counterclockwise."""
    c = d.crossings[ci]
    slots = c.slots()
    exp: dict[str, int] = {}
    for strand, right_sign in (("under", 1), ("over", -1)):
        s_in = next(s for s in range(4) if _role_of_slot(c, s) == (strand, True))
        colour = d.colour_of_edge[slots[s_in]]
        right = q in (s_in, (s_in + 1) % 4)
        exp[colour] = exp.get(colour, 0) + (right_sign if right else -right_sign)
    ends_in = (_role_of_slot(c, q)[1], _role_of_slot(c, (q + 1) % 4)[1])
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


def _state_coder(d: TangleDiagram):
    """``state_codes`` for ``d``, with the codes of its corners built once."""
    table = [[_corner_codes(d, ci, q) for q in range(4)] for ci in range(len(d.crossings))]

    def codes_of(x: tuple[int, ...]) -> tuple[dict[str, int], int, int]:
        exp2: dict[str, int] = {}
        h2 = delta2 = 0
        for row, q in zip(table, x):
            codes, ch2, cdelta2 = row[q]
            for v, e in codes.items():
                if e:
                    exp2[v] = exp2.get(v, 0) + e
            h2 += ch2
            delta2 += cdelta2
        return exp2, h2, delta2
    return codes_of


def state_codes(d: TangleDiagram, x: tuple[int, ...]) -> tuple[dict[str, int], int, int]:
    """The corner codes of ``_corner_codes`` summed over x: the doubled
    colour exponents (in first-appearance order: crossing order, the under
    colour before the over colour, and a self-crossing's colour only where
    its two halves do not cancel), the doubled h exponent and the doubled
    delta grading."""
    return _state_coder(d)(x)


def state_sum(d: TangleDiagram, states: list[tuple[int, ...]]) -> LaurentPoly:
    """The sum of the state monomials, one per state in the given order; a
    colour whose exponent sums to 0 over a state is left out of that
    state's monomial."""
    codes_of = _state_coder(d)
    monomials = []
    for x in states:
        exp2, h2, _ = codes_of(x)
        pairs = [(v, e) for v, e in exp2.items() if e]
        if h2:
            pairs.append((H, h2))
        monomials.append((1, pairs))
    return LaurentPoly.sum(monomials)


def state_sum_nabla_hat(d: TangleDiagram, s: Optional[Site] = None):
    """The hatted state sum per site over the enumerated states, grouped by
    ``brute_force_site``; with a site ``s``, the value at s over
    ``enumerate_states(d, s)``."""
    if s is not None:
        return state_sum(d, enumerate_states(d, s))
    site = _site_reader(d)
    by_site: dict[Site, list[tuple[int, ...]]] = {t: [] for t in d.sites()}
    for x in enumerate_states(d):
        by_site[site(x)].append(x)
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


def rescan_generators(d: TangleDiagram) -> list[GradedGenerator]:
    """The generators in generator order (states in lex order, decorations
    in ``product`` order), each state's gradings re-summed from its corners
    by ``state_codes`` and its site taken by ``brute_force_site``."""
    colours = sorted(d.colours())
    closed = [c.colour for c in d.components if c.kind == "closed"]
    codes_of, site = _state_coder(d), _site_reader(d)
    out = []
    for x in enumerate_states(d):
        exp2, _, delta2 = codes_of(x)
        s = site(x)
        for bits in product((0, 1), repeat=len(closed)):
            a2 = {c: exp2.get(c, 0) for c in colours}
            for colour, bit in zip(closed, bits):
                a2[colour] += 4 * bit
            total = sum(a2.values()) - 2 * delta2
            if total % 4:
                raise TangleError("E_GRADING", "homological grading is not integral")
            out.append(GradedGenerator(x, bits, tuple(a2.items()), delta2, total // 4, s))
    return out


def rescan_euler(gens, s: Site) -> LaurentPoly:
    """The graded Euler characteristic at s as a running LaurentPoly sum of
    (-1)^h times the Alexander monomial, rescanning every generator."""
    acc = LaurentPoly.zero()
    for g in gens:
        if g.site == s:
            coef = -1 if g.h % 2 else 1
            acc = acc + LaurentPoly.monomial(coef, {v: e for v, e in g.alexander2 if e})
    return acc


def gradings_output(name: str, gens, fmt: str = "text") -> str:
    """The stdout of ``gradings`` on a diagram named ``name`` with the
    generators ``gens``: sorted by (site as text, Alexander vector, delta,
    decoration bits), then ``json.dumps(indent=2, sort_keys=True)`` or one
    text line per generator."""
    gens = sorted(gens, key=lambda g: (str(g.site), g.alexander2, g.delta2, g.ladybug_bits))
    if fmt == "json":
        payload = {"diagram": name, "generators": [
            {"site": sorted(g.site.arcs), "alexander2": dict(g.alexander2),
             "delta2": g.delta2, "h": g.h, "ladybug_bits": list(g.ladybug_bits),
             "markers": list(g.markers)} for g in gens]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = []
    for g in gens:
        a = " ".join(f"{v}^{e / 2:+g}" for v, e in g.alexander2)
        bits = "".join(map(str, g.ladybug_bits)) or "-"
        lines.append(f"site {g.site}  {a}  delta^{g.delta2 / 2:+g}  h={g.h}  bits={bits}")
    return "\n".join(lines) + "\n"


def poincare_table(d: TangleDiagram, s: Optional[Site] = None):
    """The rows of ``gradings.poincare_table``: the generators of
    ``generator_gradings`` counted by (site, Alexander vector, delta, h)."""
    rows = Counter((str(g.site), g.alexander2, g.delta2, g.h)
                   for g in generator_gradings(d) if s is None or g.site == s)
    return [{"site": site, "alexander": {v: e / 2 for v, e in a2}, "delta": d2 / 2,
             "h": h, "count": count} for (site, a2, d2, h), count in sorted(rows.items())]


def add_all(polys: list[LaurentPoly]) -> LaurentPoly:
    """The sum of ``polys`` in one pass, with the variable table that a
    left-to-right ``+`` fold from zero gives."""
    vs = _order_vars(v for p in polys for v in p.vars)
    acc: dict[tuple[int, ...], int] = {}
    for p in polys:
        for e, c in p._aligned_to(vs).items():
            acc[e] = acc.get(e, 0) + c
    return LaurentPoly._canonical(vs, {e: c for e, c in acc.items() if c})


def pack(p: LaurentPoly, digit: dict[str, int]) -> dict[int, int]:
    """The terms of p as ``nabla.packed_family`` packs them: one int a term,
    h on 20-bit digit 0 and colour v on digit ``digit[v]``, exponents that
    share a digit added and zero coefficients dropped.  A value at h = -1
    has no h, so its digit 0 is empty, as in ``packed_family(..., True)``."""
    weights = [1 << 20 * (0 if v == H else digit[v]) for v in p.vars]
    out: dict[int, int] = {}
    for e, c in p.terms.items():
        k = sum(x * w for x, w in zip(e, weights))
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def packed_at_h(terms: dict[int, int]) -> dict[int, int]:
    """A hatted packed map (h on 20-bit digit 0) at h = -1: a term's sign is
    bit 1 of its h digit, that digit is zeroed (every colour keeps its
    digit) and terms that cancel go."""
    acc: dict[int, int] = {}
    for e, c in terms.items():
        k = e + (1 << 19) >> 20 << 20
        acc[k] = acc.get(k, 0) + (-c if e & 2 else c)
    return {k: c for k, c in acc.items() if c}


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
        for end in sorted(d.flow_ends(e)):
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
            for end in sorted(d.flow_ends(e)):
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


# ----------------------------------------------------------------------
# the seeded generator, one validated diagram per step

def _fresh_piece(rng: random.Random, idx: int) -> TangleDiagram:
    """A random one-crossing tangle with fresh edge ids: a crossing of random
    sign whose under strand u and over strand o are each reversed at random,
    as ``reverse_orientation`` would (then named ``piece<idx>_rev``)."""
    e = [f"p{idx}_{k}" for k in range(4)]
    c = Crossing(rng.choice((1, -1)), (e[0], e[1]), (e[2], e[3]))
    colours = rng.choice((set(), {"u"}, {"o"}, {"u", "o"}))
    return TangleDiagram(f"piece{idx}_rev" if colours else f"piece{idx}",
                         [c.reversed("u" in colours, "o" in colours)], c.slots(),
                         ("a", "b", "c", "d"), {e[0]: "u", e[2]: "o"})


def random_diagram(rng: random.Random, n_ends: int = 4, n_crossings: int = 6,
                   max_tries: int = 200) -> TangleDiagram:
    """A random connected oriented tangle diagram with the requested number
    of boundary ends and crossings.  Components get colours t1, t2, ...
    """
    n_crossings = max(n_crossings, (n_ends - 2) // 2, 1)
    for _ in range(max_tries):
        d = _try_random_diagram(rng, n_ends, n_crossings)
        if d is not None:
            comps = d.colours()
            mapping = {c: f"t{i + 1}" for i, c in enumerate(comps)}
            return tr.recolour(d, mapping)
    raise TangleError("E_GENERATION", "could not generate a diagram with these parameters")


def random_knot_tangle(rng: random.Random, n_crossings: int,
                       max_tries: int = 400) -> TangleDiagram:
    """A knot tangle: ``random_diagram(rng, 2, n_crossings)`` built whole,
    and tried again when it has a closed strand."""
    for _ in range(max_tries):
        try:
            d = random_diagram(rng, 2, n_crossings)
        except TangleError:
            continue
        if len(d.components) == 1:
            return d
    raise TangleError("E_GENERATION", "no knot tangle found")


def _try_random_diagram(rng, n_ends, n_crossings) -> Optional[TangleDiagram]:
    d = _fresh_piece(rng, 0)
    idx = 1
    while len(d.crossings) < n_crossings:
        ends = len(d.boundary)
        piece = _fresh_piece(rng, idx)
        idx += 1
        js = [j for j in (1, 2, 3) if ends + 4 - 2 * j >= max(n_ends, 2) and j < ends]
        if not js:
            js = [1]
        rng.shuffle(js)
        glued = None
        for j in js:
            starts1 = list(range(ends))
            rng.shuffle(starts1)
            for s1 in starts1:
                starts2 = list(range(4))
                rng.shuffle(starts2)
                for s2 in starts2:
                    try:
                        glued = tr.glue_diagrams(d, piece, s1, s2, j).diagram
                        break
                    except TangleError:
                        continue
                if glued is not None:
                    break
            if glued is not None:
                break
        if glued is None:
            return None
        d = glued
    # reduce the number of ends by capping
    guard = 0
    while len(d.boundary) > n_ends and guard < 50:
        guard += 1
        arcs = list(d.arcs)
        rng.shuffle(arcs)
        for a in arcs:
            try:
                d = tr._cap(d, a)
                break
            except TangleError:
                continue
        else:
            return None
    if len(d.boundary) != n_ends or d.split:
        return None
    return d


# ----------------------------------------------------------------------
# the catalogue checks on polynomials
#
# Each check as ``verify`` ran it before its identities were compared on
# packed site families: every site value built as a LaurentPoly, then
# specialized with ``substitute``, renamed or multiplied, and compared with
# ``==``.  They draw the same diagrams from the rng and write the same
# failure payloads, so a report is the same with either check.

def substitute(p: LaurentPoly, var: str, replacement_exp2, sign: int = 1) -> LaurentPoly:
    """p with ``var -> sign * (monomial given by replacement_exp2)``.

    The replacement must have integer exponents (doubled values even); a
    negative sign additionally requires every exponent of ``var`` in the
    polynomial to be integral, since (-m)^(1/2) has no meaning here.
    """
    if var not in p.vars:
        raise LaurentError("E_UNKNOWN_VAR", f"no variable {var!r} in {p.vars}")
    if sign not in (1, -1):
        raise LaurentError("E_BAD_SUBST", "sign must be +1 or -1")
    if any(m % 2 for m in replacement_exp2.values()):
        raise LaurentError("E_BAD_SUBST", "replacement monomial must have integer exponents")
    i = p.vars.index(var)
    rest = p.vars[:i] + p.vars[i + 1:]
    monomials = []
    for e, c in p.terms.items():
        k2 = e[i]  # doubled exponent of `var` in this term
        if sign == -1:
            if k2 % 2:
                raise LaurentError(
                    "E_BAD_SUBST",
                    f"cannot raise a negative monomial to exponent {k2}/2")
            if (k2 // 2) % 2:
                c = -c
        exp2 = [(v, x) for v, x in zip(rest, e[:i] + e[i + 1:]) if x]
        exp2 += [(v, k2 * (m2 // 2)) for v, m2 in replacement_exp2.items()]
        monomials.append((c, exp2))
    return LaurentPoly.sum(monomials)


def _sub_if(p: LaurentPoly, var: str, repl, sign=1) -> LaurentPoly:
    return substitute(p, var, repl, sign) if var in p.vars else p


def _invert_all(p: LaurentPoly, colours, invert_h=False) -> LaurentPoly:
    for v in colours:
        p = _sub_if(p, v, {v: -2})
    if invert_h:
        p = _sub_if(p, H, {H: -2})
    return p


def _single_variable(p: LaurentPoly, colours, t="t") -> LaurentPoly:
    return p.rename({c: t for c in colours})


def normalized_nabla(d: TangleDiagram, rotation: int) -> dict[str, LaurentPoly]:
    """Site values keyed by normalized position labels a, b, c, d."""
    vals = nabla_all(d)
    return {label: vals[Site(frozenset({d.arcs[(i + rotation) % 4]}))]
            for i, label in enumerate("abcd")}


def check_rm_invariance(rng, cases, fail):
    for k in range(cases):
        d = vf.random_diagram(rng, rng.choice((2, 4, 4, 6)), rng.randint(1, 8))
        before = nabla_all(d)
        d2, moves = vf.random_rm_sequence(rng, d, rng.randint(1, 6))
        if before != nabla_all(d2):
            fail(vf._payload(case=k, diagram=d, moved=d2, moves=repr(moves)))


def check_mirror(rng, cases, fail):
    for k in range(cases):
        d = vf.random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))
        lhs = nabla_hat_all(tr.mirror_diagram(d))
        rhs = {s: _invert_all(p, d.colours(), invert_h=True)
               for s, p in nabla_hat_all(d).items()}
        if lhs != rhs:
            fail(vf._payload(case=k, diagram=d))


def check_reversal(rng, cases, fail):
    for k in range(cases):
        d = vf.random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))
        hats = nabla_hat_all(d)
        colour = rng.choice(d.colours())
        lk2 = int(2 * linking_number(d, colour, "all")) if len(d.colours()) > 1 else 0
        r1 = tr.reverse_orientation(d, {colour})
        pref = LaurentPoly.monomial(1, {H: lk2} if lk2 else {})
        ok = True
        for s, p in nabla_hat_all(r1).items():
            ok = ok and p == pref * _sub_if(hats[s], colour, {colour: -2, H: -2})
        rall = tr.reverse_orientation(d, set(d.colours()))
        for s, p in nabla_hat_all(rall).items():
            rhs = hats[s]
            for v in d.colours():
                rhs = _sub_if(rhs, v, {v: -2, H: -2})
            ok = ok and p == rhs
        if not ok:
            fail(vf._payload(case=k, diagram=d, colour=colour))


def check_skein(rng, cases, fail):
    done = guard = 0
    while done < cases and guard < cases * 40:
        guard += 1
        d = vf.random_diagram(rng, rng.choice((2, 4)), rng.randint(1, 6))
        ci = rng.randrange(len(d.crossings))
        c = d.crossings[ci]
        cu, co = d.colour_of_edge[c.under[0]], d.colour_of_edge[c.over[0]]
        if cu != co:
            d = tr.recolour(d, {co: cu})
        plus = d if d.crossings[ci].sign > 0 else tr.switch_crossing(d, ci)
        minus = tr.switch_crossing(plus, ci)
        try:
            zero = tr.smooth_crossing(plus, ci)
        except TangleError:
            continue
        done += 1
        cols = set(plus.colours()) | set(zero.colours())
        t = binomial("t")
        pluses, minuses, zeros = nabla_all(plus), nabla_all(minus), nabla_all(zero)
        ok = True
        for s in plus.sites():
            a, b, cc = (_single_variable(x[s], cols) for x in (pluses, minuses, zeros))
            ok = ok and (a - b == t * cc)
        if not ok:
            fail(vf._payload(case=done, diagram=d, crossing=ci))


def check_knot_pm_one(rng, cases, fail):
    one = LaurentPoly.integer(1)
    for k in range(cases):
        d = vf.random_knot_tangle(rng, rng.randint(1, 8))
        p = nabla_all(d)[Site(frozenset())]
        colour = d.colours()[0]
        if _sub_if(p, colour, {}) != one or _sub_if(p, colour, {}, sign=-1) != one:
            fail(vf._payload(case=k, diagram=d, value=p))


def check_set_pm_one(rng, cases, fail):
    done = guard = 0
    while done < cases and guard < cases * 60:
        guard += 1
        d = vf.random_diagram(rng, rng.choice((2, 4)), rng.randint(2, 7))
        closed = [c.colour for c in d.components if c.kind == "closed" and c.edges]
        if not closed:
            continue
        t1 = rng.choice(closed)
        if sum(1 for c in d.components if c.colour == t1) > 1:
            continue
        try:
            rest = tr.delete_component(d, t1)
        except TangleError:
            continue
        done += 1
        nd = nabla_all(d)
        nrest = nabla_all(rest) if not rest.split else {s: LaurentPoly.zero()
                                                        for s in d.sites()}
        lks = {c: int(2 * linking_number(d, t1, c)) for c in d.colours() if c != t1}
        lk_total = sum(lks.values()) // 2
        fwd = LaurentPoly.monomial(1, {c: lk for c, lk in lks.items() if lk})
        bwd = LaurentPoly.monomial(1, {c: -lk for c, lk in lks.items() if lk})
        for s in d.sites():
            for sign in (1, -1):
                lhs = _sub_if(nd[s], t1, {}, sign=sign)
                unit = 1 if sign == 1 or (lk_total + 1) % 2 == 0 else -1
                rhs = LaurentPoly.integer(unit) * (fwd - bwd) * nrest[s]
                if lhs != rhs:
                    fail(vf._payload(case=done, diagram=d, colour=t1, site=str(s),
                                     lhs=lhs, rhs=rhs))
                    return


def check_glueing(rng, cases, fail):
    for k in range(cases):
        d1 = vf.random_diagram(rng, rng.choice((4, 6)), rng.randint(1, 4))
        d2 = vf.random_diagram(rng, rng.choice((4, 6)), rng.randint(1, 4))
        rec = None
        for _ in range(40):
            s1 = rng.randrange(len(d1.boundary))
            s2 = rng.randrange(len(d2.boundary))
            count = rng.randint(1, min(len(d1.boundary), len(d2.boundary)) - 1)
            try:
                rec = tr.glue_diagrams(d1, d2, s1, s2, count)
                break
            except TangleError:
                continue
        if rec is None or rec.diagram.split:
            continue
        T = rec.diagram
        hats_T = nabla_hat_all(T)
        totals = glueing_sums(rec, nabla_hat_all(d1), nabla_hat_all(d2))
        for s in T.sites():
            if totals[s] != hats_T[s]:
                fail(vf._payload(case=k, glued=T, site=str(s),
                                 got=totals[s], expected=hats_T[s]))
                return


def check_parity(rng, cases, fail):
    for k in range(cases):
        d = vf.random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 8))
        for s, p in nabla_all(d).items():
            for v in d.colours():
                if v in p.vars and len({e[p.vars.index(v)] % 4 for e in p.terms}) > 1:
                    fail(vf._payload(case=k, diagram=d, site=str(s), colour=v, value=p))
                    return


def check_fourended(rng, cases, fail):
    seen = {1: 0, 2: 0}
    for k in range(cases):
        d = vf.random_diagram(rng, 4, rng.randint(1, 7))
        open_cols = [c.colour for c in d.components if c.kind == "open"]
        d = tr.recolour(d, {open_cols[1]: open_cols[0]})
        if rng.random() < 0.5:
            comp = next(c for c in d.components if c.kind == "open")
            crossings, dirs = tr._reversed(d, d.crossings, set(comp.edges))
            d = tr._rebuild(d, crossings=crossings, edge_dirs=dirs, name=d.name + "_rev")
        typ, rot = vf.orientation_type(d)
        seen[typ] += 1
        vals = normalized_nabla(d, rot)
        vals_r = normalized_nabla(tr.reverse_orientation(d, set(d.colours())), rot)
        cols = set(d.colours())
        f = lambda p: _single_variable(p, cols)
        ok = (f(vals["a"]) == f(vals_r["c"]) == f(vals["c"])
              and f(vals["d"]) == f(vals_r["b"]))
        if typ == 1:
            ok = ok and f(vals["d"]) == f(vals["b"])
        if not ok:
            fail(vf._payload(case=k, diagram=d, type=typ))
    return f"orientation types seen: 1 x{seen[1]}, 2 x{seen[2]}"


def check_mutation(rng, cases, fail):
    for k in range(cases):
        d = vf.random_diagram(rng, 4, rng.randint(1, 7))
        open_cols = [c.colour for c in d.components if c.kind == "open"]
        d = tr.recolour(d, {open_cols[1]: open_cols[0]})
        before = nabla_all(d)
        for axis in ("x", "y", "z"):
            after = nabla_all(tr.mutate_tangle(d, axis))
            if not all(before[Site(frozenset({a}))] == after[Site(frozenset({a}))]
                       for a in d.arcs):
                fail(vf._payload(case=k, diagram=d, axis=axis))


CHECKS = {
    "rm_invariance": check_rm_invariance,
    "mirror": check_mirror,
    "reversal": check_reversal,
    "skein": check_skein,
    "knot_pm_one": check_knot_pm_one,
    "set_pm_one": check_set_pm_one,
    "glueing": check_glueing,
    "parity": check_parity,
    "fourended_symmetry": check_fourended,
    "mutation": check_mutation,
}
