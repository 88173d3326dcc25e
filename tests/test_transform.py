import random

import pytest

from tanglenabla import corpus
from tanglenabla.diagram import Crossing, Site, TangleError, linking_number, parse_tangle
from tanglenabla.laurent import H as HVAR
from tanglenabla.laurent import LaurentPoly
from tanglenabla.nabla import nabla_all, nabla_at_site, nabla_hat_all
from tanglenabla.states import enumerate_states
from tanglenabla import transform as tr
from tanglenabla.verify import random_diagram, random_rm_sequence

from conftest import load, seeded_diagrams, transform_outputs
from oracles import brute_force_states, isomorphic


def S(*labels):
    return Site(frozenset(labels))


def sub_if(p, v, repl):
    return p.substitute(v, repl) if v in p.vars else p


# ----------------------------------------------------------------------
# mirror / reversal / switch

def test_mirror_is_involution(corpus_names):
    for name in corpus_names:
        d = load(name)
        assert tr.mirror_diagram(tr.mirror_diagram(d)) == d


def test_mirror_flips_signs():
    d = load("crossing_pos")
    assert tr.mirror_diagram(d).crossings[0].sign == -1


def test_mirror_value_law(corpus_names):
    for name in corpus_names:
        d = load(name)
        lhs = nabla_hat_all(tr.mirror_diagram(d))
        for s, p in nabla_hat_all(d).items():
            rhs = p
            for v in list(d.colours()) + [HVAR]:
                rhs = sub_if(rhs, v, {v: -2})
            assert lhs[s] == rhs, (name, str(s))


def test_mirrored_single_crossing_north_label():
    m = tr.mirror_diagram(load("crossing_pos"))
    assert nabla_hat_all(m)[S("d")] == LaurentPoly.monomial(1, {"o": -1, "u": -1})


def test_reverse_is_involution_and_flips_signs():
    d = load("crossing_pos")
    r = tr.reverse_orientation(d, {"u"})
    assert r.crossings[0].sign == -1
    assert tr.reverse_orientation(r, {"u"}) == d
    with pytest.raises(TangleError) as e:
        tr.reverse_orientation(d, {"nope"})
    assert e.value.code == "E_UNKNOWN_COLOUR"


def test_reverse_all_on_clasp_matches_substitution():
    d = load("clasp")
    r = tr.reverse_orientation(d, {"t1", "ti"})
    vals = nabla_all(r)
    assert vals[S("t")] == LaurentPoly.monomial(1, {"t1": -2, "ti": -2})
    hats = nabla_hat_all(d)
    for s, p in nabla_hat_all(r).items():
        rhs = hats[s]
        for v in ("t1", "ti"):
            rhs = sub_if(rhs, v, {v: -2, HVAR: -2})
        assert p == rhs


def test_reverse_one_strand_law_with_linking_prefactor():
    d = load("clasp")
    lk2 = int(2 * linking_number(d, "t1", "all"))
    pref = LaurentPoly.monomial(1, {HVAR: lk2})
    hats = nabla_hat_all(d)
    for s, p in nabla_hat_all(tr.reverse_orientation(d, {"t1"})).items():
        assert p == pref * sub_if(hats[s], "t1", {"t1": -2, HVAR: -2})


def test_switch_crossing_only_touches_one_sign():
    d = load("clasp")
    sw = tr.switch_crossing(d, 0)
    assert [c.sign for c in sw.crossings] == [-1, 1]


# ----------------------------------------------------------------------
# glueing and closure

def test_glue_two_crossings_into_clasp():
    pos = load("crossing_pos")
    # stack a second positive crossing on top: glue its bottom two ends
    # (the run starting at the under-in end) onto the top two ends of the
    # first (positions 2, 3 hold the out-going ends).
    rec = tr.glue_diagrams(pos, pos, 2, 1, 2)
    T = rec.diagram
    assert len(T.crossings) == 2 and len(T.boundary) == 4
    vals = {str(s): p for s, p in nabla_all(T).items()}
    clasp = {str(s): p for s, p in nabla_all(load("clasp")).items()}
    ren = {rec.iota_1["o"]: "t1", rec.iota_1["u"]: "ti"}
    got = sorted(p.rename(ren).key() for p in vals.values())
    want = sorted(p.key() for p in clasp.values())
    assert got == want


def test_glue_records_region_identification():
    pos = load("crossing_pos")
    rec = tr.glue_diagrams(pos, pos, 2, 1, 2)
    maps = list(rec.arc_map_1.values()) + list(rec.arc_map_2.values())
    kinds = {r.rid: r.kind for r in rec.diagram.regions}
    assert any(kinds[x] == "closed" for x in maps)   # the seam region closed up
    assert set(rec.diagram.arcs) <= set(maps)


def test_glue_arity_and_orientation_errors():
    pos = load("crossing_pos")
    with pytest.raises(TangleError) as e:
        tr.glue_diagrams(pos, pos, 0, 0, 5)
    assert e.value.code == "E_ARITY"
    caught = None
    try:
        tr.glue_diagrams(pos, pos, 0, 0, 1)
    except TangleError as ex:
        caught = ex
    if caught is not None:
        assert caught.code == "E_ORIENT"


def test_glue_onto_a_glued_diagram_keeps_edge_ids_apart():
    # the first glue result already carries g_-prefixed edges, so the
    # second glue must pick a prefix that meets none of them
    pos = load("crossing_pos")
    inner = tr.glue_diagrams(pos, pos, 2, 1, 1).diagram
    assert any(e.startswith("g_") for e in inner.edges)
    glued = []
    for start1 in range(len(inner.boundary)):
        for start2 in range(4):
            for count in (1, 2, 3):
                try:
                    glued.append(tr.glue_diagrams(inner, pos, start1, start2, count).diagram)
                except TangleError as ex:
                    assert ex.code == "E_ORIENT"
    assert glued
    for d in glued:
        assert len(d.crossings) == 3
        assert sorted(brute_force_states(d)) == enumerate_states(d)


def test_close_pretzel_both_ways_same_potential():
    p = load("pretzel_2m3")
    ca = tr.close_tangle(p, "a")
    cc = tr.close_tangle(p, "c")
    assert ca.n_open == 1 and cc.n_open == 1
    assert nabla_at_site(ca, S()) == nabla_all(p)[S("a")]
    from tanglenabla.nabla import conway_potential
    qa = conway_potential(ca).quotient
    qc = conway_potential(cc).quotient
    assert qa == qc


def test_close_respects_orientations():
    with pytest.raises(TangleError) as e:
        tr.close_tangle(load("clasp"), "b")
    assert e.value.code == "E_ORIENT"
    with pytest.raises(TangleError) as e:
        tr.close_tangle(load("crossing_pos"), None)
    assert e.value.code == "E_BAD_LOCATION"


def test_full_closure_and_reopen_roundtrip():
    two = tr.close_tangle(load("clasp"), "l")
    closed = tr.close_tangle(two)
    assert closed.n_open == 0 and len(closed.boundary) == 0
    back = tr.reopen(closed)
    assert back.n_open == 1
    # both 2-ended tangles represent the same link
    v1 = nabla_at_site(two, S()).rename({c: "t" for c in two.colours()})
    v2 = nabla_at_site(back, S()).rename({c: "t" for c in back.colours()})
    assert v1 == v2


def test_close_trefoil_structure():
    closed = tr.close_tangle(load("trefoil"))
    assert len(closed.crossings) == 3
    assert closed.n_open == 0 and closed.m_closed == 1
    assert len(closed.regions) == 5   # crossings + 2 on the sphere


# ----------------------------------------------------------------------
# mutation

def test_mutation_requires_four_ends():
    with pytest.raises(TangleError) as e:
        tr.mutate_tangle(load("trefoil"), "y")
    assert e.value.code == "E_NOT_FOURENDED"
    with pytest.raises(TangleError) as e:
        tr.mutate_tangle(load("clasp"), "w")
    assert e.value.code == "E_BAD_LOCATION"


def test_mutation_involution_and_axis_composition(corpus_names):
    for name in corpus_names:
        d = load(name)
        if len(d.boundary) != 4:
            continue
        for axis in ("x", "y", "z"):
            m = tr.mutate_tangle(d, axis)
            assert isomorphic(tr.mutate_tangle(m, axis), d), (name, axis)
        xy = tr.mutate_tangle(tr.mutate_tangle(d, "y"), "x")
        assert isomorphic(xy, tr.mutate_tangle(d, "z")), name


def test_mutation_preserves_writhe_and_signs():
    d = load("pretzel_2m3")
    for axis in ("x", "y", "z"):
        m = tr.mutate_tangle(d, axis)
        assert sorted(c.sign for c in m.crossings) == \
            sorted(c.sign for c in d.crossings)


def test_pretzel_type2_y_rotation_keeps_orientations():
    d = load("pretzel_2m3")
    d2 = tr.reverse_orientation(d, {"q"})      # type 2 pattern: both in below
    m = len(d2.crossings)
    ins = {k for k in range(4) if not d2.incoming[4 * m + k]}
    assert ins == {0, 1}
    mut = tr.mutate_tangle(d2, "y")
    # no global reversal: the in/out pattern per position is unchanged
    assert [mut.incoming[4 * m + k] for k in range(4)] == \
        [d2.incoming[4 * m + k] for k in range(4)]


# ----------------------------------------------------------------------
# smoothing / deletion

def test_smooth_requires_same_colour():
    with pytest.raises(TangleError) as e:
        tr.smooth_crossing(load("crossing_pos"), 0)
    assert e.value.code == "E_HYPOTHESIS"


def test_smooth_trefoil_gives_two_components():
    d = load("trefoil")
    sm = tr.smooth_crossing(d, 0)
    assert len(sm.crossings) == 2
    assert sm.n_open == 1 and sm.m_closed == 1


def test_delete_component_prop_29_shape():
    d = tr.close_tangle(load("clasp"), "l")      # closed t1 around open ti
    closed_colour = next(c.colour for c in d.components if c.kind == "closed")
    rest = tr.delete_component(d, closed_colour)
    assert rest.m_closed == 0
    assert nabla_at_site(rest, S()) == LaurentPoly.integer(1)
    with pytest.raises(TangleError):
        tr.delete_component(d, "zz")
    open_colour = next(c.colour for c in d.components if c.kind == "open")
    with pytest.raises(TangleError) as e:
        tr.delete_component(d, open_colour)
    assert e.value.code == "E_HYPOTHESIS"


# ----------------------------------------------------------------------
# Reidemeister moves

def test_rm_moves_change_counts():
    d = load("clasp")
    d1 = tr.apply_rm_move(d, "RM1_insert", ("e3", "L", -1))
    assert len(d1.crossings) == 3
    d2 = tr.apply_rm_move(d1, "RM1_remove", tr.find_kinks(d1)[0])
    assert len(d2.crossings) == 2
    d3 = tr.apply_rm_move(d, "RM2_insert", ("e1", "L", "e2", "R", True)) \
        if d.region_beside("e1", "L") == d.region_beside("e2", "R") else None
    # pick a valid pair programmatically
    pair = next((e1, s1, e2, s2)
                for e1 in d.edges for s1 in "LR"
                for e2 in d.edges for s2 in "LR"
                if e1 != e2 and d.region_beside(e1, s1) is not None
                and d.region_beside(e1, s1) == d.region_beside(e2, s2))
    d3 = tr.apply_rm_move(d, "RM2_insert", (*pair, True))
    assert len(d3.crossings) == 4


def test_rm_bad_locations():
    d = load("clasp")
    with pytest.raises(TangleError) as e:
        tr.rm1_remove(d, 0)
    assert e.value.code == "E_BAD_LOCATION"
    with pytest.raises(TangleError) as e:
        tr.rm3(d, "r0")
    assert e.value.code == "E_BAD_LOCATION"
    with pytest.raises(TangleError) as e:
        tr.apply_rm_move(d, "RM9", None)
    assert e.value.code == "E_BAD_LOCATION"


def test_clasp_bigon_detection_and_degenerate_removal():
    d = load("clasp")
    assert tr.find_bigons(d) == []       # a clasp is not a removable bigon
    sw = tr.switch_crossing(d, 1)
    bigons = tr.find_bigons(sw)
    assert bigons
    # removal here would leave two bare parallel strands, which is not a
    # valid connected diagram; the move must refuse
    with pytest.raises(TangleError) as e:
        tr.rm2_remove(sw, bigons[0])
    assert e.value.code == "E_DISCONNECTS"


def test_rm3_slide_roundtrip_on_generated_triangles(corpus_names):
    exercised = 0
    for name in corpus_names:
        d = load(name)
        if d.n_open == 0:
            continue
        pairs = [(e1, s1, e2, s2)
                 for e1 in d.edges for s1 in "LR"
                 for e2 in d.edges for s2 in "LR"
                 if e1 != e2 and d.region_beside(e1, s1) is not None
                 and d.region_beside(e1, s1) == d.region_beside(e2, s2)]
        for pair in pairs:
            for over in (True, False):
                big = tr.rm2_insert(d, *pair, over)
                for t in tr.find_triangles(big):
                    slid = tr.rm3(big, t)
                    assert nabla_all(slid) == nabla_all(big)
                    back = [t2 for t2 in tr.find_triangles(slid)
                            if isomorphic(tr.rm3(slid, t2), big)]
                    assert back
                    exercised += 1
    assert exercised >= 10, "too few triangles were generated"


def test_random_rm_sequences_preserve_nabla():
    rng = random.Random(1234)
    for _ in range(30):
        d = random_diagram(rng, rng.choice((2, 4)), rng.randint(1, 6))
        before = nabla_all(d)
        d2, moves = random_rm_sequence(rng, d, 5)
        assert nabla_all(d2) == before, moves


def test_close_reversed_single_crossing_to_unknot():
    d = tr.reverse_orientation(load("crossing_pos"), {"u"})
    two = tr.close_tangle(d, "d")          # joins the now in/out pair at the top
    assert two.n_open == 1 and len(two.crossings) == 1
    assert nabla_at_site(two, S()) == LaurentPoly.integer(1)
    closed = tr.close_tangle(two)          # full closure: a 1-crossing unknot
    assert closed.n_open == 0 and closed.m_closed == 1
    assert len(closed.crossings) == 1


def test_glue_pretzel_with_trivial_tangle_representative():
    # the 2-crossing diagram of the trivial 2-strand tangle is the clasp
    # with one crossing switched
    p = load("pretzel_2m3")
    trivial = tr.switch_crossing(load("clasp"), 1)
    rec = None
    for s2 in range(4):
        try:
            rec = tr.glue_diagrams(p, trivial, 1, s2, 2)   # c-side run: qe9, qe1
            break
        except TangleError:
            continue
    assert rec is not None
    assert len(rec.diagram.crossings) == 7
    assert len(rec.diagram.boundary) == 4


def test_mutate_single_crossing_z_symmetric():
    d = load("crossing_pos")
    assert isomorphic(tr.mutate_tangle(d, "z"), d)


def test_linking_number_invariant_under_rm_moves():
    rng = random.Random(31)
    for _ in range(15):
        d = random_diagram(rng, 4, rng.randint(2, 6))
        cols = d.colours()
        if len(cols) < 2:
            continue
        before = linking_number(d, cols[0], cols[1])
        d2, _ = random_rm_sequence(rng, d, 4)
        assert linking_number(d2, cols[0], cols[1]) == before


# ----------------------------------------------------------------------
# location rules

def _split(name):
    """The corpus diagram with a free circle added, which makes it split."""
    return parse_tangle(corpus.source(name) + "circle zz\n")


def test_region_queries_on_split_diagrams_fail_with_coded_errors(corpus_names):
    for name in corpus_names:
        d = _split(name)
        assert d.split and d.regions == (), name
        assert all(d.region_beside(e, side) is None for e in d.edges for side in "LR")
        assert tr.find_bigons(d) == [] and tr.find_triangles(d) == [], name
        moves = (lambda rid: tr.rm2_remove(d, rid), lambda rid: tr.rm3(d, rid),
                 lambda rid: tr.apply_rm_move(d, "RM2_remove", rid),
                 lambda rid: tr.apply_rm_move(d, "RM3", rid))
        for rid in [r.rid for r in load(name).regions]:
            for move in moves:
                with pytest.raises(TangleError) as e:
                    move(rid)
                assert e.value.code == "E_BAD_LOCATION", (name, rid)
    with pytest.raises(TangleError) as e:
        tr.close_tangle(_split("trefoil"))
    assert e.value.code == "E_BAD_LOCATION"
    rec = tr.glue_diagrams(_split("clasp"), load("clasp"), 0, 1, 2)
    assert rec.diagram.split and rec.diagram.free_circles == ("zz",)
    assert set(rec.arc_map_1.values()) == set(rec.arc_map_2.values()) == {None}


def test_crossing_from_slots_inverts_slots(corpus_names):
    inputs = [load(name) for name in corpus_names] + seeded_diagrams(11, 24, 7)
    diagrams = list(inputs)
    for d in inputs:
        for _, result in transform_outputs(d):
            if isinstance(result, tr.GlueRecord):
                result = result.diagram
            if not isinstance(result, str):
                diagrams.append(result)
    crossings = {c for d in diagrams for c in d.crossings}
    assert len(diagrams) > 2500 and len(crossings) > 1000
    for c in crossings:
        assert Crossing.from_slots(c.sign, c.slots()) == c


def test_glue_arc_maps_agree_with_the_corners_of_the_input_regions():
    # every corner of an input arc's region is, in the glued diagram, a
    # corner of the region that the arc map names
    ds = seeded_diagrams(3, 16, 6)
    glues = arcs = 0
    ends = set()
    for d1, d2 in zip(ds, ds[1:]):
        for s1 in range(len(d1.boundary)):
            for s2 in range(len(d2.boundary)):
                for count in range(1, min(len(d1.boundary), len(d2.boundary)) + 1):
                    try:
                        rec = tr.glue_diagrams(d1, d2, s1, s2, count)
                    except TangleError:
                        continue
                    glues += 1
                    ends.update((len(d1.boundary), len(d2.boundary)))
                    rids = [r.rid for r in rec.diagram.regions]
                    rows = rec.diagram.corners
                    for d, arc_map, offset in ((d1, rec.arc_map_1, 0),
                                               (d2, rec.arc_map_2, len(d1.crossings))):
                        for a in d.arcs:
                            corners = d.region(a).corners
                            assert corners, (d.name, a)
                            arcs += 1
                            for ci, q in corners:
                                assert rids[rows[ci + offset][3 + q]] == arc_map[a]
    assert ends == {2, 4, 6}
    assert glues >= 200 and arcs >= 2000, (glues, arcs)


def test_rm_insertions_are_undone_by_the_matching_removals(corpus_names):
    # each inserted crossing is where the removal finder looks for it, and
    # removing it gives back the input up to relabelling
    kinks = bigons = 0
    for d in [load(name) for name in corpus_names] + seeded_diagrams(11, 8, 7):
        m = len(d.crossings)
        for e in d.edges:
            for side in "LR":
                for sign in (1, -1):
                    out = tr.rm1_insert(d, e, side, sign)
                    assert out.crossings[m].sign == sign
                    assert m in tr.find_kinks(out)
                    assert isomorphic(tr.rm1_remove(out, m), d), (d.name, e, side, sign)
                    kinks += 1
        faces = [(e, side) for e in d.edges for side in "LR"]
        for e1, s1 in faces:
            for e2, s2 in faces:
                face = d.region_beside(e1, s1)
                if e1 == e2 or face is None or face != d.region_beside(e2, s2):
                    continue
                for first_over in (True, False):
                    out = tr.rm2_insert(d, e1, s1, e2, s2, first_over)
                    cx, cy = out.crossings[m:]
                    assert cx.sign == -cy.sign
                    bigon = [r.rid for r in out.regions
                             if sorted(c for c, _ in r.corners) == [m, m + 1]]
                    assert len(bigon) == 1 and bigon[0] in tr.find_bigons(out)
                    back = tr.rm2_remove(out, bigon[0])
                    assert isomorphic(back, d), (d.name, e1, s1, e2, s2, first_over)
                    bigons += 1
    assert (kinks, bigons) == (560, 1296)
