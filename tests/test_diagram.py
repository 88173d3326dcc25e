import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglenabla import corpus
from tanglenabla import transform as tr
from tanglenabla.diagram import (CORNER_RULE, Site, TangleDiagram, TangleError,
                                 linking_number, parse_tangle, serialize)
from tanglenabla.laurent import LaurentError
from tanglenabla.nabla import nabla_all
from tanglenabla.transform import GlueRecord
from tanglenabla.verify import random_diagram

from conftest import load, seeded_diagrams, transform_outputs
from oracles import (_corner_codes, _region_tables, canonical_form, corner_ints, isomorphic,
                     trace_faces)


def test_parse_single_crossing_counts():
    d = load("crossing_pos")
    assert len(d.crossings) == 1
    assert d.n_open == 2 and d.m_closed == 0
    assert len(d.boundary) == 4


def test_parse_pretzel_matches_figure():
    d = load("pretzel_2m3")
    assert len(d.crossings) == 5
    assert d.n_open == 2 and d.m_closed == 0
    assert sorted(d.colours()) == ["p", "q"]
    signs = sorted(c.sign for c in d.crossings)
    assert signs == [-1, -1, -1, 1, 1]


def test_dangling_edge_rejected():
    src = """tangle bad
ends 2
boundary a e1 b e9
crossing x1 + under e1 e2 over e2 e3
colour e1 t
"""
    with pytest.raises(TangleError) as e:
        parse_tangle(src)
    assert e.value.code == "E_DANGLING"


def test_colour_lines_name_each_edge_of_the_diagram_once():
    # a colour line for an edge the diagram lacks is not ignored, and a
    # second one for an edge does not recolour its strand
    head = "tangle t\nends 2\nboundary a e1 b e3\ncrossing x1 + under e1 e2 over e2 e3\n"
    assert parse_tangle(head + "colour e1 t\ncolour e3 t\n").colours() == ("t",)
    for tail, line in (("colour e1 t\ncolour e9 t\n", 6), ("colour e9 t\ncolour e1 t\n", 5),
                       ("colour e1 t\ncolour e1 u\n", 6), ("colour e1 t\ncolour e1 t\n", 6),
                       ("colour e1 t\ncolour e1 u\ncolour e3 t\n", 6)):
        with pytest.raises(TangleError) as e:
            parse_tangle(head + tail)
        assert str(e.value).startswith(f"E_SYNTAX: line {line}: "), tail


def test_header_lines_appear_once():
    # a second tangle, ends, boundary or outer line does not overwrite the
    # first, and an outer line does not ride along with a boundary line
    body = "crossing x1 + under e1 e2 over e2 e3\ncolour e1 t\n"
    assert parse_tangle("tangle t\nends 2\nboundary a e1 b e3\n" + body).arcs == ("a", "b")
    for head, line in (("tangle t\nends 2\nboundary a e1 b e3\nboundary x e3 y e1\n", 4),
                       ("tangle t\ntangle u\nboundary a e1 b e3\n", 2),
                       ("ends 2\nboundary a e1 b e3\nends 2\n", 3),
                       ("tangle t\nouter z e1 R\nboundary a e1 b e3\n", 3),
                       ("boundary a e1 b e3\nouter z e1 R\n", 2),
                       ("outer z e1 R\nouter z e1 L\n", 2)):
        with pytest.raises(TangleError) as e:
            parse_tangle(head + body)
        assert str(e.value).startswith(f"E_SYNTAX: line {line}: "), head


def test_no_crossing_rejected():
    with pytest.raises(TangleError) as e:
        parse_tangle("tangle t\nends 2\nboundary a e1 b e1\ncolour e1 t\n")
    assert e.value.code == "E_NO_CROSSING"


def test_inconsistent_orientation_rejected():
    # e2 is declared incoming at both of its ends
    src = """tangle bad
ends 4
boundary a e1 b e2 c e3 d e4
crossing x1 + under e1 e2 over e2 e3
colour e1 t
"""
    with pytest.raises(TangleError):
        parse_tangle(src)


def test_boundary_disconnected_diagram_rejected():
    # two parallel crossingless strands next to a crossing piece cannot be
    # expressed; simplest violation: a region with two boundary arcs
    src = """tangle bad
ends 6
boundary a e1 b e2 c e4 d e3 e f1 f f1
crossing x1 + under e1 e3 over e2 e4
colour e1 u
colour e2 o
colour f1 s
"""
    with pytest.raises(TangleError) as e:
        parse_tangle(src)
    assert e.value.code == "E_DISCONNECTED"


def test_region_counts_across_corpus(corpus_names):
    for name in corpus_names:
        d = load(name)
        m = len(d.crossings)
        assert len(d.regions) == m + d.n_open + 1, name
        open_regions = [r for r in d.regions if r.kind == "open"]
        assert len(open_regions) == 2 * d.n_open, name
        # open regions carry exactly one arc each
        assert sorted(a for r in open_regions for a in r.arcs) == sorted(d.arcs)


def test_region_quadrant_map_single_crossing():
    d = load("crossing_pos")
    assert [d.regions[r].rid for r in d.corners[0][3:]] == ["c", "d", "a", "b"]


def test_clasp_regions():
    d = load("clasp")
    kinds = sorted((r.kind, r.rid) for r in d.regions)
    assert kinds == [("closed", "r0"), ("open", "b"), ("open", "l"),
                     ("open", "r"), ("open", "t")]


def test_linking_numbers():
    assert linking_number(load("crossing_pos"), "o", "u") == 0.5
    assert linking_number(load("crossing_neg"), "o", "u") == -0.5
    assert linking_number(load("clasp"), "t1", "ti") == 1
    assert linking_number(load("clasp"), "t1", "all") == 1
    d = load("mutorient")
    assert linking_number(d, "p", "r") == 2
    with pytest.raises(TangleError) as e:
        linking_number(d, "p", "zzz")
    assert e.value.code == "E_UNKNOWN_COLOUR"


def test_serialize_roundtrip_is_identity_on_canonical_form(corpus_names):
    for name in corpus_names:
        d = load(name)
        cf = canonical_form(d)
        again = canonical_form(parse_tangle(cf))
        assert cf == again, name
        assert serialize(parse_tangle(serialize(d))) == serialize(d), name


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 6))
def test_parse_inverts_serialize_on_generated_and_transformed_diagrams(seed, ends, m):
    d = random_diagram(random.Random(seed), ends, m)
    results = [d] + [r.diagram if isinstance(r, GlueRecord) else r
                     for _, r in transform_outputs(d)]
    # the text format needs a crossing, so crossingless results are left out
    diagrams = [x for x in results if isinstance(x, TangleDiagram) and x.crossings]
    assert len(diagrams) > 10
    for x in diagrams:
        text = serialize(x)
        again = parse_tangle(text)
        assert again == x, text
        assert serialize(again) == text


def test_the_text_format_keeps_the_flow_of_a_bare_arc():
    # smoothing crossing 5 leaves a bare arc flowing from its second
    # boundary end to its first; deleting t2 keeps it
    x = tr.smooth_crossing(seeded_diagrams(11, 24, 7)[14], 5)
    for d in (x, tr.delete_component(x, "t2")):
        assert False in d.edge_dirs.values()
        again = parse_tangle(serialize(d))
        assert again.incoming == d.incoming and again.edge_dirs == d.edge_dirs
    # a flow line names a bare arc and one of its two ends, once
    text = serialize(x)
    assert text.endswith("\nflow g_p5_1 1\n")
    text = text[:-len("flow g_p5_1 1\n")]
    line = text.count("\n") + 1
    assert parse_tangle(text + "flow g_p5_1 0\n").edge_dirs == {"g_p5_1": True}
    for tail, at in (("flow g_p5_1 1\nflow g_p5_1 1\n", line + 1), ("flow g_p1_0 0\n", line),
                     ("flow g_p5_1 2\n", line), ("flow g_p5_1\n", line), ("flow e9 0\n", line)):
        with pytest.raises(TangleError) as e:
            parse_tangle(text + tail)
        assert str(e.value).startswith(f"E_SYNTAX: line {at}: "), tail


def test_diagrams_that_differ_in_a_free_circle_or_a_flow_are_not_equal():
    split = ("tangle split\nends 2\nboundary a e1 b e2\n"
             "crossing x1 + under e1 e3 over e3 e2\ncolour e1 t\n")
    assert parse_tangle(split + "circle u\n") == parse_tangle(split + "circle u\n")
    assert parse_tangle(split + "circle u\n") != parse_tangle(split + "circle v\n")
    # the text of the test above, with and without its flow line
    text = serialize(tr.smooth_crossing(seeded_diagrams(11, 24, 7)[14], 5))
    assert text.endswith("\nflow g_p5_1 1\n")
    plain = text[:-len("flow g_p5_1 1\n")]
    assert parse_tangle(plain) == parse_tangle(plain + "flow g_p5_1 0\n")
    assert parse_tangle(plain) != parse_tangle(text)


def test_closed_diagrams_with_another_outer_face_are_not_equal():
    # the closed trefoil's outer face lies right of e1 and of e3, and left
    # of e1 lies another face: two hints on one face give one diagram, and
    # a hint on another face gives another, which reopens elsewhere
    text = serialize(tr.close_tangle(load("trefoil")))
    assert "\nouter r e1 R\n" in text
    d = parse_tangle(text)
    same = parse_tangle(text.replace("outer r e1 R", "outer r e3 R"))
    other = parse_tangle(text.replace("outer r e1 R", "outer r e1 L"))
    assert same == d and serialize(tr.reopen(same)) == serialize(tr.reopen(d))
    assert other != d and serialize(tr.reopen(other)) != serialize(tr.reopen(d))


def test_sites_enumeration():
    d = load("clasp")
    assert sorted(str(s) for s in d.sites()) == ["b", "l", "r", "t"]
    t = load("trefoil")
    assert [str(s) for s in t.sites()] == ["-"]


def test_isomorphic_ignores_labelling():
    d = load("clasp")
    text = serialize(d).replace("e1", "w9").replace("e2", "w8")
    assert isomorphic(parse_tangle(text), d)


def test_nonplanar_rotation_rejected():
    # the boundary order crosses two strand ends of the positive crossing
    src = """tangle bad
ends 4
boundary a e2 b e1 c e3 d e4
crossing x1 + under e1 e3 over e2 e4
colour e1 u
colour e2 o
"""
    with pytest.raises(TangleError) as e:
        parse_tangle(src)
    assert e.value.code == "E_NONPLANAR"


def _mutated(rng, text):
    """The text with one to three of its tokens replaced, deleted,
    duplicated or swapped with another token of the corpus file."""
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    pool = [tok for line in lines for tok in line] + ["+", "-", "0", "x9", "e99", "#"]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.choice(spots)
        if j >= len(lines[i]):
            continue
        how = rng.randrange(4)
        if how == 0:
            lines[i][j] = rng.choice(pool)
        elif how == 1:
            del lines[i][j]
        elif how == 2:
            lines[i].insert(j, lines[i][j])
        else:
            k, m = rng.choice(spots)
            if m < len(lines[k]):
                lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def test_token_mutated_corpus_files_fail_only_with_coded_errors():
    # a seeded regression version of a parser fuzz run: parsing a mutated
    # file, and the state sum of whatever parses, may raise only the coded
    # errors of the package
    rng = random.Random(2016)
    sources = [corpus.source(name) for name in corpus.names()]
    parsed = rejected = 0
    for _ in range(700):
        text = _mutated(rng, rng.choice(sources))
        try:
            nabla_all(parse_tangle(text))
            parsed += 1
        except (TangleError, LaurentError):
            rejected += 1
    assert parsed >= 50 and rejected >= 300, (parsed, rejected)


# What construction derives from its input, pinned by a sha256 over the
# transforms of the corpus and of seeded diagrams, and over the token
# mutations above: per result its serialize() text, components, split flag,
# regions, boundary in/out pattern and the region beside every edge side,
# or the code of the TangleError raised.  Recorded before the strand walk,
# the rename and reversal rules and the side table were restated, and again
# when serialize() began to write the flow of a bare arc (6 records) and
# parse_tangle to reject a repeated colour line at that line (one mutated
# text, E_DANGLING before).
CONSTRUCTION_PIN = "456ad27a789d2707c24115694b0666764b2a2a0fd28843686689f36aa596018e"


def _construction_record(x) -> str:
    if isinstance(x, str):
        return x + "\n"
    if isinstance(x, GlueRecord):
        maps = (x.arc_map_1, x.arc_map_2, x.iota_1, x.iota_2)
        return _construction_record(x.diagram) + repr([sorted(m.items()) for m in maps]) + "\n"
    m = len(x.crossings)
    parts = [serialize(x), repr(x.components), repr(x.split),
             "".join("1" if x.incoming[4 * m + k] else "0" for k in range(len(x.boundary)))]
    if not x.split:
        parts += [repr(x.regions),
                  repr([x.region_beside(e, side) for e in x.edges for side in "LR"])]
    return "\n".join(parts) + "\n"


def test_construction_is_pinned():
    texts = []
    inputs = [corpus.load(name) for name in corpus.names()] + seeded_diagrams(11, 24, 7)
    for d in inputs:
        for label, result in transform_outputs(d):
            texts += [label + "\n", _construction_record(result)]
    rng = random.Random(2016)
    sources = [corpus.source(name) for name in corpus.names()]
    for _ in range(700):
        try:
            parsed = parse_tangle(_mutated(rng, rng.choice(sources)))
        except TangleError as ex:
            parsed = ex.code
        texts.append(_construction_record(parsed))
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == CONSTRUCTION_PIN


def _check_faces(d) -> bool:
    """The regions, open regions, region beside every edge side and corner
    ints of ``d`` against the dart tracer of the oracles; True if ``d`` has
    faces."""
    assert d.corners == corner_ints(d), d.name
    if d.split:
        assert d.regions == () and {d.region_beside(e, s) for e in d.edges for s in "LR"} <= {None}
        return False
    regions, _, region_of_dart = trace_faces(d)
    assert d.regions == regions, d.name
    for e in d.edges:
        tail, head = d.flow_ends(e)
        assert (d.region_beside(e, "R"), d.region_beside(e, "L")) == (
            region_of_dart[tail], region_of_dart[head]), (d.name, e)
    return True


def test_face_tracing_matches_the_dart_oracle(corpus_names):
    inputs = [load(name) for name in corpus_names] + seeded_diagrams(11, 24, 7)
    diagrams = inputs + seeded_diagrams(5, 6, 16)
    for d in inputs:
        for _, result in transform_outputs(d):
            if isinstance(result, GlueRecord):
                result = result.diagram
            if isinstance(result, TangleDiagram):
                diagrams.append(result)
    traced = [d for d in diagrams if _check_faces(d)]
    # tangles and closed diagrams, split ones, a crossingless one, and
    # diagrams whose closed faces outnumber ten (so r10 sorts before r2)
    assert len(traced) > 2000 and len(diagrams) - len(traced) > 20
    assert any(not d.boundary for d in traced) and any(not d.crossings for d in traced)
    assert any(r.rid == "r10" for d in traced for r in d.regions)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 12))
def test_face_tracing_matches_the_dart_oracle_on_hypothesis_diagrams(seed, ends, m):
    d = random_diagram(random.Random(seed), ends, m)
    assert _check_faces(d)
    if d.n_open == 1:       # and its closures, which are 0-ended
        assert all(_check_faces(tr.close_tangle(d, a)) for a in d.arcs)


def test_region_corners_cover_each_quadrant_once(corpus_names):
    # the corners listed by the regions are exactly the quadrants, each
    # named with the region that lists it
    seen = 0
    for d in [load(name) for name in corpus_names] + seeded_diagrams(11, 24, 7):
        if d.split:
            continue
        corners = [(c, r.rid) for r in d.regions for c in r.corners]
        assert sorted(c for c, _ in corners) == [
            (ci, q) for ci in range(len(d.crossings)) for q in range(4)], d.name
        for (ci, q), rid in corners:
            assert d.regions[d.corners[ci][3 + q]].rid == rid
        seen += len(corners)
    assert seen == 504


def _bare_arc():
    """The non-split diagram without crossings that removing the kink of a
    closed one-crossing tangle leaves: one open strand from end to end."""
    return tr.rm1_remove(tr.close_tangle(load("crossing_pos"), "a"), 0)


def test_a_bare_arc_is_not_split_and_its_text_does_not_parse():
    # README's format section: transforms make crossingless open strands on
    # diagrams that are not split too, and their text has no crossing line
    d = _bare_arc()
    assert not d.crossings and not d.split and d.boundary == ("e1", "e1")
    with pytest.raises(TangleError) as e:
        parse_tangle(serialize(d))
    assert e.value.code == "E_NO_CROSSING"


def _check_corners(d) -> int:
    """The corner ints of ``d`` against the slot-role oracle and the region
    tables, and ``corner_codes`` against both; returns the
    number of corners checked."""
    cols = d.colours()
    _, region_at = _region_tables(d)
    weight = [7 ** (k + 1) for k in range(len(cols))]
    codes = d.corner_codes(weight, h=1000, delta=100000)
    assert len(d.corners) == len(codes) == len(d.crossings)
    for ci, (sign, u, o, *regions) in enumerate(d.corners):
        c = d.crossings[ci]
        assert (sign, cols[u], cols[o]) == (c.sign, d.colour_of_edge[c.under[0]],
                                            d.colour_of_edge[c.over[0]]), (d.name, ci)
        for q, ((eu, eo, h2, delta2), r) in enumerate(zip(CORNER_RULE[sign < 0], regions)):
            exp, want_h2, want_delta2 = _corner_codes(d, ci, q)
            got = {cols[u]: eu}
            got[cols[o]] = got.get(cols[o], 0) + eo
            assert (got, h2, delta2) == (exp, want_h2, want_delta2), (d.name, ci, q)
            rid = None if d.split else region_at[(ci, q)]
            assert r == (-1 if d.split else [x.rid for x in d.regions].index(rid))
            assert codes[ci][q] == (sum(e * weight[cols.index(v)] for v, e in exp.items())
                                    + 1000 * h2 + 100000 * delta2)
    return 4 * len(d.crossings)


def test_corner_ints_match_the_slot_roles(corpus_names):
    split = parse_tangle("tangle split\nends 2\nboundary a e1 b e2\n"
                         "crossing x1 + under e1 e3 over e3 e2\ncolour e1 t\ncircle u\n")
    diagrams = [load(n) for n in corpus_names] + seeded_diagrams(23, 40, 8) + [split]
    assert split.split and split.corners[0][3:] == (-1, -1, -1, -1)
    assert _check_corners(_bare_arc()) == 0 and _bare_arc().corners == ()
    # self-crossings, where the under and over colour codes add up
    assert any(u == o for d in diagrams for _, u, o, *_ in d.corners)
    assert sum(map(_check_corners, diagrams)) == 816


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 9))
def test_corner_ints_match_the_slot_roles_on_hypothesis_diagrams(seed, ends, m):
    _check_corners(random_diagram(random.Random(seed), ends, m))
