import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglenabla import corpus
from tanglenabla.diagram import (TangleDiagram, TangleError, linking_number, parse_tangle,
                                 serialize)
from tanglenabla.laurent import LaurentError
from tanglenabla.nabla import nabla_all
from tanglenabla.transform import GlueRecord
from tanglenabla.verify import random_diagram

from conftest import load, seeded_diagrams, transform_outputs
from oracles import canonical_form, isomorphic


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
    assert [q.region for q in d.quadrants[0]] == ["c", "d", "a", "b"]


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


def test_compute_regions_contract():
    from tanglenabla.diagram import compute_regions
    d = load("clasp")
    regions = compute_regions(d)
    assert regions is d.regions
    split = parse_tangle("""tangle split
ends 2
boundary a e1 b e3
crossing x1 + under e1 e2 over e2 e3
colour e1 t
circle s
""")
    with pytest.raises(TangleError) as e:
        compute_regions(split)
    assert e.value.code == "E_SPLIT"


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
# the rename and reversal rules and the side table were restated.
CONSTRUCTION_PIN = "83c55581c6be3a2334bb32145522624998df7ffe8850c791a288c6e300566359"


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
            assert d.quadrants[ci][q].region == rid
        seen += len(corners)
    assert seen == 504
