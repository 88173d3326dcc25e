import random

from hypothesis import given, settings, strategies as st

from tanglenabla.diagram import Site
from tanglenabla.states import enumerate_states, site_of
from tanglenabla.verify import random_diagram

from conftest import load, seeded_diagrams
from oracles import brute_force_site, brute_force_states, state_defect


def test_single_crossing_has_four_states():
    d = load("crossing_pos")
    states = enumerate_states(d)
    assert states == [(0,), (1,), (2,), (3,)]
    sites = sorted(str(site_of(d, x)) for x in states)
    assert sites == ["a", "b", "c", "d"]


def _counts_by_site(d):
    return {str(s): len(enumerate_states(d, s)) for s in d.sites()}


def test_clasp_state_distribution():
    counts = _counts_by_site(load("clasp"))
    assert counts == {"l": 2, "b": 1, "r": 2, "t": 1}


def test_pretzel_state_distribution():
    counts = _counts_by_site(load("pretzel_2m3"))
    assert counts == {"a": 6, "b": 5, "c": 6, "d": 5}
    assert sum(counts.values()) == 22


def test_trefoil_site_is_empty_set():
    d = load("trefoil")
    for x in enumerate_states(d):
        assert site_of(d, x) == Site(frozenset())


def test_every_state_satisfies_occupancy(corpus_names):
    for name in corpus_names:
        d = load(name)
        for x in enumerate_states(d):
            assert state_defect(d, x) is None, (name, x)


def test_partition_property(corpus_names):
    for name in corpus_names:
        d = load(name)
        assert sum(_counts_by_site(d).values()) == len(enumerate_states(d))


def _assert_ordered_oracle(d):
    """The states, in full and per site, are the 4^m filter's in its
    product(range(4)) order, which is lex order."""
    expected = brute_force_states(d)
    assert enumerate_states(d) == expected, d.name
    for s in d.sites():
        at_s = [m for m in expected if brute_force_site(d, m) == s]
        assert enumerate_states(d, s) == at_s, (d.name, str(s))


def test_brute_force_oracle_on_corpus(corpus_names):
    for name in corpus_names:
        d = load(name)
        if len(d.crossings) <= 6:
            _assert_ordered_oracle(d)


def test_brute_force_oracle_on_random_diagrams():
    diagrams = seeded_diagrams(4, 40, 6)
    for d in diagrams:
        _assert_ordered_oracle(d)
    # 2, 4 and 6 ends occur, some diagrams carry closed components
    assert {d.n_open for d in diagrams} == {1, 2, 3}
    assert sum(d.m_closed > 0 for d in diagrams) >= 5


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 7))
def test_brute_force_oracle_on_hypothesis_diagrams(seed, ends, m):
    _assert_ordered_oracle(random_diagram(random.Random(seed), ends, m))


def test_deterministic_order():
    d = load("pretzel_2m3")
    a = enumerate_states(d)
    b = enumerate_states(d)
    assert a == b == sorted(a)
