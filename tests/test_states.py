import random

from tanglenabla.diagram import Site
from tanglenabla.states import enumerate_states, site_of
from tanglenabla.verify import random_diagram

from conftest import load
from oracles import brute_force_states, state_defect


def test_single_crossing_has_four_states():
    d = load("crossing_pos")
    states = enumerate_states(d)
    assert [x.markers for x in states] == [(0,), (1,), (2,), (3,)]
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
            assert state_defect(d, x.markers) is None, (name, x)


def test_partition_property(corpus_names):
    for name in corpus_names:
        d = load(name)
        assert sum(_counts_by_site(d).values()) == len(enumerate_states(d))


def test_brute_force_oracle_on_corpus(corpus_names):
    for name in corpus_names:
        d = load(name)
        if len(d.crossings) > 4:
            continue
        assert sorted(brute_force_states(d)) == \
            sorted(x.markers for x in enumerate_states(d)), name


def test_brute_force_oracle_on_random_diagrams():
    rng = random.Random(4, )
    for _ in range(25):
        d = random_diagram(rng, rng.choice((2, 4)), rng.randint(1, 4))
        assert sorted(brute_force_states(d)) == \
            sorted(x.markers for x in enumerate_states(d))


def test_deterministic_order():
    d = load("pretzel_2m3")
    a = [x.markers for x in enumerate_states(d)]
    b = [x.markers for x in enumerate_states(d)]
    assert a == b == sorted(a)
