"""The site values and gradings against the 4^m brute force of
``tests/oracles.py``, whose quadrant codes come from the slot roles, and
the frontier pass against the sum over the enumerated states."""

import random

from hypothesis import given, settings, strategies as st

from tanglenabla.diagram import parse_tangle
from tanglenabla.gradings import generator_gradings
from tanglenabla.nabla import nabla_all, nabla_at_site, nabla_hat, nabla_hat_all
from tanglenabla.verify import random_diagram

from conftest import load, seeded_diagrams
from oracles import brute_force_gradings, brute_force_nabla_hat, state_sum_nabla_hat
from test_state_pins import PINS


def _diagrams(corpus_names):
    for name in corpus_names:
        d = load(name)
        if len(d.crossings) <= 6:
            yield d
    rng = random.Random(2016)
    for _ in range(48):
        yield random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))


def _generator_rows(d):
    return sorted((g.markers, g.ladybug_bits, g.alexander2, g.delta2)
                  for g in generator_gradings(d))


def test_state_sum_and_gradings_match_brute_force(corpus_names):
    nonzero = graded = 0
    for d in _diagrams(corpus_names):
        hat = nabla_hat_all(d)
        # to_json() also pins the variable table, which == ignores
        expected = brute_force_nabla_hat(d)
        assert {s: p.to_json() for s, p in hat.items()} == \
            {s: p.to_json() for s, p in expected.items()}, d.name
        nonzero += any(hat.values())
        if not d.split:
            assert _generator_rows(d) == brute_force_gradings(d), d.name
            graded += d.m_closed > 0
    # the comparison is not vacuous: most diagrams have a non-zero value,
    # and some carry closed components (decoration bits)
    assert nonzero >= 30 and graded >= 5, (nonzero, graded)


# The frontier pass of nabla against two oracles: the sum over the
# enumerated states (grouped by brute_force_site, or enumerated at one site) and the
# 4^m brute force.

SPLIT = """tangle split
ends 2
boundary a e1 b e3
crossing x1 + under e1 e2 over e2 e3
colour e1 t
circle s
"""


def _cancelled(p):
    """Variables of p's table that no term of p uses."""
    return [v for i, v in enumerate(p.vars) if not any(e[i] for e in p.terms)]


def _three_way(d):
    """Compare every site by to_json() (which pins the variable table) in
    full and one site at a time; returns the sites of nabla_all with a
    variable whose terms cancelled at h = -1."""
    frontier, values = nabla_hat_all(d), nabla_all(d)
    walk = state_sum_nabla_hat(d)
    brute = brute_force_nabla_hat(d)
    assert list(frontier) == list(walk) == d.sites() and set(brute) == set(frontier)
    cancelled = 0
    for s in d.sites():
        want = brute[s].to_json()
        assert frontier[s].to_json() == walk[s].to_json() == want, (d.name, str(s))
        assert nabla_hat(d, s).to_json() == state_sum_nabla_hat(d, s).to_json() == want
        value = nabla_at_site(d, s)
        assert value.to_json() == walk[s].eval_h().to_json() == values[s].to_json()
        cancelled += bool(_cancelled(value))
    return cancelled


def test_frontier_matches_both_oracles_on_seeded_diagrams():
    diagrams = seeded_diagrams(2016, 40, 7) + [parse_tangle(SPLIT)]
    cancelled = sum(_three_way(d) for d in diagrams)
    # 2, 4 and 6 ends, diagrams with and without closed components, a split
    # diagram, and sites whose table keeps a variable that cancelled
    assert {d.n_open for d in diagrams} == {1, 2, 3}
    assert {d.m_closed > 0 for d in diagrams} == {True, False}
    assert diagrams[-1].split and not any(nabla_hat_all(diagrams[-1]).values())
    assert cancelled >= 5, cancelled


def test_frontier_matches_both_oracles_on_hypothesis_diagrams():
    kinds = set()

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
           m=st.integers(1, 7))
    def check(seed, ends, m):
        d = random_diagram(random.Random(seed), ends, m)
        _three_way(d)
        kinds.add((ends, d.m_closed > 0))

    check()
    assert {k for k, _ in kinds} == {2, 4, 6} and {c for _, c in kinds} == {True, False}


def test_frontier_matches_the_state_sum_at_fourteen_to_twenty_crossings():
    # the diagrams of test_state_pins (up to 14,144 states, beyond brute
    # force) and two in which a term's least state reaches it only at a
    # later merge, which the variable table depends on
    cases = [(seed, ends, m) for seed, ends, m, *_ in PINS] + [(32, 6, 14), (167, 6, 16)]
    for seed, ends, m in cases:
        d = random_diagram(random.Random(seed), ends, m)
        walk = state_sum_nabla_hat(d)
        assert {s: p.to_json() for s, p in nabla_hat_all(d).items()} == \
            {s: p.to_json() for s, p in walk.items()}, seed
        for s in d.sites():
            assert nabla_hat(d, s).to_json() == walk[s].to_json(), (seed, str(s))
