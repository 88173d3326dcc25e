"""The quadrant-table state sum and gradings against the 4^m brute force
of ``tests/oracles.py``, whose quadrant codes come from the slot roles."""

import random

from tanglenabla.gradings import generator_gradings
from tanglenabla.nabla import nabla_hat_all
from tanglenabla.verify import random_diagram

from conftest import load
from oracles import brute_force_gradings, brute_force_nabla_hat


def _diagrams(corpus_names):
    for name in corpus_names:
        d = load(name)
        if len(d.crossings) <= 6:
            yield d
    rng = random.Random(2016)
    for _ in range(48):
        yield random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))


def _generator_rows(d):
    return sorted((g.state.markers, g.ladybug_bits, g.alexander2, g.delta2)
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
