"""The ``gradings`` table and ``generator_gradings``, both read off the
packed generator keys of ``gradings.generator_keys``, against the
generators listed state by state (``oracles.rescan_generators``) and the
4^m brute force; and the ``states`` command, which takes its sites from
the final keys of the one pass over the states, against its rendering
state by state with ``site_of``."""

import json
import random

from hypothesis import given, settings, strategies as st

import tanglenabla
from tanglenabla import cli, gradings, states, transform as tr
from tanglenabla.diagram import Site
from tanglenabla.gradings import generator_gradings, generator_keys
from tanglenabla.states import enumerate_states, site_of
from tanglenabla.verify import random_diagram

import oracles
from conftest import cli_on, load
from oracles import brute_force_gradings, gradings_output, rescan_generators

# _grown(seed) for these seeds: 0 to 5 closed components (so up to 32
# decorations, and k takes 5 bits), 2, 4, 6 and 8 ends, 14 to 16 crossings
GROWN = (86, 107, 208, 315, 161, 285, 205, 6, 314, 31, 177, 266, 147, 10)


def _grown(seed):
    rng = random.Random(seed)
    ends = rng.choice((2, 4, 6, 8))
    return random_diagram(rng, ends, rng.randint(8, 16))


def _check(monkeypatch, d, brute=False):
    """generator_gradings(d) and both formats of ``gradings`` against the
    rescan (and the brute force), and both formats of ``states`` against
    their rendering state by state; returns the rescan's generators."""
    want = rescan_generators(d)
    assert generator_gradings(d) == want, d.name
    if brute:
        assert sorted((g.markers, g.ladybug_bits, g.alexander2, g.delta2)
                      for g in want) == brute_force_gradings(d), d.name
    for fmt in ("json", "text"):
        assert cli_on(monkeypatch, d, "--format", fmt, "gradings") == \
            (0, gradings_output(d.name, want, fmt)), (d.name, fmt)
        assert cli_on(monkeypatch, d, "--format", fmt, "states") == \
            (0, _states_output(d, fmt)), (d.name, fmt)
    return want


def _largest_group(d):
    """The most states of one site that share a head (gradings without
    decoration): the writer renders such a group's head once per
    decoration and writes its states as one run."""
    return max(len(xs) for _, groups in generator_keys(d)[1] for xs in groups.values())


def test_gradings_match_the_rescan_on_grown_diagrams(monkeypatch):
    diagrams = [_grown(seed) for seed in GROWN]
    gens = [g for d in diagrams for g in _check(monkeypatch, d)]
    assert min(map(_largest_group, diagrams)) >= 2
    assert sorted(d.m_closed for d in diagrams) == [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert {2 * d.n_open for d in diagrams} == {2, 4, 6, 8}
    assert max(len(d.crossings) for d in diagrams) == 16
    assert max(len(generator_keys(d)[0].dec_keys) for d in diagrams) == 32
    # digits below their bias occur: negative Alexander entries and deltas
    assert min(e for g in gens for _, e in g.alexander2) < 0
    assert min(g.delta2 for g in gens) < 0


def test_gradings_match_the_brute_force(monkeypatch, corpus_names):
    diagrams = [load(n) for n in corpus_names]
    rng = random.Random(2026)
    diagrams += [random_diagram(rng, ends, rng.randint(1, 6))
                 for _ in range(20) for ends in (2, 4, 6, 8)]
    checked, widths = set(), set()
    for d in diagrams:
        if not d.split and len(d.crossings) <= 6:
            _check(monkeypatch, d, brute=True)
            checked.add((2 * d.n_open, d.m_closed > 0))
            widths.add(len(d.crossings) % 4)
    assert {(n, c) for n in (2, 4, 6, 8) for c in (False, True)} <= checked, checked
    # the leading piece of the markers' table holds m % 4 markers (4 for 0)
    assert widths == {0, 1, 2, 3}, widths


def test_gradings_of_a_bare_arc(monkeypatch):
    # no crossing: one state, whose markers are an empty list
    d = tr.rm1_remove(tr.close_tangle(load("crossing_pos"), "a"), 0)
    assert not d.crossings and not d.split
    assert [g.markers for g in _check(monkeypatch, d, brute=True)] == [()]
    code, out = cli_on(monkeypatch, d, "--format", "json", "gradings")
    assert [g["markers"] for g in json.loads(out)["generators"]] == [[]]


def test_gradings_match_the_rescan_on_hypothesis_diagrams(monkeypatch):
    closed = set()

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6, 8)),
           m=st.integers(1, 9))
    def check(seed, ends, m):
        d = random_diagram(random.Random(seed), ends, m)
        if not d.split:
            _check(monkeypatch, d, brute=len(d.crossings) <= 6)
            closed.add(d.m_closed)

    check()
    assert {0, 1, 2} <= closed, closed


def _states_output(d, fmt):
    """The stdout of ``states``, rendered state by state with site_of."""
    xs = enumerate_states(d)
    if fmt == "json":
        return json.dumps({"diagram": d.name, "states": [
            {"markers": list(x), "site": sorted(site_of(d, x).arcs)} for x in xs]},
            indent=2, sort_keys=True) + "\n"
    return "\n".join(" ".join(f"x{i + 1}:q{q}" for i, q in enumerate(x))
                     + f"  site {site_of(d, x)}" for x in xs) + "\n"


def test_no_state_is_rescanned(monkeypatch):
    # gradings and states read every state's gradings and site off the
    # pass: with site_of and state_codes raising and Site hashes counted,
    # both still print what the per-state rescan prints
    cases = [(d, cmd, fmt, gradings_output(d.name, rescan_generators(d), fmt)
              if cmd == "gradings" else _states_output(d, fmt))
             for d in map(_grown, (10, 205, 208))
             for cmd in ("gradings", "states") for fmt in ("json", "text")]

    def boom(*args):
        raise AssertionError("a per-state rescan ran")

    for mod in (tanglenabla, states, gradings, cli):
        monkeypatch.setattr(mod, "site_of", boom, raising=False)
    monkeypatch.setattr(oracles, "state_codes", boom)
    hashes = []
    real_hash = Site.__hash__
    monkeypatch.setattr(Site, "__hash__", lambda s: hashes.append(s) or real_hash(s))
    for d, cmd, fmt, out in cases:
        hashes.clear()
        assert cli_on(monkeypatch, d, "--format", fmt, cmd) == (0, out), (d.name, cmd, fmt)
        assert len(hashes) <= len(d.sites()), (d.name, cmd, fmt, len(hashes))
