import json
import random
import sys

from hypothesis import given, settings, strategies as st

from tanglenabla import corpus, states, transform as tr
from tanglenabla.diagram import Site, parse_tangle
from tanglenabla.states import enumerate_states
from tanglenabla.verify import random_diagram

from conftest import cli_on, load, seeded_diagrams
from oracles import brute_force_site, brute_force_states, state_defect


def test_single_crossing_has_four_states():
    d = load("crossing_pos")
    states = enumerate_states(d)
    assert states == [(0,), (1,), (2,), (3,)]
    sites = sorted(str(brute_force_site(d, x)) for x in states)
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
        assert brute_force_site(d, x) == Site(frozenset())


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


def _assert_terms_match_brute_force(d):
    """Each int term of ``frontier`` against the 4^m filter.  Under nabla's
    colour digits, and with every colour and h on one digit so that many
    states share a sum, a term's count and (with ``least``) least state are
    the number and the least marker code of the states at its site with
    its sum; counts alone give the same counts, and a pass at one site the
    same terms."""
    m, n = len(d.crossings), len(d.colours())
    k = states.count_bits(m)
    marks = states.marker_codes(m)
    brute = [(x, brute_force_site(d, x)) for x in brute_force_states(d)]
    for codes in (d.corner_codes([1 << 20 * j for j in range(1, n + 1)], h=1),
                  d.corner_codes([1] * n, h=1)):
        want: dict = {}
        for x, s in brute:
            e = sum(row[q] for row, q in zip(codes, x))
            code = sum(row[q] for row, q in zip(marks, x))
            count, least = want.setdefault(s, {}).get(e, (0, code))
            want[s][e] = (count + 1, min(least, code))
        got = states.frontier(d, None, codes, least=True)
        assert {s: {e: (v & (1 << k) - 1, v >> k) for e, v in terms.items()}
                for s, terms in got.items()} == want, d.name
        assert states.frontier(d, None, codes) == {
            s: {e: c for e, (c, _) in terms.items()} for s, terms in want.items()}, d.name
        for s in d.sites():
            assert states.frontier(d, s, codes, least=True) == (
                {s: got[s]} if s in got else {}), (d.name, str(s))
    return sum(c > 1 for terms in want.values() for c, _ in terms.values())


def test_int_terms_match_the_brute_force_on_seeded_diagrams():
    merged = sum(_assert_terms_match_brute_force(d) for d in seeded_diagrams(4, 40, 6))
    # with every colour on one digit, many terms count several states
    assert merged >= 80, merged


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 6))
def test_int_terms_match_the_brute_force_on_hypothesis_diagrams(seed, ends, m):
    _assert_terms_match_brute_force(random_diagram(random.Random(seed), ends, m))


def test_deterministic_order():
    d = load("pretzel_2m3")
    a = enumerate_states(d)
    b = enumerate_states(d)
    assert a == b == sorted(a)


def _brute_force_states_output(d, fmt):
    """The stdout of ``states``, from the 4^m filter and its sites."""
    xs = brute_force_states(d)
    if fmt == "json":
        return json.dumps({"diagram": d.name, "states": [
            {"markers": list(x), "site": sorted(brute_force_site(d, x).arcs)} for x in xs]},
            indent=2, sort_keys=True) + "\n"
    return "\n".join(" ".join(f"x{i + 1}:q{q}" for i, q in enumerate(x))
                     + f"  site {brute_force_site(d, x)}" for x in xs) + "\n"


def _assert_states_command(monkeypatch, d):
    _assert_ordered_oracle(d)
    for fmt in ("json", "text"):
        assert cli_on(monkeypatch, d, "--format", fmt, "states") == \
            (0, _brute_force_states_output(d, fmt)), (d.name, fmt)


def test_states_command_matches_the_brute_force(monkeypatch):
    # a bare arc (m = 0: one state, no markers) and a split diagram (none)
    bare = tr.rm1_remove(tr.close_tangle(load("crossing_pos"), "a"), 0)
    split = parse_tangle(corpus.source("clasp") + "circle u\n")
    assert not bare.crossings and not bare.split and split.split
    for d in (bare, split):
        _assert_states_command(monkeypatch, d)
    assert enumerate_states(bare) == [()] and enumerate_states(split) == []
    seen = set()

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6, 8)),
           m=st.integers(1, 6))
    def check(seed, ends, m):
        d = random_diagram(random.Random(seed), ends, m)
        _assert_states_command(monkeypatch, d)
        seen.add((2 * d.n_open, d.m_closed > 0))

    check()
    assert {(n, False) for n in (2, 4, 6, 8)} | {(2, True), (4, True)} <= seen, seen


def test_each_command_makes_one_pass(monkeypatch):
    # the pass builds the walk's tables and memo: every name bound to it in
    # the package is counted, so a second pass cannot hide behind an import
    passes = []
    real = states.frontier

    def counted(d, s, codes, least=False):
        passes.append(s)
        return real(d, s, codes, least)

    holders = [mod for name, mod in sys.modules.items()
               if name.split(".")[0] == "tanglenabla" and getattr(mod, "frontier", None) is real]
    assert len(holders) >= 4, holders
    for mod in holders:
        monkeypatch.setattr(mod, "frontier", counted)
    d = load("mutorient")
    site = str(d.sites()[0])
    for argv in (["states"], ["gradings"], ["euler"], ["euler", "--site", site],
                 ["nabla"], ["nabla", "--hat"], ["nabla", "--site", site]):
        for fmt in ("json", "text"):
            passes.clear()
            assert cli_on(monkeypatch, d, "--format", fmt, *argv)[0] == 0, argv
            assert len(passes) == 1, (argv, fmt, passes)
