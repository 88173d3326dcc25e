import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tanglenabla.diagram import Site, TangleError, parse_tangle
from tanglenabla.laurent import LaurentError, LaurentPoly, binomial
from tanglenabla.nabla import (check_product, conway_potential, nabla_all, nabla_at_site,
                               nabla_hat, nabla_hat_all, packed_family)
from tanglenabla.states import enumerate_states
from tanglenabla import transform as tr
from tanglenabla import verify
from tanglenabla.verify import random_diagram

from conftest import load, seeded_diagrams
from oracles import brute_force_site, conway_skein, pack, packed_at_h, state_codes, substitute


def H(coef, **exp2):
    return LaurentPoly.monomial(coef, exp2)


def S(*labels):
    return Site(frozenset(labels))


def codes(d, q):
    """(colour codes in order, h2, delta2) of quadrant q of a one-crossing
    diagram, read through its one-marker state."""
    exp2, h2, delta2 = state_codes(d, (q,))
    return list(exp2.items()), h2, delta2


def test_positive_crossing_quadrant_labels():
    d = load("crossing_pos")
    assert codes(d, 1) == ([("u", 1), ("o", 1)], 0, 1)            # north
    assert codes(d, 2) == ([("u", -1), ("o", 1)], 0, 0)           # west
    assert codes(d, 3) == ([("u", -1), ("o", -1)], -2, 1)         # south
    assert codes(d, 0) == ([("u", 1), ("o", -1)], 0, 0)           # east


def test_negative_crossing_quadrant_labels():
    d = load("crossing_neg")
    assert codes(d, 2) == ([("u", -1), ("o", -1)], 0, -1)         # north
    assert codes(d, 3) == ([("u", -1), ("o", 1)], 0, 0)           # west
    assert codes(d, 0) == ([("u", 1), ("o", 1)], 2, -1)           # south
    assert codes(d, 1) == ([("u", 1), ("o", -1)], 0, 0)           # east


def test_single_crossing_site_values():
    pos = nabla_all(load("crossing_pos"))
    assert pos[S("a")] == H(1, o=1, u=-1)
    assert pos[S("b")] == H(-1, o=-1, u=-1)
    assert pos[S("c")] == H(1, o=-1, u=1)
    assert pos[S("d")] == H(1, o=1, u=1)
    neg = nabla_all(load("crossing_neg"))
    assert neg[S("a")] == H(1, o=1, u=-1)
    assert neg[S("b")] == H(-1, o=1, u=1)
    assert neg[S("c")] == H(1, o=-1, u=1)
    assert neg[S("d")] == H(1, o=-1, u=-1)


def test_clasp_table_values():
    t1 = LaurentPoly.var("t1")
    ti = LaurentPoly.var("ti")
    t1i = LaurentPoly.var("t1", -2)
    tii = LaurentPoly.var("ti", -2)
    plus = nabla_all(load("clasp"))
    assert plus[S("l")] == ti - tii
    assert plus[S("b")] == t1i * tii
    assert plus[S("r")] == t1 - t1i
    assert plus[S("t")] == t1 * ti
    minus = nabla_all(load("clasp_neg"))
    assert minus[S("l")] == -(ti - tii)
    assert minus[S("b")] == t1i * ti
    assert minus[S("r")] == -(t1 - t1i)
    assert minus[S("t")] == t1 * tii


def test_clasp_hat_value_specializes():
    hat = nabla_hat(load("clasp"), S("l"))
    assert hat == LaurentPoly.var("ti") + H(1, h=-2, ti=-2)
    assert hat.eval_h() == LaurentPoly.var("ti") - LaurentPoly.var("ti", -2)


def test_mutorient_value():
    vals = nabla_all(load("mutorient"))
    expected = H(1, p=4, r=2) - binomial("r") - H(1, p=-4, r=-2)
    assert vals[S("b")] == expected


def test_bad_site_rejected():
    d = load("clasp")
    with pytest.raises(TangleError) as e:
        nabla_hat(d, S("l", "t"))
    assert e.value.code == "E_BAD_SITE"
    with pytest.raises(TangleError):
        nabla_hat(d, S("zz"))
    with pytest.raises(TangleError) as e:
        nabla_hat(d, "l")           # not a Site
    assert e.value.code == "E_BAD_SITE"
    closed = tr.close_tangle(tr.close_tangle(d, "l"))   # 0 ends: no sites at all
    assert closed.sites() == []
    with pytest.raises(TangleError) as e:
        nabla_hat(closed, S())
    assert e.value.code == "E_BAD_SITE"


def test_one_site_state_sum_matches_the_full_family():
    # enumerate_states(d, s) finds exactly the states at s, in order, and
    # the frontier pass at s alone gives the value and the variable table
    # that the pass over every site gives at s
    sites = 0
    for d in seeded_diagrams(7, 200, 9):
        full = enumerate_states(d)
        hat = nabla_hat_all(d)
        for s in d.sites():
            assert enumerate_states(d, s) == [x for x in full if brute_force_site(d, x) == s]
            one = nabla_hat(d, s)
            assert one.vars == hat[s].vars and one.to_json() == hat[s].to_json()
            sites += 1
    assert sites >= 1000, sites


def test_split_diagram_vanishes():
    d = parse_tangle("""tangle split
ends 2
boundary a e1 b e3
crossing x1 + under e1 e2 over e2 e3
colour e1 t
circle s
""")
    assert d.split
    assert nabla_at_site(d, S()) == LaurentPoly.zero()
    cp = conway_potential(d)     # a zero with no variables: E_UNKNOWN_VAR
    assert cp.numerator == LaurentPoly.zero() and cp.quotient is None


def test_trefoil_conway_potential():
    d = load("trefoil")
    value = nabla_at_site(d, S())
    assert value == H(1, t=4) - H(1) + H(1, t=-4)   # t^2 - 1 + t^-2
    assert value == conway_skein(d)
    cp = conway_potential(d)
    assert cp.numerator == value
    assert cp.colour == "t"
    assert cp.quotient is None     # a knot value is not divisible
    assert "/" in cp.pretty()


def test_conway_potential_divides_with_closed_component():
    d = tr.close_tangle(load("pretzel_2m3"), "a")
    cp = conway_potential(d)
    assert cp.quotient is not None
    assert cp.numerator == cp.quotient * binomial(cp.colour)


def test_conway_potential_lets_unexpected_errors_through(monkeypatch):
    def broken(self, colour):
        raise RuntimeError("not a division failure")

    monkeypatch.setattr(LaurentPoly, "divide_binomial", broken)
    with pytest.raises(RuntimeError):
        conway_potential(load("trefoil"))


def test_conway_potential_needs_two_ends():
    with pytest.raises(TangleError) as e:
        conway_potential(load("clasp"))
    assert e.value.code == "E_NOT_TWO_ENDED"


def test_kinked_strand_value_is_one():
    unknot = parse_tangle("""tangle kink
ends 2
boundary a e1 b e3
crossing x1 + under e1 e2 over e2 e3
colour e1 t
""")
    assert nabla_at_site(unknot, S()) == LaurentPoly.integer(1)


def test_hat_values_use_integral_h(corpus_names):
    for name in corpus_names:
        d = load(name)
        for s, p in nabla_hat_all(d).items():
            assert "h" not in p.vars or all(e[p.vars.index("h")] % 2 == 0 for e in p.terms), (
                name, str(s))


def test_link_symmetry_under_minus_inverse():
    # for a 2-ended tangle, substituting -1/t for every colour fixes the
    # empty-site value (the reversal law composed with invariance of the
    # underlying link)
    import random
    from tanglenabla.verify import random_diagram
    rng = random.Random(6021)
    for _ in range(25):
        d = random_diagram(rng, 2, rng.randint(1, 6))
        p = nabla_at_site(d, S())
        q = p
        for c in d.colours():
            if c in q.vars:
                q = substitute(q, c, {c: -2}, sign=-1)
        assert q == p, p.pretty()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 9))
def test_decoded_tables_are_the_validated_ones(seed, ends, m):
    # the decoder and eval_h skip the validating constructor: their tables
    # must be the ones it gives, variables and terms in the same order
    d = random_diagram(random.Random(seed), ends, m)
    hats = nabla_hat_all(d)
    for p in [*hats.values(), *nabla_all(d).values(), *(nabla_hat(d, s) for s in hats)]:
        q = LaurentPoly(p.vars, p.terms)
        assert type(p.vars) is tuple and p.vars == q.vars
        assert list(p.terms.items()) == list(q.terms.items())


def _decoded_at_h(d) -> tuple[int, int]:
    """Every site value of ``d``, in full and one site at a time, against
    the hatted value evaluated by ``eval_h``, compared by ``to_json()``
    (which pins the variable table); returns the number of zero sites and
    of non-zero sites whose table keeps a colour that cancelled at h = -1."""
    hats, values = nabla_hat_all(d), nabla_all(d)
    assert list(values) == list(hats) == d.sites()
    zero = cancelled = 0
    for s, hat in hats.items():
        want = hat.eval_h().to_json()
        assert values[s].to_json() == nabla_at_site(d, s).to_json() == want, (d.name, str(s))
        p = values[s]
        zero += not p
        cancelled += bool(p) and any(not any(e[i] for e in p.terms) for i in range(len(p.vars)))
    return zero, cancelled


def test_values_decode_at_h_minus_one_as_eval_h_does():
    diagrams = seeded_diagrams(1717, 60, 9) + [load("mutorient")]
    zero, cancelled = map(sum, zip(*map(_decoded_at_h, diagrams)))
    assert zero > 0 and cancelled > 0, (zero, cancelled)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 10))
def test_values_decode_at_h_minus_one_as_eval_h_does_on_hypothesis_diagrams(seed, ends, m):
    _decoded_at_h(random_diagram(random.Random(seed), ends, m))


def _layouts(d, shared):
    """A layout of d's colours from digit 1 on; with ``shared``, every other
    colour moved onto the digit of the one before it."""
    cols = d.colours()
    return {c: (k - (k % 2 == 0) if shared else k) for k, c in enumerate(cols, 1)}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), m1=st.integers(1, 6), m2=st.integers(1, 6),
       shared=st.booleans())
def test_packed_terms_multiply_by_adding_their_ints(seed, m1, m2, shared):
    # each family packs as its polynomials do, in full and at h = -1, also
    # with colours sharing a digit; and a product of two packed families,
    # term ints added, is the packed product of their polynomials
    rng = random.Random(seed)
    d1, d2 = (random_diagram(rng, rng.choice((2, 4, 6)), m) for m in (m1, m2))
    lay = _layouts(d1, shared)
    down = {c: k - 1 for c, k in lay.items()}
    assert packed_family(d1, lay) == {s: pack(p, lay) for s, p in nabla_hat_all(d1).items()}
    assert packed_family(d1, lay, True) == {s: pack(p, down) for s, p in nabla_all(d1).items()}
    names = {c: f"x{k}" for c, k in lay.items()}   # colours on one digit, one name
    lay2 = {c: k + len(lay) for k, c in enumerate(d2.colours(), 1)}
    both = {**{f"x{k}": k for k in lay.values()}, **lay2}
    f1, f2 = packed_family(d1, lay), packed_family(d2, lay2)
    hats_1, hats_2 = nabla_hat_all(d1), nabla_hat_all(d2)
    for s1, x1 in f1.items():
        for s2, x2 in f2.items():
            prod: dict[int, int] = {}
            for a, c in x1.items():
                for b, e in x2.items():
                    prod[a + b] = prod.get(a + b, 0) + c * e
            assert prod == pack(hats_1[s1].rename(names) * hats_2[s2], both), (str(s1), str(s2))


def _packed_at_h_matches_the_collapse(d) -> int:
    """The family at h = -1 from the signed pass against the hatted family
    taken to h = -1 term by term, under one digit per colour and under one
    digit for all colours; returns the number of hatted terms that cancel."""
    cancelled = 0
    for lay in (verify._layout(d), dict.fromkeys(d.colours(), 1)):
        hats = packed_family(d, lay)
        at_h = packed_family(d, lay, True)
        assert at_h == {s: packed_at_h(t) for s, t in hats.items()}, (d.name, lay)
        cancelled += sum(len(t) for t in hats.values()) - sum(len(t) for t in at_h.values())
    return cancelled


def test_packed_family_at_h_matches_the_collapse_on_seeded_diagrams():
    diagrams = seeded_diagrams(2024, 40, 9) + [load("mutorient")]
    # under one digit for all colours most hatted terms cancel
    assert sum(map(_packed_at_h_matches_the_collapse, diagrams)) >= 300


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), ends=st.sampled_from((2, 4, 6)),
       m=st.integers(1, 10))
def test_packed_family_at_h_matches_the_collapse_on_hypothesis_diagrams(seed, ends, m):
    _packed_at_h_matches_the_collapse(random_diagram(random.Random(seed), ends, m))


def test_packing_refuses_a_term_that_a_product_could_overflow():
    # a crossing moves a digit by at most 2: a product of families keeps its
    # digits below 2^19 while the crossings add up to less than 2^18
    def crossings(m):
        return SimpleNamespace(crossings=range(m))

    check_product(crossings(1 << 17), crossings((1 << 17) - 1))
    for glue in (check_product, lambda a, b: verify._glued_sums(None, a, b, {})):
        with pytest.raises(LaurentError) as e:
            glue(crossings(1 << 17), crossings(1 << 17))
        assert e.value.code == "E_EXPONENT_RANGE"
