import functools
import json
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglenabla.laurent import LaurentError, LaurentPoly, binomial

import oracles
from oracles import substitute


def mono(coef, **exps):
    return LaurentPoly.monomial(coef, {v: 2 * e for v, e in exps.items()})


def half(coef, **exps2):
    return LaurentPoly.monomial(coef, exps2)


def test_product_of_binomials():
    t = LaurentPoly.var("t")
    tinv = LaurentPoly.var("t", -2)
    assert (t - tinv) * (t + tinv) == mono(1, t=2) - mono(1, t=-2)


def test_additive_inverse_gives_empty_terms():
    p = mono(3, t=1) + mono(-2, s=4)
    assert (p + (-p)).terms == {}
    assert p - p == LaurentPoly.zero()


def test_half_exponent_bookkeeping():
    a = half(1, o=1, u=1)     # o^1/2 u^1/2
    b = half(1, o=1, u=-1)    # o^1/2 u^-1/2
    assert a * b == mono(1, o=1)
    assert a.pretty() == "o^1/2 u^1/2"


def test_substitute_inverse_pair():
    p = mono(1, t=1) + mono(1, h=1)
    q = substitute(p, "t", {"h": -2, "t": -2})
    assert q == LaurentPoly.monomial(1, {"h": -2, "t": -2}) + mono(1, h=1)
    # inverting twice restores
    r = substitute(substitute(p, "t", {"t": -2}), "t", {"t": -2})
    assert r == p


def test_substitute_mirror_monomial():
    p = half(1, o=1, u=1)
    q = substitute(substitute(p, "o", {"o": -2}), "u", {"u": -2})
    assert q == half(1, o=-1, u=-1)


def test_substitute_unknown_variable():
    with pytest.raises(LaurentError) as e:
        substitute(mono(1, t=1), "x", {"t": 2})
    assert e.value.code == "E_UNKNOWN_VAR"


def test_substitute_negative_on_half_exponent_rejected():
    p = half(1, t=1)
    with pytest.raises(LaurentError):
        substitute(p, "t", {"t": 2}, sign=-1)


def test_eval_h():
    p = LaurentPoly.monomial(1, {"h": -2, "o": -1, "u": -1})
    assert p.eval_h() == half(-1, o=-1, u=-1)
    assert mono(5, x=2).eval_h() == mono(5, x=2)
    hp = mono(1, t=1) + LaurentPoly.monomial(1, {"t": 2, "h": 2})
    assert hp.eval_h() == LaurentPoly.zero()


def test_eval_h_half_exponent_rejected():
    p = LaurentPoly.monomial(1, {"h": 1})
    with pytest.raises(LaurentError) as e:
        p.eval_h()
    assert e.value.code == "E_HALF_H"


def test_equal_up_to_unit():
    p = mono(1, t=1) + mono(1)
    ok, wit = p.equal_up_to_unit(p * mono(1, t=2))
    assert ok and wit == (1, {"t": 4})
    ok, wit = p.equal_up_to_unit(-p)
    assert ok and wit == (1, {}) or wit == (-1, {})
    ok, _ = (mono(1, t=1) + mono(1)).equal_up_to_unit(mono(1, t=1) - mono(1))
    assert not ok


def test_divide_binomial_examples():
    t2 = mono(1, t=2) - mono(1, t=-2)
    assert t2.divide_binomial("t") == mono(1, t=1) + mono(1, t=-1)
    delta = mono(3, t=1, s=2) - mono(1)
    assert (binomial("c") * delta).divide_binomial("c") == delta
    with pytest.raises(LaurentError) as e:
        (mono(1, t=2) + mono(1, t=-2)).divide_binomial("t")
    assert e.value.code == "E_NOT_DIVISIBLE"
    assert e.value.payload  # remainder is reported


@pytest.mark.parametrize("p, rem", [
    # t^2 + t^-2 = (t + t^-1)(t - t^-1) + 2 t^-2
    (mono(1, t=2) + mono(1, t=-2), mono(2, t=-2)),
    # per power of s: t^3 + 2 t^-1 = (t^2 + 1)(t - t^-1) + 3 t^-1, and s t^2
    # is left whole
    (mono(1, t=3) + mono(2, t=-1) + mono(1, s=1, t=2), mono(3, t=-1) + mono(1, s=1, t=2)),
    # t^(3/2) + t^(-1/2) = t^(1/2)(t - t^-1) + 2 t^(-1/2)
    (half(1, t=3) + half(1, t=-1), half(2, t=-1)),
], ids=["one_group", "two_groups", "half_exponents"])
def test_divide_binomial_reports_the_exact_remainder(p, rem):
    with pytest.raises(LaurentError) as e:
        p.divide_binomial("t")
    assert e.value.code == "E_NOT_DIVISIBLE"
    got = e.value.payload
    assert got.vars == p.vars and got == rem, got.pretty()


def test_ring_axioms_randomized():
    rng = random.Random(20240805)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            key = (rng.randint(-4, 4), rng.randint(-4, 4))
            terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
        return LaurentPoly(("a", "b"), terms)

    for _ in range(200):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_divide_binomial_random_roundtrip():
    rng = random.Random(77)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(-5, 5), rng.randint(-3, 3))
            terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
        p = LaurentPoly(("c", "x"), terms)
        assert (p * binomial("c")).divide_binomial("c") == p


def test_json_roundtrip_and_canonical_order():
    p = mono(2, t=1) - mono(1, t=-1) + LaurentPoly.monomial(1, {"h": 2, "t": 1})
    data = p.to_json()
    assert data["vars"][-1] == "h"
    assert all(isinstance(t["coef"], str) for t in data["terms"])
    assert LaurentPoly.from_json(data) == p


def test_variable_union_is_order_insensitive():
    p = LaurentPoly(("a",), {(2,): 1})
    q = LaurentPoly(("b", "a"), {(2, 0): 1, (0, -2): 3})
    assert (p + q) - q == p


def test_rename_merges_variables():
    p = mono(1, p=1, q=-3)
    assert p.rename({"p": "t", "q": "t"}) == mono(1, t=-2)


def _fold(monomials):
    """The reference for LaurentPoly.sum: a left-to-right + fold of one
    monomial per entry, a repeated variable's exponents added first."""
    def merged(pairs):
        exp2 = {}
        for v, e in pairs:
            exp2[v] = exp2.get(v, 0) + e
        return exp2
    return functools.reduce(
        operator.add, (LaurentPoly.monomial(c, merged(p)) for c, p in monomials),
        LaurentPoly.zero())


def test_sum_matches_the_fold():
    cases = [
        [],
        [(0, [("t", 2)])],                                          # zero coefficient
        [(1, [("a", 2), ("b", 1)]), (-1, [("a", 2), ("b", 1)])],    # terms cancel
        [(1, [("a", 1), ("b", 3), ("a", -1)])],                     # repeat summing to 0
        [(2, [("a", 1), ("a", 3)]), (1, [("a", 4)])],               # repeat, then merge
        [(1, [("delta", 2), ("h", -2), ("t2", 1)]), (1, [("t1", 1), ("t2", 0)])],
        [(1, [("s", 0)]), (3, [])],                                 # zero exponent
    ]
    rng = random.Random(1601)
    names = ("h", "delta", "p", "q", "r", "t")
    for _ in range(400):
        cases.append([(rng.randint(-2, 2),
                       [(rng.choice(names), rng.randint(-3, 3))
                        for _ in range(rng.randint(0, 4))])
                      for _ in range(rng.randint(0, 6))])
    for monomials in cases:
        got, want = LaurentPoly.sum(iter(monomials)), _fold(monomials)
        assert got.vars == want.vars and got.to_json() == want.to_json(), monomials
    assert LaurentPoly.sum(cases[0]).vars == () and not LaurentPoly.sum(cases[0])
    assert LaurentPoly.sum(cases[1]).vars == ("t",) and not LaurentPoly.sum(cases[1])
    assert LaurentPoly.sum(cases[2]).vars == ("a", "b") and not LaurentPoly.sum(cases[2])
    assert LaurentPoly.sum(cases[3]).to_json() == {
        "vars": ["a", "b"], "terms": [{"coef": "1", "exp2": [0, 3]}]}
    assert LaurentPoly.sum(cases[5]).vars == ("delta", "t2", "t1", "h")


# Ring laws on generated polynomials: each is a sum of up to six monomials
# over three colours and the grading variables, with repeated variables,
# zero exponents and zero coefficients.

LAWS = settings(max_examples=150, derandomize=True, deadline=None, database=None)
COLOURS = ("a", "b", "c")
MONOMIALS = st.lists(
    st.tuples(st.integers(-3, 3),
              st.lists(st.tuples(st.sampled_from(COLOURS + ("h", "delta")),
                                 st.integers(-4, 4)), max_size=4)),
    max_size=6)


@LAWS
@given(MONOMIALS)
def test_sum_is_the_fold_law(monomials):
    got, want = LaurentPoly.sum(monomials), _fold(monomials)
    assert got.vars == want.vars and got.to_json() == want.to_json()


@LAWS
@given(MONOMIALS, st.sampled_from(COLOURS))
def test_divide_binomial_inverts_the_product_law(monomials, colour):
    p = LaurentPoly.sum(monomials)
    assert (p * binomial(colour)).divide_binomial(colour) == p


@LAWS
@given(MONOMIALS)
def test_json_roundtrip_law(monomials):
    p = LaurentPoly.sum(monomials)
    q = LaurentPoly.from_json(json.loads(json.dumps(p.to_json())))
    assert q.vars == p.vars and q.terms == p.terms


@LAWS
@given(MONOMIALS, st.dictionaries(st.sampled_from(COLOURS), st.sampled_from(COLOURS + ("t",))))
def test_rename_merges_like_renamed_monomials_law(monomials, mapping):
    # renaming the sum is the sum of the renamed monomials, merged variables
    # and the first-appearance table included
    renamed = [(c, [(mapping.get(v, v), e) for v, e in pairs]) for c, pairs in monomials]
    got, want = LaurentPoly.sum(monomials).rename(mapping), LaurentPoly.sum(renamed)
    assert got.vars == want.vars and got.to_json() == want.to_json()


# The fast paths build polynomials without the validating constructor, from
# tables that are already canonical, and compare equal tables directly.

def _validated(p):
    """``p`` rebuilt by the validating constructor from its own table."""
    return LaurentPoly(p.vars, p.terms)


def _same_table(p, q) -> bool:
    """The same variable tuple and the same terms, in the same order."""
    return (type(p.vars) is tuple and p.vars == q.vars
            and list(p.terms.items()) == list(q.terms.items()))


def _eval_h_validated(p):
    """``eval_h`` through the validating constructor."""
    if "h" not in p.vars:
        return p
    i = p.vars.index("h")
    terms = {}
    for e, c in p.terms.items():
        key = e[:i] + e[i + 1:]
        terms[key] = terms.get(key, 0) + (-c if e[i] // 2 % 2 else c)
    return LaurentPoly(p.vars[:i] + p.vars[i + 1:], terms)


def _aligned_equal(p, q) -> bool:
    """``==`` without its fast path: both tables aligned to their union."""
    vs = tuple(dict.fromkeys(p.vars + q.vars))
    return ({e: c for e, c in p._aligned_to(vs).items() if c}
            == {e: c for e, c in q._aligned_to(vs).items() if c})


def _even_h(monomials):
    """The monomials with every exponent of h doubled, so h = -1 applies."""
    return [(c, [(v, 2 * e if v == "h" else e) for v, e in pairs]) for c, pairs in monomials]


@LAWS
@given(MONOMIALS, MONOMIALS)
def test_fast_path_tables_are_the_validated_ones_law(m1, m2):
    p, q = LaurentPoly.sum(_even_h(m1)), LaurentPoly.sum(_even_h(m2))
    for r in (-p, p + q, p - q, p * q, p.eval_h(), oracles.add_all([p, q, -p])):
        assert _same_table(r, _validated(r))
    assert _same_table(p.eval_h(), _eval_h_validated(p))
    assert _same_table(-p, LaurentPoly(p.vars, {e: -c for e, c in p.terms.items()}))


@LAWS
@given(MONOMIALS, MONOMIALS, st.permutations(range(6)))
def test_equal_tables_fast_path_agrees_with_the_aligned_comparison_law(m1, m2, perm):
    p, q = LaurentPoly.sum(m1), LaurentPoly.sum(m2)
    # the same polynomial over a permuted table, and over one with an
    # unused variable added: equal, though the tables differ
    names = p.vars + ("z",)
    order = [i for i in perm if i < len(names)]
    widened = LaurentPoly([names[i] for i in order],
                          {tuple((e + (0,))[i] for i in order): c for e, c in p.terms.items()})
    assert "z" in widened.vars and widened.vars != p.vars
    for a, b in ((p, q), (q, p), (p, p), (p, _validated(p)), (p, widened), (widened, p),
                 (p + q, q + p), (p * q, q * p), (p, p + LaurentPoly.integer(1))):
        assert (a == b) == _aligned_equal(a, b)
    assert p == widened and p == _validated(p) and p + q == q + p


def _relabelled(p, perm, extra):
    """``p`` over its table permuted by ``perm``, with the unused variables
    ``extra`` added."""
    names = p.vars + tuple(v for v in extra if v not in p.vars)
    order = [i for i in perm if i < len(names)]
    pad = (0,) * (len(names) - len(p.vars))
    return LaurentPoly([names[i] for i in order],
                       {tuple((e + pad)[i] for i in order): c for e, c in p.terms.items()})


@LAWS
@given(MONOMIALS, MONOMIALS, st.permutations(range(7)),
       st.sampled_from(((), ("z",), ("a", "z"), ("h",))))
def test_equality_is_equality_of_keys_law(m1, m2, perm, extra):
    # permuted tables, different name sets and unused variables: == holds
    # exactly when the normal forms agree
    p, q = LaurentPoly.sum(m1), LaurentPoly.sum(m2)
    polys = [p, q, -p, p + LaurentPoly.integer(1), p.rename({"a": "d"})]
    polys += [_relabelled(x, perm, extra) for x in polys]
    for x in polys:
        for y in polys:
            assert (x == y) == (x.key() == y.key()) == (y == x)


@LAWS
@given(st.lists(MONOMIALS, max_size=5))
def test_add_all_is_the_fold_law(ms):
    ps = [LaurentPoly.sum(m) for m in ms]
    got = oracles.add_all(ps)
    want = functools.reduce(operator.add, ps, LaurentPoly.zero())
    assert got.vars == want.vars and got.terms == want.terms
    assert _same_table(got, _validated(got))
