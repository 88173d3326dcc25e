import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglenabla.diagram import (Crossing, Site, TangleDiagram, TangleError, linking_number,
                                 parse_tangle, serialize)
from tanglenabla.laurent import LaurentPoly
from tanglenabla.nabla import nabla_all, nabla_hat_all, packed_family
from tanglenabla.verify import (CheckReport, PROPERTIES, orientation_type,
                                random_diagram, random_knot_tangle,
                                random_rm_sequence, run_check)
from tanglenabla import transform as tr
from tanglenabla import nabla, verify

import oracles
from conftest import load
from oracles import glueing_sums


def test_unknown_property():
    with pytest.raises(TangleError) as e:
        run_check("nonsense")
    assert e.value.code == "E_UNKNOWN_PROPERTY"


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_each_property_passes_small_run(prop):
    rep = run_check(prop, seed=7, cases=5)
    assert rep.passed, rep.failures[:1]
    assert rep.prop == prop and rep.seed == 7


def test_reports_are_reproducible():
    a = run_check("mirror", seed=3, cases=4)
    b = run_check("mirror", seed=3, cases=4)
    assert a.to_json() == b.to_json()


def test_random_diagram_shapes():
    rng = random.Random(0)
    for ends, m in ((2, 1), (2, 5), (4, 3), (6, 4)):
        d = random_diagram(rng, ends, m)
        assert len(d.boundary) == ends
        assert len(d.crossings) >= m
        assert not d.split


def test_random_knot_tangle_is_a_knot():
    rng = random.Random(1)
    for _ in range(5):
        d = random_knot_tangle(rng, 4)
        assert d.n_open == 1 and d.m_closed == 0
        assert len(d.components) == 1


def test_random_rm_sequence_applies_moves():
    rng = random.Random(2)
    d = random_diagram(rng, 4, 4)
    d2, moves = random_rm_sequence(rng, d, 6)
    assert len(moves) >= 1
    assert not d2.split


def test_orientation_type_of_corpus():
    typ, rot = orientation_type(load("pretzel_2m3"))
    assert typ == 1
    typ, rot = orientation_type(load("clasp"))
    assert typ == 2
    # reversing one open strand flips the type
    flipped = tr.reverse_orientation(load("pretzel_2m3"), {"q"})
    assert orientation_type(flipped)[0] == 2


def test_mutation_hypothesis_enforced():
    with pytest.raises(TangleError) as e:
        run_check("mutation", diagrams=[load("clasp")])
    assert e.value.code == "E_HYPOTHESIS"
    # with identified colours it passes
    d = tr.recolour(load("clasp"), {"ti": "t1"})
    rep = run_check("mutation", diagrams=[d])
    assert rep.passed


def test_mutorient_counterexample_uses_corpus_by_default():
    rep = run_check("mutorient_counterexample")
    assert rep.passed and rep.cases == 1


def test_euler_char_on_given_diagrams(monkeypatch):
    rep = run_check("euler_char", diagrams=[load(n) for n in
                                            ("clasp", "mutorient", "trefoil")])
    assert rep.passed
    # with the closed-strand factor doubled, the given-diagram and the
    # generated runs report every failing site with the same payload
    real = verify.euler_factor
    monkeypatch.setattr(verify, "euler_factor", lambda d: real(d) + real(d))
    given = run_check("euler_char", diagrams=[load("clasp")])
    assert [f["site"] for f in given.failures] == ["b", "l", "r", "t"]
    generated = run_check("euler_char", seed=7, cases=5)
    assert not generated.passed
    for f in given.failures + generated.failures:
        assert set(f) == {"case", "diagram", "site", "chi", "nabla"}


def test_failure_reports_carry_payloads():
    # sabotage: mutation check on a diagram with distinct closed colours is
    # fine, so instead check the failure plumbing through a fake check
    rep = CheckReport("demo", 0, 1, False, [{"case": 0}])
    data = rep.to_json()
    assert data["passed"] is False and data["failures"] == [{"case": 0}]


def test_generated_diagrams_satisfy_region_invariants():
    rng = random.Random(8)
    for _ in range(30):
        d = random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))
        m = len(d.crossings)
        assert len(d.regions) == m + d.n_open + 1
        assert sum(1 for r in d.regions if r.kind == "open") == 2 * d.n_open


def test_fourended_same_colour_site_symmetry_on_pretzel():
    d = tr.recolour(load("pretzel_2m3"), {"q": "p"})
    from tanglenabla.nabla import nabla_all
    vals = nabla_all(d)
    assert vals[Site(frozenset({"a"}))] == vals[Site(frozenset({"c"}))]


def test_skein_triple_on_clasp_crossing():
    # resolve the top crossing of the one-coloured clasp: switched and
    # smoothed variants obey the single-variable skein identity per site
    from tanglenabla.laurent import binomial
    from tanglenabla.nabla import nabla_all
    d = tr.recolour(load("clasp"), {"ti": "t1"})
    plus = d
    minus = tr.switch_crossing(d, 1)
    zero = tr.smooth_crossing(d, 1)
    t = binomial("t")
    for s in d.sites():
        a = nabla_all(plus)[s].rename({"t1": "t"})
        b = nabla_all(minus)[s].rename({"t1": "t"})
        c = nabla_all(zero)[s].rename({"t1": "t"})
        assert a - b == t * c, str(s)


def _seeded_glues(seed, count):
    """Glue records of random 4- and 6-ended pairs, drawn like the glueing
    check draws them, with their pieces."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d1 = random_diagram(rng, rng.choice((4, 6)), rng.randint(1, 5))
        d2 = random_diagram(rng, rng.choice((4, 6)), rng.randint(1, 5))
        for _ in range(40):
            n = min(len(d1.boundary), len(d2.boundary))
            try:
                rec = tr.glue_diagrams(d1, d2, rng.randrange(len(d1.boundary)),
                                       rng.randrange(len(d2.boundary)), rng.randint(1, n - 1))
            except TangleError:
                continue
            if not rec.diagram.split:
                out.append((rec, d1, d2))
            break
    return out


def test_one_pass_glueing_sum_matches_the_site_scan():
    # the packed sums are the site scan's polynomials packed, which a
    # failure payload decodes back, and the glued diagram's family; among
    # the records: iotas that send two colours of a
    # piece to one glued colour, once where two terms of a piece then
    # coincide, and piece arcs on a closed region of the glued diagram,
    # which lie in no site
    sites = nonzero = merged = collided = on_closed = 0
    for rec, d1, d2 in _seeded_glues(13, 40):
        T = rec.diagram
        lay = verify._layout(T)
        hats_1, hats_2 = nabla_hat_all(d1), nabla_hat_all(d2)
        fast = verify._glued_sums(rec, d1, d2, lay)
        slow = glueing_sums(rec, hats_1, hats_2)
        assert list(fast) == list(slow) == T.sites()
        assert fast == {s: oracles.pack(p, lay) for s, p in slow.items()}
        assert {s: verify._decoded(x, lay) for s, x in fast.items()} == slow
        assert fast == packed_family(T, lay)
        sites += len(fast)
        nonzero += sum(1 for x in fast.values() if x)
        for hats, iota in ((hats_1, rec.iota_1), (hats_2, rec.iota_2)):
            if len(set(iota.values())) < len(iota):
                merged += 1
                collided += sum(1 for p in hats.values()
                                if len(p.rename(iota).terms) < len(p.terms))
        kind = {r.rid: r.kind for r in T.regions}
        on_closed += any(kind[r] == "closed"
                         for r in (*rec.arc_map_1.values(), *rec.arc_map_2.values()))
    assert sites >= 150 and nonzero >= 50, (sites, nonzero)
    assert merged >= 5 and collided >= 1 and on_closed >= 10, (merged, collided, on_closed)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_pass_glueing_sum_matches_the_site_scan_law(seed):
    for rec, d1, d2 in _seeded_glues(seed, 2):
        lay = verify._layout(rec.diagram)
        slow = glueing_sums(rec, nabla_hat_all(d1), nabla_hat_all(d2))
        assert verify._glued_sums(rec, d1, d2, lay) == {s: oracles.pack(p, lay)
                                                        for s, p in slow.items()}


def _pretty_terms(text):
    """The terms of a ``pretty`` text, each its sign and the set of its
    factors, so the texts of one polynomial over two variable orders give
    the same terms."""
    terms = []
    for tok in ("- " + text[1:] if text.startswith("-") else "+ " + text).split():
        if tok in ("+", "-"):
            terms.append([tok])
        else:
            terms[-1].append(tok)
    return sorted((t[0], sorted(t[1:])) for t in terms)


def test_glueing_failure_reports_the_first_site(monkeypatch):
    # every packed family gains a term that no product matches: the check
    # stops at the first site of the first glued case and reports both
    # sides, decoded from the maps it compared, so they differ
    real = verify.packed_family

    def spoiled(d, digit, at_h=False):
        return {s: {**t, 1 << 200: 1} for s, t in real(d, digit, at_h).items()}

    monkeypatch.setattr(verify, "packed_family", spoiled)
    rep = run_check("glueing", seed=0, cases=3)
    assert len(rep.failures) == 1
    f = rep.failures[0]
    assert set(f) == {"case", "glued", "site", "got", "expected"}
    glued = parse_tangle(f["glued"])
    assert f["site"] == str(glued.sites()[0])
    assert f["got"] and f["expected"]
    assert _pretty_terms(f["got"]) != _pretty_terms(f["expected"])


def test_a_broken_fast_path_shows_in_its_report(monkeypatch):
    # with m^-1 - m in place of m - m^-1, the two sides that set_pm_one
    # reports are the maps it compared, so they differ
    monkeypatch.setattr(verify, "_binomial_times", _swapped_monomial)
    reports = [run_check("set_pm_one", seed=seed, cases=1) for seed in range(40)]
    failures = [f for rep in reports for f in rep.failures]
    assert len(failures) >= 15
    for f in failures:
        assert _pretty_terms(f["lhs"]) != _pretty_terms(f["rhs"]), f


@pytest.mark.parametrize("prop", sorted(oracles.CHECKS))
def test_packed_checks_report_as_the_polynomial_checks(monkeypatch, prop):
    new = [run_check(prop, seed=seed, cases=10).to_json() for seed in range(8)]
    monkeypatch.setitem(verify.PROPERTIES, prop, oracles.CHECKS[prop])
    assert new == [run_check(prop, seed=seed, cases=10).to_json() for seed in range(8)]


def test_passing_cases_build_no_polynomial(monkeypatch):
    # the packed checks decode and compare no LaurentPoly unless a case fails
    def refuse(*args, **kw):
        raise AssertionError("a passing case built a polynomial")

    monkeypatch.setattr(nabla, "_decode", refuse)
    monkeypatch.setattr(verify, "_decoded", refuse)
    monkeypatch.setattr(LaurentPoly, "__eq__", refuse)
    for prop in oracles.CHECKS:
        for seed in (0, 7):
            assert run_check(prop, seed=seed, cases=10).passed, (prop, seed)


def test_set_colours_have_integral_exponents():
    # knot_pm_one and set_pm_one set a colour to -1, which the polynomial
    # checks refuse (E_BAD_SUBST) on a half-integral exponent.  The colour
    # is a knot's or a closed component's: it crosses the other strands an
    # even number of times, so none of its exponents is half-integral
    rng = random.Random(31)
    pairs = [(d, c.colour) for d in (random_diagram(rng, rng.choice((2, 4)), rng.randint(2, 9))
                                     for _ in range(300))
             for c in d.components if c.kind == "closed"]
    pairs += [(d, d.colours()[0]) for d in (random_knot_tangle(rng, rng.randint(1, 8))
                                            for _ in range(100))]
    seen = 0
    for d, colour in pairs:
        for p in nabla_hat_all(d).values():
            if colour in p.vars:
                i = p.vars.index(colour)
                seen += sum(1 for e in p.terms if e[i])
                assert all(e[i] % 2 == 0 for e in p.terms), (d.name, colour)
    assert seen >= 1000, seen


_REAL = {name: getattr(verify, name) for name in
         ("_reversed", "_difference", "_binomial_times", "_at_unit", "_normalized",
          "packed_family", "packed_digit")}
_REAL_GLUE = tr.glue_diagrams


def _wrong_sign_reversal(terms, flips, shift=0):
    return {e + sum([read(e) * w for read, w in flips]) + shift: c for e, c in terms.items()}


def _dropped_lk2(terms, flips, shift=0):
    return _REAL["_reversed"](terms, flips)


def _plus_sum(a, b):
    return _REAL["_difference"](a, {e: -c for e, c in b.items()})


def _swapped_monomial(terms, x, unit=1):
    return _REAL["_binomial_times"](terms, -x, unit)


def _swapped_iota(*args, **kw):
    """A glue record whose second iota is followed by a transposition of
    the first two glued colours."""
    rec = _REAL_GLUE(*args, **kw)
    cols = rec.diagram.colours()
    if len(cols) < 2:
        return rec
    swap = {cols[0]: cols[1], cols[1]: cols[0]}
    return rec._replace(iota_2={c: swap.get(v, v) for c, v in rec.iota_2.items()})


def _halved_digit(k):
    read = _REAL["packed_digit"](k)
    return lambda e: read(e) // 2


def _rotated(d, family, rotation):
    return _REAL["_normalized"](d, family, rotation + 1)


def _hatted(d, digit, at_h=False):
    return _REAL["packed_family"](d, digit)


# (property, module, attribute, broken law, least failing cases of 40).
# Where an identity is trivial on many random cases (0 = 0: the strand is
# unlinked, or the mutant's family equals the tangle's also before h = -1)
# the bound is lower; the knot law is checked case by case below.
BROKEN_LAWS = [
    ("mirror", verify, "_mirrored", dict, 30),
    ("reversal", verify, "_reversed", _wrong_sign_reversal, 30),
    ("reversal", verify, "_reversed", _dropped_lk2, 20),
    ("skein", verify, "_difference", _plus_sum, 30),
    ("set_pm_one", verify, "_binomial_times", _swapped_monomial, 15),
    ("glueing", tr, "glue_diagrams", _swapped_iota, 25),
    ("parity", verify, "packed_digit", _halved_digit, 15),
    ("fourended_symmetry", verify, "_normalized", _rotated, 20),
    ("rm_invariance", verify, "packed_family", _hatted, 25),
    ("mutation", verify, "packed_family", _hatted, 12),
]


@pytest.mark.parametrize("prop, module, attr, broken, least", BROKEN_LAWS,
                         ids=[f"{p}-{i}" for i, (p, *_) in enumerate(BROKEN_LAWS)])
def test_a_broken_law_fails_the_packed_check(monkeypatch, prop, module, attr, broken, least):
    # mirror without negation, reversal with the wrong sign or without lk2,
    # skein with p+ + p-, set_pm_one with m^-1 - m, glueing with two glued
    # colours swapped, parity on halved digits (mod 8), the four-ended sites
    # rotated, and RM moves and mutations compared on the hatted families
    monkeypatch.setattr(module, attr, broken)
    failed = sum(not run_check(prop, seed=seed, cases=1).passed for seed in range(40))
    assert failed >= least, failed


def test_a_broken_knot_law_fails_on_every_knot_it_changes(monkeypatch):
    # with the colour set to ±1 but its digit kept, the check fails exactly
    # on the knots whose value is not a constant
    def knot(seed):
        rng = random.Random(seed)
        return random_knot_tangle(rng, rng.randint(1, 8))

    monkeypatch.setattr(verify, "_at_unit",
                        lambda t, read, w, sign: _REAL["_at_unit"](t, read, 0, sign))
    failed = [not run_check("knot_pm_one", seed=seed, cases=1).passed for seed in range(40)]
    changed = [len(nabla_all(knot(seed))[Site(frozenset())].terms) > 1 for seed in range(40)]
    assert failed == changed and sum(changed) >= 5, sum(changed)


def _digit_kept(terms, read, w, sign):
    return _REAL["_at_unit"](terms, read, 0, sign)


# the law breaks whose failure payloads decode packed maps: each with its
# failures on seeds 0-39, one case each, and a sha256 over the JSON reports
PAYLOAD_BREAKS = [
    ("set_pm_one", verify, "_binomial_times", _swapped_monomial, 17),
    ("glueing", tr, "glue_diagrams", _swapped_iota, 32),
    ("parity", verify, "packed_digit", _halved_digit, 19),
    ("knot_pm_one", verify, "_at_unit", _digit_kept, 9),
]
PAYLOAD_PIN = "e06eb7dc729ca81b4972e8c1a5c21a788e1701e75f56fdf71b5a5ca5cf1e44e4"


def test_failure_payloads_are_pinned(monkeypatch):
    # none of these breaks depends on where a layout puts a colour's digit,
    # so a change to how the checks pack or decode their maps must leave
    # their reports, payloads included, byte-identical
    reports = []
    for prop, module, attr, broken, count in PAYLOAD_BREAKS:
        monkeypatch.setattr(module, attr, broken)
        reps = [run_check(prop, seed=seed, cases=1).to_json() for seed in range(40)]
        monkeypatch.undo()
        assert sum(len(r["failures"]) for r in reps) == count, prop
        reports.append(reps)
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PAYLOAD_PIN


# per property that compares packed families: the families it compares on
# seeds 0-7, 10 cases each, and how many of them are zero at every site
COMPARED_FAMILIES = {
    "rm_invariance": (160, 42), "mirror": (160, 0), "reversal": (240, 0),
    "skein": (240, 73), "knot_pm_one": (80, 0), "set_pm_one": (155, 53),
    "glueing": (240, 0), "parity": (80, 22), "fourended_symmetry": (160, 16),
    "mutation": (320, 24),
}


def test_catalogue_cases_stay_non_trivial(monkeypatch):
    # a case whose two sides are both zero passes any law: no property may
    # compare fewer families that are non-zero somewhere, or more that are
    # zero everywhere
    real = verify.packed_family
    zero: list[bool] = []

    def counted(d, digit, at_h=False):
        family = real(d, digit, at_h)
        zero.append(not any(family.values()))
        return family

    monkeypatch.setattr(verify, "packed_family", counted)
    for prop, (total, trivial) in COMPARED_FAMILIES.items():
        zero.clear()
        for seed in range(8):
            run_check(prop, seed=seed, cases=10)
        assert sum(zero) <= trivial and len(zero) - sum(zero) >= total - trivial, \
            (prop, len(zero), sum(zero))


def _generated(generate, rng, *args):
    """What a generator call returns, compared in full, or the code it
    raises; then the rng's next draw."""
    try:
        d = generate(rng, *args)
        out = (serialize(d), d.incoming, d.components, d.edge_dirs, d.outer_hint)
    except TangleError as ex:
        out = ex.code
    return out, rng.random()


def test_generator_matches_the_one_diagram_per_step_oracle():
    for seed in range(50):
        for ends in (0, 2, 4, 6, 8):
            for m in range(1, 13):
                args = (ends, m)
                assert (_generated(random_diagram, random.Random(seed), *args)
                        == _generated(oracles.random_diagram, random.Random(seed), *args)), \
                    (seed, ends, m)


def test_knot_tangles_and_reports_match_the_oracle_generator(monkeypatch):
    new = [_generated(random_knot_tangle, random.Random(seed), 1 + seed % 8)
           for seed in range(40)]
    reports = [run_check(prop, seed=seed, cases=10).to_json()
               for prop in PROPERTIES for seed in range(6)]
    monkeypatch.setattr(verify, "random_diagram", oracles.random_diagram)
    monkeypatch.setattr(verify, "random_knot_tangle", oracles.random_knot_tangle)
    assert new == [_generated(verify.random_knot_tangle, random.Random(seed), 1 + seed % 8)
                   for seed in range(40)]
    assert reports == [run_check(prop, seed=seed, cases=10).to_json()
                       for prop in PROPERTIES for seed in range(6)]


def test_generator_builds_at_most_two_diagrams_per_result(monkeypatch):
    built = []
    init = TangleDiagram.__init__

    def counting(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(TangleDiagram, "__init__", counting)
    rng = random.Random(5)
    for ends in (0, 2, 4, 6, 8):
        for m in range(1, 13):
            built.clear()
            d = random_diagram(rng, ends, m)
            assert built[-1] is d and len(built) <= 2, (ends, m, len(built))


def test_knot_tangles_match_the_whole_diagram_oracle():
    for seed in range(30):
        for m in (1, 3, 5, 8):
            assert (_generated(random_knot_tangle, random.Random(seed), m)
                    == _generated(oracles.random_knot_tangle, random.Random(seed), m)), (seed, m)


def test_knot_tangle_builds_one_diagram_per_result(monkeypatch):
    # a candidate with a closed strand is dropped as a shape, unbuilt
    built = []
    init = TangleDiagram.__init__

    def counting(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(TangleDiagram, "__init__", counting)
    rng = random.Random(5)
    for m in range(1, 13):
        built.clear()
        d = random_knot_tangle(rng, m)
        assert len(built) == 1 and built[0] is d, (m, len(built))


@pytest.mark.parametrize("ends", [-2, -1, 1, 3, 7])
def test_impossible_end_counts_fail_before_any_try(ends):
    rng = random.Random(0)
    with pytest.raises(TangleError) as e:
        random_diagram(rng, ends, 3)
    assert e.value.code == "E_GENERATION"
    assert rng.random() == random.Random(0).random()
    assert _generated(oracles.random_diagram, random.Random(0), ends, 3)[0] == "E_GENERATION"


def test_generation_renames_no_crossing(monkeypatch):
    # growth and its caps join int edge ids: a crossing is built once, with
    # its final edge names, and only for a try that reaches the requested
    # ends, so none is renamed glue by glue or cap by cap
    def refuse(self, f):
        raise AssertionError("generation renamed a crossing")

    monkeypatch.setattr(Crossing, "renamed", refuse)
    for seed in range(50):
        rng = random.Random(seed)
        for ends in (2, 4, 6, 8):
            assert len(random_diagram(rng, ends, rng.randint(1, 12)).boundary) == ends
        assert len(random_knot_tangle(random.Random(seed), 1 + seed % 8).components) == 1


def _pm_one_cases(seed, count):
    """``count`` seeded (d, rest, t1, lks) cases of set_pm_one whose total
    linking of t1 with the other strands is even and non-zero, and whose
    right-hand side is non-zero at some site: there the unit at t1 = -1 is
    -1, so the evaluations at 1 and at -1 state different identities."""
    rng = random.Random(seed)
    out = []
    for _ in range(400):
        if len(out) >= count:
            break
        d = random_diagram(rng, rng.choice((2, 4)), rng.randint(2, 9))
        for comp in d.components:
            t1 = comp.colour
            if comp.kind != "closed" or sum(c.colour == t1 for c in d.components) > 1:
                continue
            lks = {c: int(2 * linking_number(d, t1, c)) for c in d.colours() if c != t1}
            lk_total = sum(lks.values()) // 2
            if not lk_total or lk_total % 2:
                continue
            try:
                rest = tr.delete_component(d, t1)
            except TangleError:
                continue
            if not rest.split and any(p.terms for p in nabla_all(rest).values()):
                out.append((d, rest, t1, lks))
    return out


def test_set_pm_one_weighs_the_sign_at_minus_one(monkeypatch):
    cases = _pm_one_cases(3, 6)
    assert len(cases) >= 6, len(cases)
    for d, rest, t1, lks in cases:
        assert verify._pm_one_failure(d, rest, t1, lks) is None, d.name
        # the packed sides at t1 = -1 are the polynomial oracle's, packed
        lay = verify._layout(d, rest)
        nd, nrest = packed_family(d, lay, True), packed_family(rest, lay, True)
        m = sum(lk * nabla.packed_weight(lay[c]) for c, lk in lks.items())
        read, w = nabla.packed_digit(lay[t1]), nabla.packed_weight(lay[t1])
        fwd = LaurentPoly.monomial(1, {c: lk for c, lk in lks.items() if lk})
        bwd = LaurentPoly.monomial(1, {c: -lk for c, lk in lks.items() if lk})
        polys, polys_rest = nabla_all(d), nabla_all(rest)
        for s in d.sites():
            lhs = oracles._sub_if(polys[s], t1, {}, sign=-1)
            rhs = LaurentPoly.integer(-1) * (fwd - bwd) * polys_rest[s]
            assert lhs == rhs, (d.name, str(s))
            assert verify._at_unit(nd[s], read, w, -1) == oracles.pack(lhs, lay)
            assert verify._binomial_times(nrest[s], m, -1) == oracles.pack(rhs, lay)
            assert verify._decoded(verify._at_unit(nd[s], read, w, -1), lay) == lhs
    # with the sign (-1)^(x/2) dropped, t1 = -1 reads as t1 = 1 and the
    # identity at -1 fails on every case
    monkeypatch.setattr(verify, "_at_unit",
                        lambda t, read, w, sign: _REAL["_at_unit"](t, read, w, 1))
    for case in cases:
        bad = verify._pm_one_failure(*case)
        assert bad is not None and bad[1:3] == (-1, -1), case[0].name
