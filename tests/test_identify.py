import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import (CollisionTag, Decomposition, DegreeMismatch,
                      MultiplyParams, SimplyParams, brute_force_decompositions,
                      build_M, build_S, classify, decompositions_S,
                      enumerate_decompositions, frobenius_collision,
                      identify_multiply,
                      identify_simply, original_shift, shift_decomposition)
from wildcomp import identify
from wildcomp.decomp_core import MonicOriginal
from wildcomp.polyring import Poly, derivative

from conftest import (CENSUS_FIELDS, F, MO, count_roots_in_field,
                      full_scan_decompositions, key_of, planted_with_tops,
                      random_monic_original, t_poly)


def random_simply_params(rng, spec, r):
    divisors = [d for d in range(1, r) if (r - 1) % d == 0]
    return SimplyParams(spec.elem(rng.randrange(1, spec.q)),
                        spec.elem(rng.randrange(1, spec.q)),
                        rng.randrange(2), rng.choice(divisors), r)


def random_multiply_params(rng, spec, r):
    choices = [m for m in range(2, r - 1) if m % spec.p]
    while True:
        b = spec.elem(rng.randrange(1, spec.q))
        a = spec.elem(rng.randrange(1, spec.q))
        if a != b ** r:
            return MultiplyParams(a, b, rng.choice(choices), r)


class TestIdentifySimply:
    def test_char3_example(self):
        got = identify_simply(MO(F(3), "x^9+x^5+x"), 3)
        assert got is not None
        assert (got.k, got.u.val, got.s.val, got.eps, got.m, got.w.val) == \
            (2, 2, 1, 0, 2, 0)

    def test_pure_power_fails(self):
        assert identify_simply(MO(F(2), "x^4"), 2) is None

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            identify_simply(MO(F(2), "x^4"), 4)

    @pytest.mark.parametrize("spec,r", [(F(2), 2), (F(2, 2), 2), (F(2, 3), 2),
                                        (F(3), 3), (F(3, 2), 3), (F(5), 5)])
    def test_round_trip_exhaustive_all_tuples_and_shifts(self, spec, r):
        import itertools
        divisors = [d for d in range(1, r) if (r - 1) % d == 0]
        for uv, sv, eps, m in itertools.product(range(1, spec.q),
                                                range(1, spec.q),
                                                (0, 1), divisors):
            params = SimplyParams(spec.elem(uv), spec.elem(sv), eps, m, r)
            base = build_S(params)
            for wv in range(spec.q):
                w = spec.elem(wv)
                f = original_shift(base, w)
                got = identify_simply(f, r)
                assert got is not None, (params, w)
                rebuilt = original_shift(
                    build_S(SimplyParams(got.u, got.s, got.eps, got.m, r)),
                    got.w)
                assert rebuilt == f, (params, w)

    @pytest.mark.parametrize("spec,r", [(F(2, 2), 2), (F(2, 3), 2),
                                        (F(2, 3), 8), (F(3, 2), 3),
                                        (F(3, 3), 3), (F(5, 2), 5)])
    def test_round_trip_random(self, spec, r):
        rng = random.Random(hash((spec.q, r)) & 0xFFFF)
        for _ in range(30):
            params = random_simply_params(rng, spec, r)
            w = spec.elem(rng.randrange(spec.q))
            f = original_shift(build_S(params), w)
            got = identify_simply(f, r)
            assert got is not None, (params, w)
            rebuilt = original_shift(
                build_S(SimplyParams(got.u, got.s, got.eps, got.m, r)), got.w)
            assert rebuilt == f

    def test_eps0_normalization_preserves_k(self):
        # scaling (u, s) -> (u s^(r+1), 1) is a bijection on the root set
        rng = random.Random(9)
        for spec, r in [(F(3, 2), 3), (F(5), 5), (F(2, 3), 2)]:
            for _ in range(25):
                u = spec.elem(rng.randrange(1, spec.q))
                s = spec.elem(rng.randrange(1, spec.q))
                k1 = count_roots_in_field(t_poly(spec, u.val, 0, r))
                k2 = count_roots_in_field(
                    t_poly(spec, (u * s ** (r + 1)).val, 0, r))
                assert k1 == k2

    def test_rejects_random_noise(self, full_colliding):
        rng = random.Random(23)
        colliding = full_colliding[(3, 3)]
        for _ in range(300):
            f = random_monic_original(rng, F(3), 9)
            got = identify_simply(f, 3)
            if got is not None and got.k >= 2:
                key = key_of(f.poly)
                assert key in colliding


# (field, r) for the degree property: r = p, and r = p^3, p^2 over F_8, F_9
DEGREE_CASES = [(F(5), 5), (F(5, 2), 5), (F(7), 7), (F(11), 11), (F(13), 13),
                (F(2, 3), 8), (F(3, 2), 9)]


@st.composite
def shifted_m_members(draw):
    spec, r = draw(st.sampled_from(DEGREE_CASES))
    b = spec.elem(draw(st.integers(1, spec.q - 1)))
    a = spec.elem(draw(st.integers(1, spec.q - 1).filter(
        lambda v: spec.elem(v) != b ** r)))
    m = draw(st.sampled_from([m for m in range(2, r - 1) if m % spec.p]))
    w = spec.elem(draw(st.integers(0, spec.q - 1)))
    return original_shift(build_M(MultiplyParams(a, b, m, r))[0], w), r


class TestIdentifyMultiply:
    @settings(max_examples=60, deadline=None)
    @given(shifted_m_members())
    def test_members_have_derivative_degree_r2_minus_r_minus_2(self, f_and_r):
        # identify_multiply rejects every f whose f' has another degree
        f, r = f_and_r
        assert derivative(f.poly).degree == r * r - r - 2

    def test_f5_example(self):
        f, _ = build_M(MultiplyParams(F(5).elem(2), F(5).one, 2, 5))
        got = identify_multiply(f, 5)
        assert got is not None
        rebuilt = original_shift(
            build_M(MultiplyParams(got.a, got.b, got.m, 5))[0], got.w)
        assert rebuilt == f
        assert got.m == 2  # min-rule normalizes m below r/2

    def test_vanishing_derivative_fails(self):
        assert identify_multiply(MO(F(5), "x^25"), 5) is None
        assert identify_multiply(MO(F(5), "x^25+x^5"), 5) is None

    def test_small_r_always_fails(self):
        assert identify_multiply(MO(F(2), "x^4+x^2+x"), 2) is None
        assert identify_multiply(MO(F(3), "x^9+x^5+x"), 3) is None

    def test_coincident_a_pair(self):
        # 2a = b^r makes the final quadratic collapse to a double root;
        # the single candidate must still be tried
        spec = F(5)
        for bv in range(1, 5):
            b = spec.elem(bv)
            a = (b ** 5) / spec.scalar(2)
            params = MultiplyParams(a, b, 2, 5)
            assert params.a_star == a
            f, _ = build_M(params)
            got = identify_multiply(f, 5)
            assert got is not None, params
            rebuilt = original_shift(
                build_M(MultiplyParams(got.a, got.b, got.m, 5))[0], got.w)
            assert rebuilt == f

    @pytest.mark.parametrize("spec,r", [(F(5), 5), (F(7), 7)])
    def test_round_trip_exhaustive_all_tuples_and_shifts(self, spec, r):
        choices = [m for m in range(2, r - 1) if m % spec.p]
        for bv in range(1, spec.q):
            b = spec.elem(bv)
            br = b ** r
            for av in range(1, spec.q):
                a = spec.elem(av)
                if a == br:
                    continue
                for m in choices:
                    base, _ = build_M(MultiplyParams(a, b, m, r))
                    for wv in range(spec.q):
                        w = spec.elem(wv)
                        f = original_shift(base, w)
                        got = identify_multiply(f, r)
                        assert got is not None, (a, b, m, w)
                        rebuilt = original_shift(
                            build_M(MultiplyParams(got.a, got.b, got.m, r))[0],
                            got.w)
                        assert rebuilt == f, (a, b, m, w)

    @pytest.mark.parametrize("spec,r", [(F(5), 5), (F(5, 2), 5), (F(7), 7),
                                        (F(2, 3), 8), (F(3, 2), 9)])
    def test_round_trip_random(self, spec, r):
        rng = random.Random(hash((spec.q, r)) & 0xFFFF)
        for _ in range(25):
            params = random_multiply_params(rng, spec, r)
            w = spec.elem(rng.randrange(spec.q))
            f = original_shift(build_M(params)[0], w)
            got = identify_multiply(f, r)
            assert got is not None, (params, w)
            rebuilt = original_shift(
                build_M(MultiplyParams(got.a, got.b, got.m, r))[0], got.w)
            assert rebuilt == f

    def test_rejects_random_noise(self, full_colliding):
        rng = random.Random(29)
        colliding = full_colliding[(5, 5)]
        for _ in range(150):
            f = random_monic_original(rng, F(5), 25)
            got = identify_multiply(f, 5)
            if got is not None:
                key = key_of(f.poly)
                assert key in colliding


    @pytest.mark.parametrize("spec,r", [(F(7), 7), (F(5, 2), 5), (F(2, 3), 8),
                                        (F(3, 2), 9)])
    def test_splits_only_polynomials_of_degree_below_r_minus_1(
            self, monkeypatch, spec, r):
        # no gcd, exact division or power count on f' or anything of
        # degree above r - 2: only h' of each candidate right component
        degrees = []

        def recorded(fn):
            def wrapper(*args):
                degrees.extend(int(a.degree) for a in args)
                return fn(*args)
            return wrapper

        for name in ("gcd", "exact_div", "max_power_dividing"):
            monkeypatch.setattr(identify, name, recorded(getattr(identify, name)))
        rng = random.Random(r * spec.q)
        for _ in range(10):
            params = random_multiply_params(rng, spec, r)
            f = original_shift(build_M(params)[0], spec.elem(rng.randrange(spec.q)))
            assert identify.identify_multiply(f, r) is not None
            identify.identify_multiply(random_monic_original(rng, spec, r * r), r)
        assert degrees and max(degrees) <= r - 2


class TestTwoRootSplit:
    """c (x - x1)^e1 (x - x2)^e2 splits to (x - x1)(x - x2) and min(e1, e2),
    with p-th powers in both exponents, in one or in neither."""

    @pytest.mark.parametrize("spec", [F(2), F(2, 3), F(3), F(3, 2), F(5),
                                      F(5, 2), F(7)])
    def test_every_exponent_pair(self, spec):
        rng = random.Random(spec.q)
        for e1 in range(1, 13):
            for e2 in range(1, 13):
                x1 = rng.randrange(spec.q)
                x2 = rng.choice([v for v in range(spec.q) if v != x1])
                c = rng.randrange(1, spec.q)
                lin1 = Poly(spec, (spec.neg_i(x1), 1))
                lin2 = Poly(spec, (spec.neg_i(x2), 1))
                d = lin1 ** e1 * lin2 ** e2 * spec.elem(c)
                assert identify._two_root_split(d) == (lin1 * lin2, min(e1, e2)), \
                    (x1, x2, e1, e2)

    def test_one_root_is_not_split(self):
        spec = F(3)
        assert identify._two_root_split(Poly(spec, (1, 1)) ** 7) is None
        assert identify._two_root_split(Poly(spec, (1, 1)) ** 9) is None


class TestClassify:
    def test_examples(self):
        assert classify(MO(F(2), "x^4+x^2")).tag is CollisionTag.FROBENIUS
        cls = classify(MO(F(3), "x^9+x^5+x"))
        assert cls.tag is CollisionTag.SIMPLY and cls.simply.k == 2
        assert classify(MO(F(2), "x^4")).tag is CollisionTag.NONE

    def test_multiply_tag(self):
        f, _ = build_M(MultiplyParams(F(5).elem(2), F(5).one, 2, 5))
        shifted = original_shift(f, F(5).elem(3))
        cls = classify(shifted)
        assert cls.tag is CollisionTag.MULTIPLY

    def test_simply_with_small_T_is_not_a_collision_class(self):
        # S(1,1,1,1) over F_2 has an empty root set: no 2-collision
        cls = classify(MO(F(2), "x^4+x^2+x"))
        assert cls.tag is CollisionTag.NONE

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            classify(MO(F(2), "x^8"))


class TestEnumerateDecompositions:
    def test_frobenius_case(self):
        res = enumerate_decompositions(MO(F(2), "x^4+x^2"))
        assert res.complete and res.collision.k == 2
        assert {(str(d.g), str(d.h)) for d in res.collision} == {
            ("x^2", "x^2+x"), ("x^2+x", "x^2")}

    def test_simply_case_matches_construction(self):
        res = enumerate_decompositions(MO(F(3), "x^9+x^5+x"))
        base = decompositions_S(SimplyParams(F(3).elem(2), F(3).one, 0, 2, 3))
        assert res.collision.decomps == base.decomps

    def test_none_case_brute_force(self):
        res = enumerate_decompositions(MO(F(2), "x^4+x^2+x"))
        assert res.complete and res.collision.k == 0
        res = enumerate_decompositions(MO(F(2), "x^4"))  # x^2 o x^2 only
        assert res.complete and res.collision.k == 1

    def test_agrees_with_brute_force(self):
        """enumerate_decompositions equals the full q^(p-1) scan on planted
        g o h and on random f."""
        rng = random.Random(31)
        for spec in (F(2), F(2, 2), F(2, 6), F(3), F(3, 3), F(5)):
            p = spec.p
            for planted in (True, False) * 12:
                if planted:
                    f = Decomposition(random_monic_original(rng, spec, p),
                                      random_monic_original(rng, spec, p)).compose()
                else:
                    f = random_monic_original(rng, spec, p * p)
                res = enumerate_decompositions(f)
                assert res.complete
                assert res.collision.decomps == full_scan_decompositions(f), f

    def test_fallback_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            brute_force_decompositions(MO(F(2), "x^8"))

    def test_x25_over_f25_one_pair(self):
        # y^6 has the one root 0, where g_4 = 0 and x^25 is in F[x^5]:
        # h = (x^25)^(1/5) and h = x^5 coincide
        x5 = MO(F(5, 2), "x^5")
        res = enumerate_decompositions(MO(F(5, 2), "x^25"))
        assert res.complete and res.collision.decomps == {Decomposition(x5, x5)}
        assert brute_force_decompositions(MO(F(5, 2), "x^25")) == [
            Decomposition(x5, x5)]

    def test_determined_branch_complete_at_large_q(self):
        # f_6 = -g_2 h_2 != 0: one right component per root of P_f, so the
        # search over F_3^9 is complete although 3^9 > 2^13
        spec = F(3, 9)
        rng = random.Random(39)
        for _ in range(5):
            g, h = (MonicOriginal(Poly(spec, (0, rng.randrange(spec.q),
                                              rng.randrange(1, spec.q), 1)))
                    for _ in range(2))
            f = Decomposition(g, h).compose()
            assert f.poly.coefficient(5).val != 0
            pairs = brute_force_decompositions(f)
            assert pairs is not None and Decomposition(g, h) in pairs
            res = enumerate_decompositions(f)
            assert res.complete and Decomposition(g, h) in res.collision.decomps

    def test_determined_f_needs_no_classify(self, monkeypatch):
        """Every f is answered from the roots of P_f, M, S and F members
        included, without classifying or identifying f."""
        def refuse(*args):
            raise AssertionError("classification called")

        for name in ("classify", "identify_simply", "identify_multiply"):
            monkeypatch.setattr(identify, name, refuse)
        rng = random.Random(41)
        for spec in (F(2, 2), F(2, 3), F(3), F(3, 2), F(5), F(7), F(5, 2)):
            p = spec.p
            small = spec.q ** (p - 1) <= 1000
            fs = [Decomposition(random_monic_original(rng, spec, p),
                                random_monic_original(rng, spec, p)).compose()
                  for _ in range(12)]
            fs += [random_monic_original(rng, spec, p * p) for _ in range(12)]
            fs += [build_S(random_simply_params(rng, spec, p)) for _ in range(4)]
            fs += [frobenius_collision(MonicOriginal(Poly(spec, (
                0, rng.randrange(1, spec.q), *[0] * (p - 2), 1))), p).f
                for _ in range(2)]
            if p >= 5:
                fs += [build_M(random_multiply_params(rng, spec, p))[0]
                       for _ in range(4)]
            for f in fs:
                res = enumerate_decompositions(f)
                assert res.complete
                if small:
                    assert res.collision.decomps == full_scan_decompositions(f)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiply_members_match_construction(self, data):
        spec = data.draw(st.sampled_from([F(7), F(11), F(5, 2), F(13)]))
        r = spec.p
        b = data.draw(_elems(spec, 1))
        a = data.draw(_elems(spec, 1).filter(lambda a: a != b ** r))
        m = data.draw(st.sampled_from([m for m in range(2, r - 1) if m % r]))
        w = data.draw(_elems(spec))
        f, base = build_M(MultiplyParams(a, b, m, r))
        res = enumerate_decompositions(original_shift(f, w))
        assert res.complete
        assert res.collision.decomps == {shift_decomposition(d, w)
                                         for d in base}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_zero_y_pairs_follow_the_shift(self, data):
        """Planted g o h with h_(p-1) = 0 and g_(p-1) != 0: the answers for f
        and f^(w) are complete and correspond through the shift."""
        spec = data.draw(st.sampled_from([F(3, 2), F(3, 3), F(5)]))
        p = spec.p
        inner = st.lists(st.integers(0, spec.q - 1),
                         min_size=p - 2, max_size=p - 2)
        g = MonicOriginal(Poly(spec, (0, *data.draw(inner),
                                      data.draw(st.integers(1, spec.q - 1)),
                                      1)))
        h = MonicOriginal(Poly(spec, (0, *data.draw(inner), 0, 1)))
        w = data.draw(_elems(spec))
        f = Decomposition(g, h).compose()
        res, shifted = (enumerate_decompositions(f),
                        enumerate_decompositions(original_shift(f, w)))
        assert res.complete and shifted.complete
        assert Decomposition(g, h) in res.collision.decomps
        assert shifted.collision.decomps == {shift_decomposition(d, w)
                                             for d in res.collision}

    def test_p2_complete_at_the_field_limit(self):
        spec = F(2, 16)
        g, h = MO(spec, "x^2+7*x"), MO(spec, "x^2+11*x")
        f = Decomposition(g, h).compose()
        res = enumerate_decompositions(f)
        assert res.complete and Decomposition(g, h) in res.collision.decomps


def rule_cases(p: int) -> dict:
    """The (i, j) of planted g o h for each case of the rule at the root
    with g_(p-1) = 0 (``identify._components_below_top``), and of the
    right component (g_(p-1) != 0).  i and j index the top nonzero
    coefficient below x^p of g and of h; 0 stands for x^p itself."""
    low = range(1, p - 1)
    return {
        "y != 0": [(i, p - 1) for i in low],
        "y = 0, j > i": [(i, j) for i in low for j in low if j > i],
        "y = 0, j < i": [(i, j) for i in low for j in low if j < i],
        "y = 0, j = i": [(i, i) for i in low],
        "F[x^p], y != 0": [(0, p - 1)],
        "F[x^p], y = 0": [(0, j) for j in range(p - 1)] + [(i, 0) for i in low],
        "g_(p-1) != 0": [(p - 1, j) for j in range(p)],
    }


class TestEveryCaseOfTheRule:
    """``enumerate_decompositions`` on planted g o h for every case of the
    rule, against the full q^(p-1) scan; on the census; and at fields
    where a scan of q^(p-2) candidates per root is out of reach."""

    # F_7's scan takes about 3 s per f: it runs two of the y = 0 cases
    @pytest.mark.parametrize("spec,cases,reps", [
        *[(F(p, d), None, 3) for p, d in [(2, 1), (2, 2), (2, 3), (3, 1),
                                           (3, 2), (3, 3), (5, 1)]],
        (F(7), ("y = 0, j < i", "y = 0, j = i"), 1),
    ])
    def test_planted_against_full_scan(self, spec, cases, reps):
        p = spec.p
        rng = random.Random(spec.q)
        hit = set()
        for case, tops in rule_cases(p).items():
            if not tops or (cases and case not in cases):
                continue
            for _ in range(reps):
                g, h = planted_with_tops(rng, spec, *rng.choice(tops))
                f = Decomposition(g, h).compose()
                res = enumerate_decompositions(f)
                assert res.complete and Decomposition(g, h) in res.collision
                assert res.collision.decomps == full_scan_decompositions(f), \
                    (case, str(g), str(h))
            hit.add(case)
        want = {c for c, tops in rule_cases(p).items() if tops}
        assert hit == (want & set(cases) if cases else want)

    @pytest.mark.parametrize("text", ["x^25+x^2", "x^25+x^11", "x^25+x^16",
                                      "x^25+x^21"])
    def test_root_without_candidates(self, text):
        # at y = 0 with g_4 = 0 the rule finds h_2 = f_10^(1/5) = 0, g_3 =
        # f_15 = 0, i = 4 and i = 5: no candidate, and no pair
        f = MO(F(5), text)
        res = enumerate_decompositions(f)
        assert res.collision.decomps == full_scan_decompositions(f) == set()

    def test_census_colliding_pairs(self, census_reports):
        for report in census_reports.values():
            for key in report.colliding_pairs:
                res = enumerate_decompositions(report.poly_of_key(key))
                assert res.collision.decomps == report.decompositions_of_key(key)

    @pytest.mark.parametrize("p,d", [(3, 10), (2, 16), (5, 3), (7, 2),
                                     (13, 2)])
    def test_large_fields_complete(self, p, d):
        spec = F(p, d)
        rng = random.Random(p * d)
        for tops in rule_cases(p).values():
            for i, j in tops[:1] + tops[-1:]:
                g, h = planted_with_tops(rng, spec, i, j)
                f = Decomposition(g, h).compose()
                res = enumerate_decompositions(f)
                assert res.complete and Decomposition(g, h) in res.collision
                assert all(d.compose() == f for d in res.collision)


@st.composite
def planted_pairs(draw):
    spec = draw(st.sampled_from([F(2), F(2, 2), F(2, 3), F(3), F(3, 2), F(5),
                                 F(7)]))
    p = spec.p

    def original():
        inner = draw(st.lists(st.integers(0, spec.q - 1),
                              min_size=p - 1, max_size=p - 1))
        return MonicOriginal(Poly(spec, (0, *inner, 1)))

    return original(), original()


class TestRightComponentRoot:
    """h_(p-1) is a root of P_f(y) = y^(p+1) - f_(p^2-p) y - f_(p^2-p-1)
    for every f = g o h of degree p^2."""

    @settings(max_examples=200, deadline=None)
    @given(planted_pairs())
    def test_top_coefficient_is_root(self, gh):
        g, h = gh
        p = g.spec.p
        f = Decomposition(g, h).compose().poly
        y = h.poly.coefficient(p - 1)
        assert (y ** (p + 1) - f.coefficient(p * p - p) * y
                - f.coefficient(p * p - p - 1)).val == 0


# Every field with q <= 81; multiply members need p >= 5.
INVARIANCE_FIELDS = [F(2), F(2, 3), F(2, 6), F(3), F(3, 2), F(3, 4), F(5),
                     F(5, 2), F(7), F(7, 2)]


def _elems(spec, low=0):
    return st.integers(low, spec.q - 1).map(spec.elem)


@st.composite
def s_members(draw):
    spec = draw(st.sampled_from(INVARIANCE_FIELDS))
    r = spec.p
    m = draw(st.sampled_from([d for d in range(1, r) if (r - 1) % d == 0]))
    return build_S(SimplyParams(draw(_elems(spec, 1)), draw(_elems(spec, 1)),
                                draw(st.integers(0, 1)), m, r))


@st.composite
def m_members(draw):
    spec = draw(st.sampled_from([s for s in INVARIANCE_FIELDS if s.p >= 5]))
    r = spec.p
    b = draw(_elems(spec, 1))
    a = draw(_elems(spec, 1).filter(lambda a: a != b ** r))
    m = draw(st.sampled_from([m for m in range(2, r - 1) if m % r]))
    return build_M(MultiplyParams(a, b, m, r))[0]


def scale(f: MonicOriginal, a) -> MonicOriginal:
    """a^(-n) f(a x) for n = deg f, coefficient by coefficient."""
    spec, n = f.spec, f.degree
    return MonicOriginal(Poly(spec, [spec.mul_i(c, spec.pow_i(a.val, i - n))
                                     for i, c in enumerate(f.poly.encodings)]))


def tag_and_k(f: MonicOriginal):
    cls = classify(f)
    return cls.tag, cls.simply.k if cls.simply else None


class TestClassifyInvariance:
    """Tag and k are invariant under f -> f(x + w) - f(w) and f -> a^(-p^2) f(a x).

    The scaling acts on decompositions as a^(-p^2) g(a^p y) o a^(-p) h(a x).
    """

    def check(self, data, f):
        spec = f.spec
        w, a = data.draw(_elems(spec)), data.draw(_elems(spec, 1))
        moved = (original_shift(f, w), scale(f, a))
        want = tag_and_k(f)
        for g in moved:
            assert tag_and_k(g) == want, (str(f), str(g))
        return moved

    @settings(max_examples=80, deadline=None)
    @given(s_members(), st.data())
    def test_simply_members(self, f, data):
        self.check(data, f)

    @settings(max_examples=40, deadline=None)
    @given(m_members(), st.data())
    def test_multiply_members(self, f, data):
        assert tag_and_k(f)[0] is CollisionTag.MULTIPLY
        self.check(data, f)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_census_colliding(self, census_reports, full_colliding, data):
        # All shards: a scaled f of shard 0 or 1 lands in another shard.
        pq = data.draw(st.sampled_from(CENSUS_FIELDS))
        report, colliding = census_reports[pq], full_colliding[pq]
        keys = list(colliding)
        key = keys[data.draw(st.integers(0, len(keys) - 1))]
        for g in self.check(data, report.poly_of_key(key)):
            moved = key_of(g.poly)
            assert len(colliding[moved]) == len(colliding[key])


# (field, r): r = p over F_8, F_9, F_5 and F_7, and r = p^2 over F_4 and F_3.
ROBUST_CASES = [(F(2, 3), 2), (F(3, 2), 3), (F(5), 5), (F(7), 7), (F(2, 2), 4), (F(3), 9)]


@st.composite
def originals_of_degree_r2(draw):
    spec, r = draw(st.sampled_from(ROBUST_CASES))
    inner = draw(st.lists(st.integers(0, spec.q - 1),
                          min_size=r * r - 1, max_size=r * r - 1))
    return MonicOriginal(Poly(spec, (0, *inner, 1))), r


class TestNeverRaises:
    """Identification and classification answer, never raise, on any monic
    original of degree r^2."""

    @settings(max_examples=150, deadline=None)
    @given(originals_of_degree_r2())
    def test_arbitrary_originals(self, f_and_r):
        f, r = f_and_r
        identify_simply(f, r)
        identify_multiply(f, r)
        if r == f.spec.p:
            classify(f)
