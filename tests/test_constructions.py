import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import (DegreeMismatch, HEqualsXr, InvalidParams,
                      MonicOriginal, MultiplyParams, NoValidM, Poly,
                      SimplyParams, build_M, build_S,
                      decompositions_S, derivative, frobenius_collision,
                      original_shift, root_set_T, second_degree,
                      shift_decomposition)

from wildcomp.constructions import _M_shifted, _S_probe, _S_shifted

from conftest import F, MO, P


def all_simply_params(spec, r):
    for uv, sv in itertools.product(range(1, spec.q), range(1, spec.q)):
        for eps in (0, 1):
            for m in (d for d in range(1, r) if (r - 1) % d == 0):
                yield SimplyParams(spec.elem(uv), spec.elem(sv), eps, m, r)


def all_multiply_params(spec, r):
    for bv in range(1, spec.q):
        b = spec.elem(bv)
        br = b ** r
        for av in range(1, spec.q):
            a = spec.elem(av)
            if a == br:
                continue
            for m in range(2, r - 1):
                if m % spec.p:
                    yield MultiplyParams(a, b, m, r)


class TestFrobeniusCollision:
    def test_f2_example(self):
        col = frobenius_collision(MO(F(2), "x^2+x"), 2)
        assert col.f == MO(F(2), "x^4+x^2")
        assert {(str(d.g), str(d.h)) for d in col} == {
            ("x^2", "x^2+x"), ("x^2+x", "x^2")}

    def test_coefficientwise_frobenius_over_f4(self):
        spec = F(2, 2)
        col = frobenius_collision(MO(spec, "x^2+2*x"), 2)
        # phi_2 squares the coefficient z, giving z+1 (encoding 3)
        lefts = {str(d.g) for d in col}
        assert "x^2+3*x" in lefts

    def test_derivative_vanishes(self):
        rng = random.Random(3)
        for spec, r in [(F(2), 2), (F(3), 3), (F(2, 2), 2), (F(2, 2), 4)]:
            for _ in range(10):
                inner = [rng.randrange(spec.q) for _ in range(r - 1)]
                h = MonicOriginal(Poly(spec, (0, *inner, 1)))
                if h.poly == Poly.monomial(spec, r):
                    continue
                col = frobenius_collision(h, r)
                assert derivative(col.f.poly).is_zero
                assert col.k == 2

    def test_rejects_xr(self):
        with pytest.raises(HEqualsXr):
            frobenius_collision(MO(F(2), "x^2"), 2)

    def test_rejects_wrong_degree(self):
        with pytest.raises(DegreeMismatch):
            frobenius_collision(MO(F(2), "x^2+x"), 4)


class TestBuildS:
    def test_char3_example(self):
        params = SimplyParams(F(3).elem(2), F(3).one, 0, 2, 3)
        assert build_S(params) == MO(F(3), "x^9+x^5+x")

    def test_char2_example(self):
        params = SimplyParams(F(2).one, F(2).one, 1, 1, 2)
        assert build_S(params) == MO(F(2), "x^4+x^2+x")

    @pytest.mark.parametrize("spec,r", [(F(3), 3), (F(2, 2), 2), (F(2, 2), 4),
                                        (F(5), 5), (F(3, 2), 3), (F(3, 2), 9)])
    def test_second_degree_law(self, spec, r):
        for params in all_simply_params(spec, r):
            d2 = second_degree(build_S(params).poly)
            ell = params.ell
            if params.eps:
                assert d2 == r * r - ell * r
            else:
                assert d2 == r * r - ell * r - ell

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            SimplyParams(F(3).zero, F(3).one, 0, 2, 3)
        with pytest.raises(InvalidParams):
            SimplyParams(F(3).one, F(3).one, 0, 3, 3)  # m must divide r-1
        with pytest.raises(InvalidParams):
            SimplyParams(F(3).one, F(3).one, 2, 2, 3)  # eps not in {0,1}
        with pytest.raises(InvalidParams, match="^4 is not a power of 3$"):
            SimplyParams(F(3).one, F(3).one, 0, 2, 4)  # r not a power of p


class TestRootSetT:
    def test_examples(self):
        params = SimplyParams(F(3).elem(2), F(3).one, 0, 2, 3)
        assert {t.val for t in root_set_T(params)} == {1, 2}
        params = SimplyParams(F(2).one, F(2).one, 1, 1, 2)
        assert root_set_T(params) == frozenset()

    @pytest.mark.parametrize("spec,r", [(F(3), 3), (F(2, 2), 2), (F(5), 5),
                                        (F(3, 2), 3), (F(2, 3), 2)])
    def test_size_always_in_allowed_set(self, spec, r):
        for params in all_simply_params(spec, r):
            assert len(root_set_T(params)) in (0, 1, 2, r + 1)


class TestDecompositionsS:
    def test_char3_pairs(self):
        params = SimplyParams(F(3).elem(2), F(3).one, 0, 2, 3)
        col = decompositions_S(params)
        assert {(str(d.g), str(d.h)) for d in col} == {
            ("x^3+2*x^2+x", "x^3+x^2+x"),
            ("x^3+x^2+x", "x^3+2*x^2+x")}

    def test_empty_T_gives_zero_pairs(self):
        params = SimplyParams(F(2).one, F(2).one, 1, 1, 2)
        col = decompositions_S(params)
        assert col.k == 0 and col.f == build_S(params)

    @pytest.mark.parametrize("spec,r", [(F(3), 3), (F(2, 2), 2), (F(5), 5),
                                        (F(2, 3), 2), (F(3, 2), 3)])
    def test_all_pairs_compose_and_h_coefficients_distinct(self, spec, r):
        # composition is enforced by the Collision constructor; check the
        # distinguishing coefficient of x^(r-ell) in h on top of that
        for params in all_simply_params(spec, r):
            col = decompositions_S(params)
            assert col.k == len(root_set_T(params))
            marks = {d.h.poly.coefficient_encoding(r - params.ell) for d in col}
            assert len(marks) == col.k


class TestBuildM:
    def test_f5_example(self):
        params = MultiplyParams(F(5).elem(2), F(5).one, 2, 5)
        f, col = build_M(params)
        gs = {str(d.g) for d in col}
        hs = {str(d.h) for d in col}
        assert gs == {str(P(F(5), "x^2") * P(F(5), "x+3") ** 3),
                      str(P(F(5), "x^3") * P(F(5), "x+1") ** 2)}
        assert hs == {"x^5+2*x^4+4*x^3", "x^5+4*x^4+x^3+3*x^2"}

    def test_g_never_equals_g_star(self):
        for spec, r in [(F(5), 5), (F(2, 3), 8), (F(3, 2), 9)]:
            for params in itertools.islice(all_multiply_params(spec, r), 60):
                _, col = build_M(params)
                assert col.k == 2

    def test_parameter_involution(self):
        for spec, r in [(F(5), 5), (F(7), 7)]:
            for params in itertools.islice(all_multiply_params(spec, r), 40):
                twin = MultiplyParams(params.a_star, params.b, params.m_star, r)
                assert build_M(twin)[0] == build_M(params)[0]

    def test_no_valid_m_below_r5(self):
        with pytest.raises(NoValidM):
            MultiplyParams(F(3).one, F(3).elem(2), 2, 3)
        with pytest.raises(NoValidM):
            MultiplyParams(F(2, 2).one, F(2, 2).gen, 2, 4)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            MultiplyParams(F(5).zero, F(5).one, 2, 5)  # a = 0
        with pytest.raises(InvalidParams):
            MultiplyParams(F(5).one, F(5).one, 2, 5)  # a = b^r
        with pytest.raises(InvalidParams):
            MultiplyParams(F(5).elem(2), F(5).zero, 2, 5)  # b = 0
        with pytest.raises(InvalidParams):
            MultiplyParams(F(5, 2).elem(2), F(5, 2).one, 5, 25)  # p | m


class TestMDerivative:
    def test_matches_plain_derivative(self):
        from wildcomp.constructions import M_derivative_factored
        for spec, r in [(F(5), 5), (F(2, 3), 8), (F(3, 2), 9), (F(5, 2), 5)]:
            for params in itertools.islice(all_multiply_params(spec, r), 25):
                f, _ = build_M(params)
                assert M_derivative_factored(params) == derivative(f.poly)

    def test_factors_squarefree_and_coprime(self):
        from wildcomp import gcd, is_squarefree
        spec = F(5)
        params = MultiplyParams(spec.elem(2), spec.one, 2, 5)
        x = Poly.x(spec)
        xb = P(spec, "x+4")  # x - 1
        binv_r = (params.b ** 5).inv()
        big_h = x ** 2 + (params.a_star * binv_r) * (xb ** 2 - x ** 2)
        big_hs = x ** 3 + (params.a * binv_r) * (xb ** 3 - x ** 3)
        factors = [x, xb, big_h, big_hs]
        for f in factors:
            assert is_squarefree(f)
        for f, g in itertools.combinations(factors, 2):
            assert gcd(f, g).degree == 0


class TestUniquenessAndShifts:
    @pytest.mark.parametrize("spec,r", [(F(5), 5), (F(2, 2), 2), (F(3), 3)])
    def test_s_parameter_uniqueness(self, spec, r):
        by_poly = {}
        for params in all_simply_params(spec, r):
            by_poly.setdefault(build_S(params), []).append(params)
        for f, group in by_poly.items():
            eps_vals = {g.eps for g in group}
            assert len(eps_vals) == 1
            if group[0].eps == 0:
                # same polynomial exactly when u s^(r+1) and m agree
                sig = {(str(g.u * g.s ** (r + 1)), g.m) for g in group}
                assert len(sig) == 1
            else:
                assert len(group) == 1

    def test_s_shift_stabilizer(self):
        spec = F(5)
        f_m1 = build_S(SimplyParams(spec.elem(2), spec.elem(3), 1, 1, 5))
        assert all(original_shift(f_m1, w) == f_m1 for w in spec)
        f_m2 = build_S(SimplyParams(spec.elem(2), spec.elem(3), 1, 2, 5))
        assert all(original_shift(f_m2, w) != f_m2
                   for w in spec if w.val)

    def test_m_shift_twin_and_trivial_stabilizer(self):
        spec = F(5)
        for params in itertools.islice(all_multiply_params(spec, 5), 24):
            f, _ = build_M(params)
            twin = MultiplyParams(-params.a_star, -params.b, params.m, 5)
            assert original_shift(f, params.b) == build_M(twin)[0]
            for w in spec:
                if w.val:
                    assert original_shift(f, w) != f


# (field, r) for the shifted-frame properties: r = p over F_5, F_25, F_7,
# F_49, F_11 and F_13, and r = 9 over F_9.
SHIFT_CASES = [(F(5), 5), (F(5, 2), 5), (F(7), 7), (F(7, 2), 7), (F(11), 11),
               (F(13), 13), (F(3, 2), 9)]


def _nonzero(spec):
    return st.integers(1, spec.q - 1).map(spec.elem)


@st.composite
def shifted_s(draw):
    """(SimplyParams, w encoding) over a SHIFT_CASES field."""
    spec, r = draw(st.sampled_from(SHIFT_CASES))
    m = draw(st.sampled_from([d for d in range(1, r) if (r - 1) % d == 0]))
    params = SimplyParams(draw(_nonzero(spec)), draw(_nonzero(spec)),
                          draw(st.integers(0, 1)), m, r)
    return params, draw(st.integers(0, spec.q - 1))


@st.composite
def shifted_m(draw):
    """(MultiplyParams, w encoding) over a SHIFT_CASES field."""
    spec, r = draw(st.sampled_from(SHIFT_CASES))
    b = draw(_nonzero(spec))
    a = draw(_nonzero(spec).filter(lambda a: a != b ** r))
    m = draw(st.sampled_from([m for m in range(2, r - 1) if m % spec.p]))
    return MultiplyParams(a, b, m, r), draw(st.integers(0, spec.q - 1))


class TestShiftedFrame:
    """The builders at x + w against the Taylor shift of the member, and the
    closed-form coefficients against every shifted member."""

    @settings(max_examples=60, deadline=None)
    @given(shifted_s())
    def test_s_build_is_the_shift(self, params_w):
        params, w = params_w
        want = original_shift(build_S(params), params.spec.elem(w))
        assert Poly(params.spec, _S_shifted(params, w)) == want.poly

    @settings(max_examples=60, deadline=None)
    @given(shifted_m())
    def test_m_build_is_the_shift(self, params_w):
        params, w = params_w
        want = original_shift(build_M(params)[0], params.spec.elem(w))
        assert Poly(params.spec, _M_shifted(params, w)) == want.poly

    @settings(max_examples=60, deadline=None)
    @given(shifted_s())
    def test_s_probe_holds(self, params_w):
        params, w = params_w
        f = original_shift(build_S(params), params.spec.elem(w)).poly
        checks = _S_probe(params, w)
        assert checks[0][0] == 1
        for i, v in checks:
            assert f.coefficient_encoding(i) == v, i

    def test_every_shift_over_f7(self):
        # exhaustive in w for a few members, the top check included
        spec = F(7)
        for params in itertools.islice(all_simply_params(spec, 7), 0, None, 37):
            f = build_S(params)
            for w in spec:
                g = original_shift(f, w).poly
                assert Poly(spec, _S_shifted(params, w.val)) == g
                assert all(g.coefficient_encoding(i) == v
                           for i, v in _S_probe(params, w.val))
        for params in itertools.islice(all_multiply_params(spec, 7), 0, None, 23):
            f = build_M(params)[0]
            for w in spec:
                g = original_shift(f, w).poly
                assert Poly(spec, _M_shifted(params, w.val)) == g

    def test_y_tells_a_from_a_star(self):
        # h_(r-1) of the two pairs is -m a* b^(1-r) and -m* a b^(1-r) at
        # every shift; the twin a* has two other values unless a = a*
        spec = F(7)

        def ys(params):
            b1r = params.b ** (1 - params.r)
            return {-spec.scalar(params.m) * params.a_star * b1r,
                    -spec.scalar(params.m_star) * params.a * b1r}

        for params in itertools.islice(all_multiply_params(spec, 7), 0, None, 11):
            col = build_M(params)[1]
            for w in spec:
                assert {shift_decomposition(d, w).h.poly.coefficient(6)
                        for d in col} == ys(params)
            twin = MultiplyParams(params.a_star, params.b, params.m, 7)
            assert ys(params).isdisjoint(ys(twin)) == (params.a != params.a_star)
