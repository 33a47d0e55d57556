import itertools
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import (Collision, Decomposition, DegreeMismatch, MixedFields,
                      MonicOriginal, MultiplyParams, NotMonic, NotOriginal,
                      Poly, build_M, compose, derivative, left_divide,
                      original_shift, projective_roots, shift_decomposition,
                      taylor_expansion)
from wildcomp import polyring
from wildcomp.decomp_core import right_component_at

from conftest import F, MO, P, random_monic_original

FIELDS = [F(2), F(3), F(5), F(2, 2), F(3, 2)]
DIGIT_FIELDS = [F(2), F(2, 2), F(3), F(3, 2), F(5), F(7)]


def monic_originals(min_deg=1, max_deg=5):
    return st.sampled_from(FIELDS).flatmap(
        lambda spec: st.integers(min_deg, max_deg).flatmap(
            lambda d: st.lists(st.integers(0, spec.q - 1),
                               min_size=d - 1, max_size=d - 1)
            .map(lambda inner: MonicOriginal(Poly(spec, (0, *inner, 1))))))


def mo_with_two_shifts():
    return monic_originals().flatmap(
        lambda f: st.tuples(
            st.just(f),
            st.integers(0, f.spec.q - 1).map(f.spec.elem),
            st.integers(0, f.spec.q - 1).map(f.spec.elem)))


class TestMonicOriginal:
    def test_accepts(self):
        MonicOriginal(P(F(2), "x^2+x"))

    def test_not_original(self):
        with pytest.raises(NotOriginal):
            MonicOriginal(P(F(2), "x^2+1"))

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            MonicOriginal(P(F(3), "2*x^2"))

    def test_rejects_constant_and_zero(self):
        with pytest.raises(NotOriginal):
            MonicOriginal(Poly.one(F(3)))
        with pytest.raises(NotMonic):
            MonicOriginal(Poly.zero(F(3)))


class TestDecompositionAndCollision:
    def test_nonlinear_required(self):
        with pytest.raises(ValueError):
            Decomposition(MO(F(3), "x"), MO(F(3), "x^2"))

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            Decomposition(MO(F(2), "x^2"), MO(F(3), "x^2"))

    def test_collision_validates_composition(self):
        f = MO(F(2), "x^4+x^2")
        good = Decomposition(MO(F(2), "x^2"), MO(F(2), "x^2+x"))
        Collision(f, frozenset({good}))
        bad = Decomposition(MO(F(2), "x^2"), MO(F(2), "x^2"))
        with pytest.raises(ValueError):
            Collision(f, frozenset({bad}))


class TestLeftDivide:
    def test_frobenius_pair(self):
        f = MO(F(2), "x^4+x^2")
        assert left_divide(f, MO(F(2), "x^2+x")) == MO(F(2), "x^2")
        assert left_divide(f, MO(F(2), "x^2")) == MO(F(2), "x^2+x")

    def test_undefined_when_digit_not_constant(self):
        assert left_divide(MO(F(2), "x^4+x^3"), MO(F(2), "x^2")) is None

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            left_divide(MO(F(2), "x^4"), MO(F(2), "x^3"))

    @given(monic_originals(2, 4), monic_originals(2, 4))
    @settings(deadline=None)
    def test_round_trip_random(self, g, h):
        if g.spec != h.spec:
            return
        f = MonicOriginal(compose(g.poly, h.poly))
        assert left_divide(f, h) == g

    @pytest.mark.parametrize("planted", [False, True])
    def test_one_division_when_digit_0_not_constant(self, monkeypatch, planted):
        spec = F(3)
        h = MO(spec, "x^3+x^2+2*x")
        g = MO(spec, "x^3+2*x")
        # adding x^2 to g(h) makes digit 0 equal to x^2
        f = MonicOriginal(compose(g.poly, h.poly)
                          + (Poly.zero(spec) if planted else P(spec, "x^2")))
        calls = []
        divrem = polyring._divrem_raw

        def counted(*args):
            calls.append(1)
            return divrem(*args)

        monkeypatch.setattr(polyring, "_divrem_raw", counted)
        assert left_divide(f, h) == (g if planted else None)
        assert len(calls) == (3 if planted else 1)

    @given(st.sampled_from(DIGIT_FIELDS), st.integers(1, 4), st.integers(2, 4),
           st.booleans(), st.randoms())
    @settings(deadline=None)
    def test_none_exactly_when_a_digit_is_not_constant(self, spec, dg, dh,
                                                       planted, rng):
        h = random_monic_original(rng, spec, dh)
        if planted:
            g = random_monic_original(rng, spec, dg)
            f = MonicOriginal(compose(g.poly, h.poly))
        else:
            f = random_monic_original(rng, spec, dg * dh)
        digits = taylor_expansion(f.poly, h.poly)
        got = left_divide(f, h)
        if any(d.degree >= 1 for d in digits):
            assert got is None and not planted
        else:
            assert got is not None
            assert got.poly.encodings == tuple(d.coefficient_encoding(0)
                                               for d in digits)

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 1)])
    def test_round_trip_full_enumeration(self, p, d):
        spec = F(p, d)
        q = spec.q
        mo = [MonicOriginal(Poly(spec, (0, *inner, 1)))
              for inner in itertools.product(range(q), repeat=p - 1)]
        for g in mo:
            for h in mo:
                f = MonicOriginal(compose(g.poly, h.poly))
                assert left_divide(f, h) == g


def top_roots(f: MonicOriginal, r: int) -> list:
    """Roots y of P_f(y) = y^(r+1) - f_(r^2-r) y - f_(r^2-r-1)."""
    spec, c = f.spec, f.poly.coefficient_encoding
    return [spec.elem(y) for y in projective_roots(
        spec, r, spec.neg_i(c(r * r - r)), spec.neg_i(c(r * r - r - 1)))]


def at_root(f: MonicOriginal, y) -> MonicOriginal:
    """``right_component_at`` i = r-1 with g_(r-1) = f_(r^2-r) - y^r."""
    r = isqrt(f.degree)
    return right_component_at(f, r - 1,
                              (f.poly.coefficient(r * r - r) - y ** r).val)


# (field, r) with a multiply original family: r = p and r = p^2
M_FIELDS = [(F(5), 5), (F(5, 2), 5), (F(7), 7), (F(2, 3), 8), (F(3, 2), 9)]


@st.composite
def shifted_m_pairs(draw):
    spec, r = draw(st.sampled_from(M_FIELDS))
    b = spec.elem(draw(st.integers(1, spec.q - 1)))
    a = spec.elem(draw(st.integers(1, spec.q - 1).filter(
        lambda v: spec.elem(v) != b ** r)))
    m = draw(st.sampled_from([m for m in range(2, r - 1) if m % spec.p]))
    w = spec.elem(draw(st.integers(0, spec.q - 1)))
    f, col = build_M(MultiplyParams(a, b, m, r))
    return original_shift(f, w), r, {shift_decomposition(d, w) for d in col}


class TestRightComponent:
    @settings(max_examples=60, deadline=None)
    @given(shifted_m_pairs())
    def test_reaches_both_multiply_pairs(self, member):
        # every root whose h divides f gives one of the two pairs' h, and
        # both pairs are reached; P_f may have other roots (r + 1 in all
        # over F_25), whose h do not divide f
        f, r, pairs = member
        found = {}
        for y in top_roots(f, r):
            h = at_root(f, y)
            assert h.poly.coefficient(r - 1) == y
            g = left_divide(f, h)
            if g is not None:
                found[y] = Decomposition(g, h)
        assert set(found.values()) == pairs

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(F(2), 2), (F(2, 2), 2), (F(2, 2), 4), (F(3), 3),
                            (F(3, 2), 3), (F(5), 5), (F(7), 7)]),
           st.randoms())
    def test_planted_top_coefficients_give_h_back(self, spec_r, rng):
        spec, r = spec_r

        def top_nonzero():
            inner = [rng.randrange(spec.q) for _ in range(r - 2)]
            return MonicOriginal(Poly(spec, (0, *inner,
                                             rng.randrange(1, spec.q), 1)))

        g, h = top_nonzero(), top_nonzero()
        f = Decomposition(g, h).compose()
        assert at_root(f, h.poly.coefficient(r - 1)) == h

    def test_rejects_zero_g_coefficient(self):
        # g_(r-1) = f_(r^2-r) - y^r = 0, with y != 0 and with y = 0
        spec = F(5)
        with pytest.raises(ValueError):
            at_root(MO(spec, "x^25+x^20+x"), spec.one)
        with pytest.raises(ValueError):
            at_root(MO(spec, "x^25+x^19+x"), spec.zero)

    def test_zero_y_gives_h_back(self):
        # h_2 = 0 and g_2 != 0 over F_3^9, so f_5 = -g_2 h_2 = 0
        spec = F(3, 9)
        rng = random.Random(43)
        for _ in range(5):
            g = MonicOriginal(Poly(spec, (0, rng.randrange(spec.q),
                                          rng.randrange(1, spec.q), 1)))
            h = MonicOriginal(Poly(spec, (0, rng.randrange(spec.q), 0, 1)))
            f = Decomposition(g, h).compose()
            assert f.poly.coefficient(5).val == 0
            assert at_root(f, spec.zero) == h

    def test_degree_must_be_a_power_of_p_squared(self):
        with pytest.raises(DegreeMismatch):
            at_root(MO(F(5), "x^24+x"), F(5).one)
        with pytest.raises(DegreeMismatch):
            at_root(MO(F(5), "x^36+x^29"), F(5).one)


class TestOriginalShift:
    def test_shift_by_zero_is_identity(self):
        f = MO(F(3), "x^2")
        assert original_shift(f, F(3).zero) is f

    def test_square_shift_example(self):
        assert original_shift(MO(F(3), "x^2"), F(3).one) == MO(F(3), "x^2+2*x")

    @given(mo_with_two_shifts())
    @settings(deadline=None)
    def test_group_action(self, fww):
        f, w1, w2 = fww
        assert original_shift(original_shift(f, w1), w2) == \
            original_shift(f, w1 + w2)

    def test_group_action_exhaustive_p4_f4(self):
        spec = F(2, 2)
        for inner in itertools.product(range(4), repeat=3):
            f = MonicOriginal(Poly(spec, (0, *inner, 1)))
            for w1 in spec:
                for w2 in spec:
                    assert original_shift(original_shift(f, w1), w2) == \
                        original_shift(f, w1 + w2)

    @given(mo_with_two_shifts())
    @settings(deadline=None)
    def test_derivative_law(self, fww):
        f, w, _ = fww
        spec = f.spec
        lin = Poly(spec, (w.val, 1))
        assert derivative(original_shift(f, w).poly) == \
            compose(derivative(f.poly), lin)


class TestShiftDecomposition:
    def test_zero_shift(self):
        d = Decomposition(MO(F(3), "x^3"), MO(F(3), "x^3+x"))
        assert shift_decomposition(d, F(3).zero) == d

    @given(monic_originals(2, 3), monic_originals(2, 3),
           st.integers(min_value=0))
    @settings(deadline=None)
    def test_composes_to_shifted_composition(self, g, h, wseed):
        if g.spec != h.spec:
            return
        w = g.spec.elem(wseed % g.spec.q)
        d = Decomposition(g, h)
        shifted = shift_decomposition(d, w)
        assert shifted.compose() == original_shift(d.compose(), w)

    @given(monic_originals(2, 3), monic_originals(2, 3),
           st.integers(min_value=0), st.integers(min_value=0))
    @settings(deadline=None)
    def test_shift_twice_is_shift_by_sum(self, g, h, s1, s2):
        if g.spec != h.spec:
            return
        spec = g.spec
        w1, w2 = spec.elem(s1 % spec.q), spec.elem(s2 % spec.q)
        d = Decomposition(g, h)
        assert shift_decomposition(shift_decomposition(d, w1), w2) == \
            shift_decomposition(d, w1 + w2)
