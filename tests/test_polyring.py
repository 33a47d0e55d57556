import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import (ConstantBase, DivisionByZero, MixedFields, NEG_INFINITY,
                      NotMonic, Poly, ZeroPolynomial, compose, derivative, divrem,
                      evaluate, exact_div, format_poly, gcd, is_squarefree,
                      max_power_dividing, parse_poly, poly_pth_root,
                      second_degree, taylor_expansion)
from wildcomp.gf import _zp_mod
from wildcomp.polyring import (KARATSUBA_THRESHOLD, MAX_PARSE_EXPONENT,
                               _divrem_raw, _mul_packed, _mul_raw, _mul_school,
                               _scale_raw)

from conftest import F, P, count_roots_in_field, modexp_x_to_q

FIELDS = [F(2), F(3), F(5), F(2, 2), F(3, 2), F(2, 3)]


def polys(min_len=0, max_len=9):
    return st.sampled_from(FIELDS).flatmap(
        lambda spec: st.lists(st.integers(0, spec.q - 1),
                              min_size=min_len, max_size=max_len)
        .map(lambda c: Poly(spec, c)))


def poly_pairs(max_len=9):
    return st.sampled_from(FIELDS).flatmap(
        lambda spec: st.tuples(
            st.lists(st.integers(0, spec.q - 1), max_size=max_len),
            st.lists(st.integers(0, spec.q - 1), max_size=max_len),
        ).map(lambda t: (Poly(spec, t[0]), Poly(spec, t[1]))))


def poly_triples(max_len=6):
    return st.sampled_from(FIELDS).flatmap(
        lambda spec: st.tuples(
            *[st.lists(st.integers(0, spec.q - 1), max_size=max_len)] * 3
        ).map(lambda t: tuple(Poly(spec, c) for c in t)))


class TestMul:
    def test_freshmans_dream(self):
        assert P(F(2), "x+1") * P(F(2), "x+1") == P(F(2), "x^2+1")

    def test_f4_scalar_coefficient(self):
        spec = F(2, 2)
        assert P(spec, "x^2+2") * P(spec, "x") == P(spec, "x^3+2*x")

    def test_product_of_shifted_squares_over_f3(self):
        spec = F(3)
        a = P(spec, "x") * P(spec, "x+2") ** 2  # x(x-1)^2
        b = P(spec, "x") * P(spec, "x+1") ** 2  # x(x-2)^2
        out = [0] * (a.degree + b.degree + 1)
        for i, ai in enumerate(a.encodings):
            for j, bj in enumerate(b.encodings):
                out[i + j] = spec.add_i(out[i + j], spec.mul_i(ai, bj))
        assert a * b == Poly(spec, out)
        assert (a * b).encodings[6] == 1  # leading term x^6

    @given(poly_triples())
    def test_ring_laws(self, fgh):
        f, g, h = fgh
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    def test_karatsuba_matches_schoolbook(self):
        rng = random.Random(5)
        spec = F(3, 2)
        n = 3 * KARATSUBA_THRESHOLD
        for _ in range(10):
            a = [rng.randrange(spec.q) for _ in range(n)] + [1]
            b = [rng.randrange(spec.q) for _ in range(n - 7)] + [1]
            assert _mul_raw(spec, a, b) == _mul_school(spec, a, b)


def _trimmed(enc):
    enc = list(enc)
    while enc and enc[-1] == 0:
        enc.pop()
    return tuple(enc)


@st.composite
def raw_encodings(draw):
    """A field and a list of ints in [-2q, 2q), about half of them in range."""
    spec = draw(st.sampled_from([F(5), F(3, 2), F(2, 8)]))
    q = spec.q
    ints = st.one_of(st.integers(0, q - 1), st.integers(-2 * q, 2 * q - 1))
    return spec, draw(st.lists(ints, max_size=8))


class TestEncodingRange:
    @pytest.mark.parametrize("build", [
        lambda: Poly(F(5), (7, 1)),
        lambda: Poly(F(5), (-1, 1)),
        # an unchecked 12 indexed past F_9's log table in the product
        lambda: Poly(F(3, 2), (12, 1)) * Poly(F(3, 2), (2, 1)),
    ])
    def test_out_of_range_raises(self, build):
        with pytest.raises(ValueError, match="out of range"):
            build()

    @pytest.mark.parametrize("build", [
        # one compared equal to Poly(F_9, (1, 1)), the other printed x+2.5
        lambda: Poly(F(3, 2), (1.0, 1)),
        lambda: Poly(F(5), (2.5, 1)),
    ])
    def test_non_integer_raises(self, build):
        with pytest.raises(ValueError, match="not an integer"):
            build()

    @settings(max_examples=300)
    @given(raw_encodings())
    def test_raises_exactly_when_out_of_range(self, case):
        spec, enc = case
        if all(0 <= c < spec.q for c in enc):
            assert Poly(spec, enc).encodings == _trimmed(enc)
        else:
            with pytest.raises(ValueError, match="out of range"):
                Poly(spec, enc)


class TestNegativeExponent:
    @pytest.mark.parametrize("build", [
        lambda spec: Poly.monomial(spec, -1),
        lambda spec: Poly(spec, (1, 2, 3)).shift_up(-2),
        lambda spec: Poly.zero(spec).shift_up(-1),
        lambda spec: Poly.x(spec) ** -1,
    ])
    def test_raises(self, build):
        with pytest.raises(ValueError, match="non-negative"):
            build(F(5))

    def test_zero_and_positive_exponents(self):
        spec = F(5)
        f = Poly(spec, (1, 2, 3))
        assert Poly.monomial(spec, 0, spec.elem(3)) == Poly(spec, (3,))
        assert Poly.monomial(spec, 2) == Poly(spec, (0, 0, 1))
        assert f.shift_up(0) == f
        assert f.shift_up(2) == Poly(spec, (0, 0, 1, 2, 3))


class TestMonomialField:
    @pytest.mark.parametrize("other", [F(13), F(5, 2)], ids=str)
    def test_coefficient_from_another_field(self, other):
        # 3 is in range over F_5, so only the field check can refuse it
        with pytest.raises(MixedFields):
            Poly.monomial(F(5), 1, other.elem(3))

    def test_same_field_coefficient(self):
        spec = F(5)
        assert Poly.monomial(spec, 1, F(5).elem(3)) == Poly(spec, (0, 3))


def naive_product(spec, a, b):
    """a*b by the double loop over field encodings."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = spec.add_i(out[i + j], spec.mul_i(ai, bj))
    while out and out[-1] == 0:
        out.pop()
    return out


class TestPackedProduct:
    """Prime-field products as one integer product, against the double loop.

    Operands of all p - 1 put every slot of the product at its largest
    value, min(len a, len b) (p-1)^2, where a carry would show first.
    """

    @pytest.mark.parametrize("p", [2, 13, 4099])
    def test_random_operands(self, p):
        spec = F(p)
        rng = random.Random(p)
        for la, lb in [(1, 1), (1, 7), (2, 3), (9, 9), (30, 17), (60, 61)]:
            a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
            b = [rng.randrange(p) for _ in range(lb - 1)] + [rng.randrange(1, p)]
            assert _mul_raw(spec, a, b) == naive_product(spec, a, b)

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_slot_width_switch(self, n):
        # 255 * 4098^2 < 2^32 <= 256 * 4098^2: the slots widen at n = 256
        spec = F(4099)
        rng = random.Random(n)
        top = [4098] * n
        mixed = [rng.randrange(4099) for _ in range(n - 1)] + [1]
        for a, b in [(top, top), (top, mixed), (mixed, top[:n - 3])]:
            assert _mul_raw(spec, a, b) == naive_product(spec, a, b)

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_largest_prime_field(self, n):
        # 65520^2 < 2^32 <= 2 * 65520^2: one term fits 32 bits, two do not
        spec = F(65521)
        top = [65520] * n
        assert _mul_raw(spec, top, top) == naive_product(spec, top, top)
        assert _mul_packed(65521, top, [1]) == top

    def test_empty_operands(self):
        spec = F(13)
        assert _mul_raw(spec, [], [1, 2]) == []
        assert _mul_raw(spec, [3], []) == []
        assert _mul_raw(spec, [], []) == []
        assert Poly.zero(spec) * P(spec, "x+1") == Poly.zero(spec)

    def test_trailing_zeros_trimmed(self):
        # products of nonzero polynomials over a field are nonzero, but
        # untrimmed operands must still give a trimmed result
        assert _mul_packed(7, [1, 2, 0], [3, 0]) == [3, 6]


class TestDivRem:
    def test_exact(self):
        q, r = divrem(P(F(2), "x^3"), P(F(2), "x"))
        assert (q, r) == (P(F(2), "x^2"), Poly.zero(F(2)))

    def test_with_remainder(self):
        q, r = divrem(P(F(2), "x^3+x+1"), P(F(2), "x^2+1"))
        assert q == P(F(2), "x") and r == Poly.one(F(2))

    def test_smaller_dividend(self):
        a, b = P(F(5), "x+1"), P(F(5), "x^3")
        assert divrem(a, b) == (Poly.zero(F(5)), a)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            divrem(P(F(5), "x"), Poly.zero(F(5)))

    @given(poly_pairs())
    def test_division_identity(self, ab):
        a, b = ab
        if b.is_zero:
            return
        q, r = divrem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @pytest.mark.parametrize("p,d", [(13, 1), (3, 2)])
    def test_untrimmed_divisor(self, p, d):
        # a zero above the divisor's top is not read as its leading term
        spec = F(p, d)
        a = [1, 2, 3, 4]
        assert _divrem_raw(spec, a, [1, 2, 0]) == _divrem_raw(spec, a, [1, 2])
        assert _divrem_raw(spec, a, (5, 0, 0)) == _divrem_raw(spec, a, [5])
        q, r = _divrem_raw(spec, a, [1, 2, 0])
        assert Poly(spec, q) * Poly(spec, [1, 2]) + Poly(spec, r) == Poly(spec, a)
        for zero in ([], [0], [0, 0, 0]):
            with pytest.raises(DivisionByZero):
                _divrem_raw(spec, a, zero)


def naive_divrem(spec, a, b):
    """Long division by field operations, one quotient term at a time."""
    db = len(b) - 1
    inv = spec.inv_i(b[-1])
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = spec.mul_i(r[i], inv)
        q[i - db] = f
        for j, bj in enumerate(b):
            r[i - db + j] = spec.sub_i(r[i - db + j], spec.mul_i(f, bj))
    r = r[:db]
    while r and r[-1] == 0:
        r.pop()
    return q, r


@st.composite
def prime_divisions(draw):
    """(p, a, b) with trimmed b of degree 0 to 12 and a quotient of length 1,
    2 or up to 30; the dividend's top coefficients may be zero."""
    p = draw(st.sampled_from([2, 3, 13, 4099, 65521]))
    coeff = st.integers(0, p - 1)
    db = draw(st.integers(0, 12))
    qlen = draw(st.sampled_from([1, 2]) | st.integers(3, 30))
    b = draw(st.lists(coeff, min_size=db, max_size=db)) + [draw(st.integers(1, p - 1))]
    a = draw(st.lists(coeff, min_size=db + qlen, max_size=db + qlen))
    zeros = draw(st.integers(0, 3))
    return p, a[:len(a) - zeros] + [0] * min(zeros, len(a)), b


class TestPrimeDivision:
    """The log/Zech division kernel over F_p, from F_2 to F_65521, against a
    long-division loop on field operations."""

    @settings(max_examples=300)
    @given(prime_divisions())
    def test_against_long_division(self, pab):
        p, a, b = pab
        spec = F(p)
        q, r = _divrem_raw(spec, a, b)
        assert (q, r) == naive_divrem(spec, a, b)
        assert len(q) == len(a) - len(b) + 1
        assert len(r) < len(b) and (not r or r[-1])
        # a = q*b + r
        back = naive_product(spec, q, b)
        back += [0] * (len(a) - len(back))
        for i, c in enumerate(r):
            back[i] = spec.add_i(back[i], c)
        assert back == a

    @pytest.mark.parametrize("p", [13, 65521])
    def test_quotient_lengths(self, p):
        spec = F(p)
        rng = random.Random(p)
        for db in [0, 1, 7, 60]:
            b = [rng.randrange(p) for _ in range(db)] + [rng.randrange(1, p)]
            for qlen in [1, 2, 3, 40]:
                a = [rng.randrange(p) for _ in range(db + qlen - 1)] + [1]
                assert _divrem_raw(spec, a, b) == naive_divrem(spec, a, b)

    @settings(max_examples=200)
    @given(prime_divisions())
    def test_remainder_modulo_monic(self, pab):
        # gf's plain-integer remainder, which builds the field tables
        p, a, b = pab
        m = b[:-1] + [1]
        assert _zp_mod(a, m, p) == naive_divrem(F(p), a, m)[1]
        assert _zp_mod(a[:len(m) - 1], m, p) == list(_trimmed(a[:len(m) - 1]))


class TestExactDiv:
    def test_examples(self):
        assert exact_div(P(F(5), "x^2+4"), P(F(5), "x+4")) == P(F(5), "x+1")
        assert exact_div(P(F(5), "x^2+1"), P(F(5), "x")) is None

    @given(poly_pairs(max_len=6))
    def test_recovers_factor(self, fg):
        f, g = fg
        if g.is_zero:
            return
        assert exact_div(f * g, g) == f


class TestGcd:
    def test_gcd_zero_zero_is_zero(self):
        assert gcd(Poly.zero(F(3)), Poly.zero(F(3))).is_zero

    def test_common_factor(self):
        assert gcd(P(F(5), "x^2+4"), P(F(5), "x+4")) == P(F(5), "x+4")

    def test_root_gcd_degree(self):
        spec = F(3)
        f = P(spec, "x^4+2")  # roots 1 and 2
        x3 = modexp_x_to_q(f, 3)
        assert gcd(x3 - Poly.x(spec), f).degree == 2

    @given(poly_pairs(max_len=7))
    def test_divides_both_and_monic(self, ab):
        a, b = ab
        g = gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
        else:
            assert g.is_monic()
            assert exact_div(a, g) is not None or a.is_zero
            assert exact_div(b, g) is not None or b.is_zero


class TestDerivative:
    def test_pth_power_vanishes(self):
        assert derivative(P(F(3), "x^3")).is_zero
        assert derivative(P(F(2), "x^2")).is_zero

    def test_termwise(self):
        assert derivative(P(F(3), "x^9+x^5+x")) == P(F(3), "2*x^4+1")

    def test_constant(self):
        assert derivative(P(F(5), "3")).is_zero

    @given(poly_pairs(max_len=6))
    def test_leibniz(self, fg):
        f, g = fg
        assert derivative(f * g) == derivative(f) * g + f * derivative(g)


PRIME_FIELDS = [F(5), F(13), F(65521)]


def prime_field_polys(max_len=20):
    return st.sampled_from(PRIME_FIELDS).flatmap(
        lambda spec: st.lists(st.integers(0, spec.q - 1), max_size=max_len)
        .map(lambda c: (spec, c)))


class TestPrimeFieldTermwise:
    """derivative and _scale_raw over F_p against one mul_i per term."""

    @given(prime_field_polys())
    def test_derivative_is_termwise(self, sc):
        spec, c = sc
        want = [spec.mul_i(ci, i % spec.p) for i, ci in enumerate(c) if i]
        assert derivative(Poly(spec, c)) == Poly(spec, want)

    @pytest.mark.parametrize("spec", PRIME_FIELDS, ids=str)
    def test_terms_at_multiples_of_p_vanish(self, spec):
        p = spec.p
        f = (Poly.monomial(spec, 2 * p, spec.elem(p - 1))
             + Poly.monomial(spec, p + 1) + Poly.monomial(spec, p))
        assert derivative(f) == Poly.monomial(spec, p)
        assert derivative(Poly.monomial(spec, 3 * p)).is_zero

    @given(prime_field_polys(), st.integers(0, 65520))
    def test_scale_is_termwise(self, sc, cv):
        spec, c = sc
        cv %= spec.p
        got = _scale_raw(spec, c, cv)
        if cv == 0:
            assert got == []
        elif cv == 1:
            assert got == c  # returned as given, trailing zeros included
        else:
            assert got == [spec.mul_i(ci, cv) for ci in c]


class TestEvaluate:
    def test_examples(self):
        assert evaluate(P(F(3), "x^2+1"), F(3).one).val == 2
        f = P(F(5), "x^3+2*x+4")
        assert evaluate(f, F(5).zero).val == 4

    @given(polys(), st.integers(min_value=0))
    def test_against_monomial_sum(self, f, seed):
        a = f.spec.elem(seed % f.spec.q)
        total = f.spec.zero
        for i, c in enumerate(f.coeffs):
            total = total + c * a ** i
        assert evaluate(f, a) == total


class TestCompose:
    def test_frobenius_commutation(self):
        spec = F(2)
        h = P(spec, "x^2+x")
        assert compose(P(spec, "x^2"), h) == P(spec, "x^4+x^2")
        assert compose(h, P(spec, "x^2")) == P(spec, "x^4+x^2")

    def test_identity(self):
        f = P(F(5), "x^3+2*x")
        assert compose(f, Poly.x(F(5))) == f

    @given(poly_pairs(max_len=5))
    def test_degree_law(self, gh):
        g, h = gh
        if g.degree < 1 or h.degree < 1:
            return
        assert compose(g, h).degree == g.degree * h.degree

    @given(poly_triples(max_len=4))
    @settings(deadline=None)
    def test_associativity(self, abc):
        a, b, c = abc
        if b.degree < 1 or c.degree < 1:
            return
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(polys(max_len=8), st.integers(min_value=0), st.integers(min_value=1))
    def test_linear_path_matches_horner(self, f, w, u):
        spec = f.spec
        lin = Poly(spec, (w % spec.q, 1 + u % (spec.q - 1) if spec.q > 1 else 1))
        acc = Poly.zero(spec)
        power = Poly.one(spec)
        for c in f.coeffs:
            acc = acc + c * power
            power = power * lin
        assert compose(f, lin) == acc

    @pytest.mark.parametrize("spec", [F(2, 4), F(3, 3), F(13), F(2, 10)],
                             ids=str)
    def test_linear_shift_by_evaluation_and_taylor(self, spec):
        # g(ux + w) at every point (64 sampled ones for the untabled
        # F_1024), and for u = 1 the constant Taylor digits of g in x - w
        rng = random.Random(spec.q)
        cases = [(1, 0), (1, rng.randrange(1, spec.q)),
                 (rng.randrange(2, spec.q), 0)]
        cases += [(rng.randrange(1, spec.q), rng.randrange(spec.q))
                  for _ in range(9)]
        for i, (u, w) in enumerate(cases):
            deg = 40 if i % 2 else rng.randrange(1, 41)
            g = Poly(spec, [rng.randrange(spec.q) for _ in range(deg)]
                     + [rng.randrange(1, spec.q)])
            got = compose(g, Poly(spec, (w, u)))
            assert got.degree == deg
            points = (range(spec.q) if spec.q <= 256
                      else rng.sample(range(spec.q), 64))
            for a in points:
                ua_w = spec.add_i(spec.mul_i(u, a), w)
                assert evaluate(got, spec.elem(a)) == evaluate(g, spec.elem(ua_w))
            if u == 1:
                digits = taylor_expansion(g, Poly(spec, (spec.neg_i(w), 1)))
                assert got == Poly(spec, [d.coefficient_encoding(0)
                                          for d in digits])


class TestModExp:
    def test_examples(self):
        assert modexp_x_to_q(P(F(2), "x^2+1"), 4) == Poly.one(F(2))
        # x mod (x - a) is the constant a; Fermat keeps it fixed
        assert modexp_x_to_q(P(F(3), "x+2"), 3) == Poly.one(F(3))
        assert modexp_x_to_q(P(F(3), "x^4+2*x+1"), 3) == P(F(3), "x^3")

    def test_constant_modulus_rejected(self):
        with pytest.raises(ConstantBase):
            modexp_x_to_q(Poly.one(F(2)), 4)


class TestCountRoots:
    def test_examples(self):
        assert count_roots_in_field(P(F(2), "x^3+x+1")) == 0
        assert count_roots_in_field(P(F(3), "x^4+2")) == 2
        assert count_roots_in_field(P(F(2, 2), "x^3+1")) == 3

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            count_roots_in_field(Poly.zero(F(2)))

    @pytest.mark.parametrize("spec", [F(2), F(3), F(2, 2)])
    def test_exhaustive_agreement_all_small_polys(self, spec):
        import itertools
        for deg in range(1, 5):
            for tail in itertools.product(range(spec.q), repeat=deg):
                f = Poly(spec, tail[:-1] + (tail[-1] or 1,))
                if f.degree < 1:
                    continue
                brute = sum(1 for a in spec if evaluate(f, a).val == 0)
                assert count_roots_in_field(f) == brute

    @pytest.mark.parametrize("spec", [F(2, 8), F(3, 5), F(5, 3), F(7, 2),
                                      F(13)], ids=str)
    def test_t_polynomials_against_evaluation(self, spec):
        # y^(r+1) - eps*u*y + u with r = p, every u != 0: the root counts
        # behind each S classification, over fields up to q = 256
        r = spec.p
        for eps in (0, 1):
            for u in range(1, spec.q):
                enc = [0] * (r + 2)
                enc[0], enc[-1] = u, 1
                if eps:
                    enc[1] = spec.neg_i(u)
                f = Poly(spec, enc)
                brute = sum(1 for a in spec if evaluate(f, a).val == 0)
                assert count_roots_in_field(f) == brute, (spec, eps, u)


class TestTaylor:
    def test_square_of_base(self):
        spec = F(2)
        base = P(spec, "x^2+x")
        digits = taylor_expansion(base * base, base)
        assert [d.encodings for d in digits] == [(), (), (1,)]

    def test_cubic_in_x_squared(self):
        digits = taylor_expansion(P(F(2), "x^3+x+1"), P(F(2), "x^2"))
        assert [format_poly(d) for d in digits] == ["x+1", "x"]

    def test_constant_base_rejected(self):
        with pytest.raises(ConstantBase):
            taylor_expansion(P(F(2), "x"), Poly.one(F(2)))

    @given(poly_pairs(max_len=14))
    def test_round_trip(self, fb):
        f, base = fb
        if base.degree < 1:
            return
        digits = taylor_expansion(f, base)
        acc = Poly.zero(f.spec)
        power = Poly.one(f.spec)
        for d in digits:
            assert d.degree < base.degree
            acc = acc + d * power
            power = power * base
        assert acc == f


    @pytest.mark.parametrize("p,d,deg_f,deg_base", [
        (13, 1, 169, 13), (2, 8, 256, 16), (3, 3, 243, 1)])
    def test_round_trip_many_digits(self, p, d, deg_f, deg_base):
        spec = F(p, d)
        rng = random.Random(deg_f)
        f = Poly(spec, [rng.randrange(spec.q) for _ in range(deg_f)] + [1])
        base = Poly(spec, [rng.randrange(spec.q) for _ in range(deg_base)]
                    + [rng.randrange(1, spec.q)])
        digits = taylor_expansion(f, base)
        assert len(digits) == deg_f // deg_base + 1
        assert all(dig.degree < deg_base for dig in digits)
        acc = Poly.zero(spec)
        for dig in reversed(digits):
            acc = acc * base + dig
        assert acc == f

    def test_zero_and_short_f_are_one_digit(self):
        spec = F(3)
        base = P(spec, "x^3+x")
        assert taylor_expansion(Poly.zero(spec), base) == [Poly.zero(spec)]
        assert taylor_expansion(P(spec, "2*x^2+1"), base) == [P(spec, "2*x^2+1")]


class TestMaxPower:
    def test_examples(self):
        assert max_power_dividing(P(F(2), "x^3+x^2"), P(F(2), "x")) == 2
        assert max_power_dividing(P(F(2), "x+1"), P(F(2), "x")) == 0

    @given(poly_pairs(max_len=5), st.integers(0, 4))
    def test_constructed_power(self, bu, k):
        base, u = bu
        if base.degree < 1 or u.is_zero:
            return
        if exact_div(u, base) is not None:
            return
        assert max_power_dividing(base ** k * u, base) == k

    @given(poly_pairs(max_len=5), st.integers(0, 6))
    def test_against_repeated_divrem(self, bu, k):
        # u may itself be divisible by base
        base, u = bu
        if base.degree < 1 or u.is_zero:
            return
        f = base ** k * u
        want = 0
        while True:
            q, rem = divrem(f, base)
            if not rem.is_zero:
                break
            f, want = q, want + 1
        assert want >= k
        assert max_power_dividing(base ** k * u, base) == want


class TestPolyPthRoot:
    def test_examples(self):
        assert poly_pth_root(P(F(2), "x^4+x^2"), 1) == P(F(2), "x^2+x")
        assert poly_pth_root(P(F(3), "x^3"), 1) == P(F(3), "x")
        assert poly_pth_root(P(F(2), "x^2+x"), 1) is None

    @given(polys(max_len=5), st.integers(1, 2))
    def test_powers_back(self, g, l):
        step = g.spec.p ** l
        f = g ** step
        got = poly_pth_root(f, l)
        assert got == g


class TestSecondDegree:
    def test_examples(self):
        assert second_degree(P(F(2), "x^4")) == NEG_INFINITY
        assert second_degree(P(F(3), "x^9+x^5+x")) == 5
        spec = F(3)
        assert second_degree(P(spec, "x^9+x^3")) == 3

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            second_degree(P(F(3), "2*x^2"))


class TestSquarefree:
    def test_examples(self):
        assert is_squarefree(P(F(2), "x^2+x"))
        assert not is_squarefree(P(F(2), "x^2"))
        assert not is_squarefree(P(F(3), "x^3+1"))  # (x+1)^3

    def test_pth_power_coefficients(self):
        # nonconstant members of F[x^p] are never squarefree
        assert not is_squarefree(P(F(3), "x^6+x^3+1"))


class TestTextForm:
    def test_canonical_printing(self):
        spec = F(3, 2)
        assert format_poly(P(spec, "x^9+x^5+x")) == "x^9+x^5+x"
        assert format_poly(Poly.zero(spec)) == "0"
        assert format_poly(Poly(spec, (2, 0, 1))) == "x^2+2"
        assert format_poly(Poly(spec, (0, 5))) == "5*x"

    def test_parse_any_order_and_duplicates(self):
        spec = F(3)
        assert parse_poly(spec, "x+x^9+x^5") == P(spec, "x^9+x^5+x")
        assert parse_poly(spec, "x+x+x") == Poly.zero(spec)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly(F(3), "x^-1")
        with pytest.raises(ValueError):
            parse_poly(F(3), "7*x")  # encoding out of range

    def test_parse_bounds_exponents(self):
        spec = F(2)
        assert parse_poly(spec, f"x^{MAX_PARSE_EXPONENT}").degree \
            == MAX_PARSE_EXPONENT
        for text in (f"x^{MAX_PARSE_EXPONENT + 1}", "x^1000000000000000",
                     "x+x^400000000"):
            with pytest.raises(ValueError, match="parse limit"):
                parse_poly(spec, text)

    def test_parse_bounds_digit_strings(self):
        """Over-long digit strings are refused by length, before int() sees them."""
        spec = F(2, 3)
        x4 = parse_poly(spec, "x^4")
        assert parse_poly(spec, "x^0000000000000000000004") == x4
        assert parse_poly(spec, "x^" + "0" * 5000 + "4") == x4
        assert parse_poly(spec, "0" * 5000 + "7*x^4") == parse_poly(spec, "7*x^4")
        long = "9" * 5000
        cases = [(f"x^{long}", f"exponent of 5000 digits above the parse limit "
                               f"{MAX_PARSE_EXPONENT}"),
                 (f"x^{'1' * 6}", "exponent 111111 above the parse limit"),
                 (f"{long}*x^4", "coefficient encoding of 5000 digits out of range"),
                 (f"x+{long}", "coefficient encoding of 5000 digits out of range"),
                 ("10*x", "coefficient encoding 10 out of range")]
        for text, message in cases:
            with pytest.raises(ValueError) as exc:
                parse_poly(spec, text)
            assert message in str(exc.value)
            assert "set_int_max_str_digits" not in str(exc.value)

    @given(polys())
    def test_round_trip(self, f):
        assert parse_poly(f.spec, format_poly(f)) == f
