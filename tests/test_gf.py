import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import (FIELD_LIMIT, DegenerateLeadingCoefficient,
                      DivisionByZero, FieldTooLarge, MixedFields, NotPrime,
                      ReducibleModulus, enumerate_elements, field_new,
                      format_field, frobenius, gf, parse_field,
                      projective_roots, pth_root, solve_quadratic, sqrt)
from wildcomp.gf import _mul_packed, _zp_mod

from conftest import F

SMALL_FIELDS = [F(2), F(3), F(5), F(7), F(2, 2), F(2, 3), F(3, 2), F(5, 2)]
# the properties also run on two larger fields; the q^3 loop of
# TestSolveQuadratic keeps to SMALL_FIELDS
PROPERTY_FIELDS = SMALL_FIELDS + [F(2, 10), F(3, 7)]

elems = st.builds(
    lambda spec, k: spec.elem(k % spec.q),
    st.sampled_from(PROPERTY_FIELDS), st.integers(min_value=0))


def same_field_pairs():
    return st.sampled_from(PROPERTY_FIELDS).flatmap(
        lambda spec: st.tuples(
            st.integers(0, spec.q - 1), st.integers(0, spec.q - 1)
        ).map(lambda t: (spec.elem(t[0]), spec.elem(t[1]))))


class TestFieldNew:
    def test_prime_field(self):
        spec = field_new(2)
        assert (spec.p, spec.d, spec.q) == (2, 1, 2)

    def test_f4_default_modulus_is_unique_irreducible(self):
        assert field_new(2, 2).modulus == (1, 1, 1)

    def test_explicit_modulus_checked_for_irreducibility(self):
        spec = field_new(3, 2, [2, 2, 1])
        assert spec.modulus == (2, 2, 1)
        # z^2 + 2z + 2 has no roots over F_3: 0->2, 1->2, 2->1
        for v in range(3):
            assert (v * v + 2 * v + 2) % 3 != 0

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            field_new(4)

    def test_reducible_modulus(self):
        with pytest.raises(ReducibleModulus):
            field_new(2, 2, [0, 0, 1])  # z^2

    def test_cached(self):
        assert field_new(3, 2) is field_new(3, 2)

    @pytest.mark.parametrize("p,d,modulus", [(3, 2.0, None), (5, True, None),
                                             (3, 2, [1.5, 0, 1]),
                                             (3, 2, [2.9, 0, 1])])
    def test_non_integer_arguments(self, p, d, modulus):
        # neither truncated into another field nor failing inside the build
        with pytest.raises(ValueError):
            field_new(p, d, modulus)

    def test_largest_fields_build(self):
        assert field_new(2, 16).q == FIELD_LIMIT
        assert field_new(65521).q == 65521

    @pytest.mark.parametrize("p,d", [(2, 17), (3, 11), (65537, 1),
                                     (2, 48), (10 ** 18 + 3, 1), (5, 10 ** 30)])
    def test_too_large_refused_before_any_search(self, monkeypatch, p, d):
        def fail(*args):
            raise AssertionError("searched a field above the limit")

        for name in ("_is_prime", "_default_modulus", "_zp_is_irreducible"):
            monkeypatch.setattr(gf, name, fail)
        with pytest.raises(FieldTooLarge, match=f"field limit of {FIELD_LIMIT}"):
            field_new(p, d)


class Reference:
    """Digit-wise arithmetic of spec's field, independent of its tables:
    digits added mod p, products reduced by the modulus."""

    def __init__(self, spec):
        self.spec = spec

    def add(self, a, b):
        spec = self.spec
        return spec.encode_coeffs([x + y for x, y in
                                   zip(spec.coeffs_of(a), spec.coeffs_of(b))])

    def neg(self, a):
        return self.spec.encode_coeffs([-x for x in self.spec.coeffs_of(a)])

    def mul(self, a, b):
        spec = self.spec
        prod = _mul_packed(spec.p, spec.coeffs_of(a), spec.coeffs_of(b))
        return spec.encode_coeffs(_zp_mod(prod, spec.modulus, spec.p))

    def pow(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


def check_against_reference(spec, pairs, elements):
    ref = Reference(spec)
    p, q = spec.p, spec.q
    for a, b in pairs:
        assert spec.add_i(a, b) == ref.add(a, b), (a, b)
        assert spec.sub_i(a, b) == ref.add(a, ref.neg(b)), (a, b)
        assert spec.mul_i(a, b) == ref.mul(a, b), (a, b)
    for a in elements:
        neg = spec.neg_i(a)
        assert neg == ref.neg(a)
        assert spec.add_i(a, neg) == 0 and spec.sub_i(a, a) == 0
        for e in (0, 1, 2, p, q - 2, q + 5):
            assert spec.pow_i(a, e) == ref.pow(a, e), (a, e)
        for l in (1, 2):
            assert ref.pow(spec.pth_root_i(a, l), p ** l) == a
        if a:
            inv = spec.inv_i(a)
            assert ref.mul(a, inv) == 1
            assert spec.pow_i(a, -3) == ref.pow(inv, 3)


class TestAgainstReference:
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (13, 1), (2, 2), (2, 3),
                                     (3, 2), (5, 2), (2, 4), (3, 3), (7, 2),
                                     (3, 4), (3, 5), (2, 8)])
    def test_every_pair(self, p, d):
        spec = F(p, d)
        q = spec.q
        check_against_reference(spec, [(a, b) for a in range(q) for b in range(q)],
                                range(q))

    @pytest.mark.parametrize("p,d", [(2, 10), (3, 7), (5, 5), (7, 4), (2, 16),
                                     (3, 10), (11, 4)])
    def test_seeded_pairs(self, p, d):
        spec = F(p, d)
        rng = random.Random(p * 100 + d)
        pairs = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(2000)]
        pairs += [(0, 0), (0, 1), (1, 0), (1, spec.p - 1)]
        check_against_reference(spec, pairs, [a for a, _ in pairs[:400]] + [0, 1])


class TestArith:
    def test_f4_generator_square(self):
        spec = F(2, 2)
        z = spec.gen
        assert z * z == z + spec.one  # z^2 = z + 1 under z^2+z+1

    def test_f3_add(self):
        spec = F(3)
        assert (spec.elem(2) + spec.elem(2)).val == 1

    def test_f5_inverse(self):
        assert F(5).elem(2).inv().val == 3

    def test_division_by_zero(self):
        spec = F(5)
        with pytest.raises(DivisionByZero):
            spec.one / spec.zero

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            F(2).one + F(3).one

    @pytest.mark.parametrize("build", [
        # an unchecked 1.0 indexed the log table in the product
        lambda: F(3, 2).elem(1.0) * F(3, 2).elem(2),
        lambda: F(3, 2).scalar(2.5),
        lambda: F(3, 2).from_coeffs([1.5, 0]),
    ])
    def test_non_integer_encoding_raises(self, build):
        with pytest.raises(ValueError, match="not an integer"):
            build()

    @given(same_field_pairs())
    def test_inverse_law(self, pair):
        a, b = pair
        if a.val:
            assert a * a.inv() == a.spec.one
        if b.val:
            assert (a / b) * b == a

    @given(same_field_pairs())
    def test_ring_laws(self, pair):
        a, b = pair
        assert a + b == b + a
        assert a * b == b * a
        assert a - b == -(b - a)
        assert a * (a + b) == a * a + a * b


class TestFrobenius:
    def test_f4(self):
        spec = F(2, 2)
        z = spec.gen
        assert frobenius(z, 1) == z + spec.one

    def test_prime_field_fixed(self):
        for a in F(7):
            assert frobenius(a, 1) == a
            assert frobenius(a, 0) == a

    @given(same_field_pairs(), st.integers(0, 3))
    def test_homomorphism(self, pair, e):
        a, b = pair
        assert frobenius(a * b, e) == frobenius(a, e) * frobenius(b, e)
        assert frobenius(a + b, e) == frobenius(a, e) + frobenius(b, e)


class TestPthRoot:
    def test_examples(self):
        assert pth_root(F(2).one, 3) == F(2).one
        spec = F(2, 2)
        z = spec.gen
        assert pth_root(z + spec.one, 1) == z  # z^2 = z+1

    @pytest.mark.parametrize("spec", [F(2), F(3), F(2, 2), F(3, 2),
                                      F(2, 3), F(3, 4), F(2, 4)])
    def test_root_then_power_is_identity_exhaustive(self, spec):
        for a in spec:
            for l in (1, 2, 3):
                assert pth_root(a, l) ** (spec.p ** l) == a

    def test_negative_order(self):
        with pytest.raises(ValueError):
            pth_root(F(3, 2).gen, -1)


class TestSolveQuadratic:
    def test_split_over_f5(self):
        spec = F(5)
        roots = solve_quadratic(spec.one, spec.elem(4), spec.zero)  # y^2 - y
        assert roots is not None
        assert {r.val for r in roots} == {0, 1}

    def test_no_roots_over_f3(self):
        spec = F(3)
        assert solve_quadratic(spec.one, spec.zero, spec.one) is None

    def test_trace_obstruction_over_f4(self):
        spec = F(2, 2)
        assert solve_quadratic(spec.one, spec.one, spec.gen) is None

    def test_degenerate_leading_coefficient(self):
        spec = F(5)
        with pytest.raises(DegenerateLeadingCoefficient):
            solve_quadratic(spec.zero, spec.one, spec.one)

    def test_double_root_reported_undefined(self):
        spec = F(5)
        # (y-1)^2 = y^2 - 2y + 1
        assert solve_quadratic(spec.one, spec.elem(3), spec.one) is None

    @pytest.mark.parametrize("spec", SMALL_FIELDS)
    def test_exhaustive_consistency(self, spec):
        elems = list(spec)
        for c2 in elems[1:]:
            for c1 in elems:
                for c0 in elems:
                    got = solve_quadratic(c2, c1, c0)
                    roots = {y for y in elems
                             if (c2 * y * y + c1 * y + c0).val == 0}
                    if got is None:
                        assert len(roots) != 2
                    else:
                        assert set(got) == roots and len(roots) == 2


def roots_by_evaluation(spec, r, c1, c0):
    return [y for y in range(spec.q)
            if spec.add_i(spec.add_i(spec.pow_i(y, r + 1), spec.mul_i(c1, y)),
                          c0) == 0]


class TestProjectiveRoots:
    @pytest.mark.parametrize("spec", [F(2), F(3), F(2, 2), F(5), F(2, 3),
                                      F(3, 2), F(2, 4), F(3, 3)], ids=str)
    def test_every_equation_against_evaluation(self, spec):
        # every (c1, c0), so c1 = 0, c0 = 0 and both zero included
        for r in (1, spec.p, spec.p ** 2):
            for c1 in range(spec.q):
                for c0 in range(spec.q):
                    assert projective_roots(spec, r, c1, c0) == \
                        roots_by_evaluation(spec, r, c1, c0), (spec, r, c1, c0)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([F(2, 8), F(2, 11), F(3, 5), F(3, 7), F(5, 3),
                            F(7, 2), F(13), F(11, 2)]),
           st.sampled_from([0, 1, 2]), st.sampled_from(["c1", "c0", "both", ""]),
           st.integers(min_value=0), st.integers(min_value=0))
    def test_matches_evaluation(self, spec, e, zero, c1, c0):
        r = spec.p ** e
        c1 = 0 if zero in ("c1", "both") else c1 % spec.q
        c0 = 0 if zero in ("c0", "both") else c0 % spec.q
        got = projective_roots(spec, r, c1, c0)
        assert got == sorted(got)
        assert got == roots_by_evaluation(spec, r, c1, c0)

    def test_t_polynomial_counts_at_f_2_16(self):
        # the S-class equations y^(r+1) - eps*u*y + u in the largest field
        spec = F(2, 16)
        rng = random.Random(16)
        for _ in range(2):
            u = rng.randrange(1, spec.q)
            for eps in (0, 1):
                c1 = spec.neg_i(u) if eps else 0
                assert projective_roots(spec, 2, c1, u) == \
                    roots_by_evaluation(spec, 2, c1, u)

    def test_one_table_per_power_mod_d(self):
        """r = p^l gives the same roots as r = p^(l mod d), so at most d
        tables are kept, and the answers are unchanged."""
        spec = field_new(2, 4)
        answers = [projective_roots(spec, 2 ** ell, 1, 1) for ell in range(1, 41)]
        assert answers == [roots_by_evaluation(spec, 2 ** ell, 1, 1)
                           for ell in range(1, 41)]
        assert answers[4:] == answers[:-4]
        assert len(spec._roots) <= spec.d

    @pytest.mark.parametrize("r", [0, 6, 9])
    def test_r_not_a_power_of_p(self, r):
        with pytest.raises(ValueError):
            projective_roots(F(2, 2), r, 1, 1)

    @pytest.mark.parametrize("spec,r,c1,c0", [(F(5), 5, 7, 1), (F(3, 2), 1, 9, 1),
                                              (F(3, 2), 3, -3, 1),
                                              (F(5), 1, 2, 1.0)], ids=str)
    def test_encoding_out_of_range(self, spec, r, c1, c0):
        # neither an IndexError from the tables nor a root read off a
        # wrapped-around log
        with pytest.raises(ValueError, match="out of range"):
            projective_roots(spec, r, c1, c0)


class TestSqrt:
    def test_f9_has_five_squares(self):
        spec = F(3, 2)
        assert sum(1 for a in spec if sqrt(a) is not None) == 5

    def test_f2(self):
        assert sqrt(F(2).one) == F(2).one

    def test_f7(self):
        s = sqrt(F(7).elem(2))
        assert s is not None and s.val in (3, 4)

    @given(elems)
    def test_root_squares_back(self, a):
        s = sqrt(a)
        if s is not None:
            assert s * s == a


class TestEnumerate:
    def test_orders(self):
        assert [a.val for a in enumerate_elements(F(2))] == [0, 1]
        assert [a.val for a in enumerate_elements(F(2, 2))] == [0, 1, 2, 3]
        vals = [a.val for a in enumerate_elements(F(3, 2))]
        assert len(set(vals)) == 9

    @given(elems)
    def test_coeff_round_trip(self, a):
        assert a.spec.from_coeffs(a.coeffs) == a


class TestTextForms:
    @pytest.mark.parametrize("spec", SMALL_FIELDS)
    def test_field_round_trip(self, spec):
        assert parse_field(format_field(spec)) is spec

    def test_forms(self):
        assert format_field(F(5)) == "5^1"
        assert format_field(F(2, 2)) == "2^2:1,1,1"
        assert parse_field("3^2:2,2,1").modulus == (2, 2, 1)
