from collections import Counter
from fractions import Fraction

import pytest

from wildcomp import (NotAPower, NotPrime, c2_pairs,
                      count_decomposable, count_multiply, count_simply,
                      gamma, nu, spectrum, tau)
from wildcomp import counting
from wildcomp.counting import DIGIT_LIMIT, TooManyDigits

from conftest import F

PRIME_POWERS_UP_TO = 3 ** 8


def prime_powers(limit=PRIME_POWERS_UP_TO):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        q = p
        while q <= limit:
            yield p, q
            q *= p


class TestTau:
    def test_examples(self):
        assert tau(2) == 1
        assert tau(3) == 2
        assert tau(5) == 3  # divisors of 4: 1, 2, 4

    def test_against_brute_force(self):
        for r in range(2, 200):
            assert tau(r) == sum(1 for d in range(1, r) if (r - 1) % d == 0)


class TestGamma:
    def test_examples(self):
        assert gamma(3, 3) == 2
        assert gamma(2, 4) == 3
        assert gamma(5, 5) == 2

    def test_case_formula_sweep(self):
        # gamma raises when gcd(r+1, q-1) disagrees with its parity case
        for r in (2, 3, 4, 5, 7, 8, 9):
            q = r
            while q <= 3 ** 8:
                gamma(r, q)
                q *= r

    def test_not_a_power(self):
        with pytest.raises(NotAPower, match="^8 is not a power of 3$"):
            gamma(3, 8)


class TestC2Pairs:
    def test_examples(self):
        assert c2_pairs(3, 3, 2) == 0
        assert c2_pairs(9, 3, 2) == 16
        assert c2_pairs(9, 3, 5) == 0

    def test_all_divisions_exact(self):
        for r in (2, 3, 4, 5, 7, 8, 9):
            q = r
            while q <= 3 ** 8:
                for k in (2, r + 1):
                    assert c2_pairs(q, r, k) >= 0
                q *= r

    @pytest.mark.parametrize("r, p, d", [
        (2, 2, 2), (2, 2, 3), (2, 2, 8), (4, 2, 4), (4, 2, 8), (3, 3, 3),
        (3, 3, 5), (9, 3, 4), (5, 5, 3), (7, 7, 2), (13, 13, 1)])
    def test_against_root_histograms(self, r, p, d):
        # y^(r+1) + a*y + b has as many roots as y -> y^(r+1) + a*y hits -b
        spec = F(p, d)
        q = spec.q
        powers = [spec.pow_i(y, r + 1) for y in range(q)]
        pairs_with = Counter()
        for a in range(1, q):
            hits = Counter(spec.add_i(py, spec.mul_i(a, y))
                           for y, py in enumerate(powers))
            pairs_with.update(hits[spec.neg_i(b)] for b in range(1, q))
        assert pairs_with[2] == c2_pairs(q, r, 2)
        assert pairs_with[r + 1] == c2_pairs(q, r, r + 1)
        assert set(pairs_with) <= {0, 1, 2, r + 1}, (q, r, pairs_with)


class TestCountSimply:
    def test_examples(self):
        assert count_simply(3, 3, 2) == 4
        # (tau*q - q + 1) = 1 for r = 2, so (4,2,3) gives 1*3*2/6 = 1,
        # matching the census at (2,4) where x^4+x is the only 3-collision
        assert count_simply(4, 2, 3) == 1
        assert count_simply(3, 3, 4) == 0
        assert count_simply(8, 2, 3) == 7

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            count_simply(3, 3, 1)


class TestCountMultiply:
    def test_examples(self):
        assert count_multiply(5, 5) == 30
        assert count_multiply(3, 3) == 0
        assert count_multiply(4, 2) == 0  # no family members below r = 5

    def test_admissible_m_count(self):
        # r - r/p - 2 counts integers m with 1 < m < r-1 and p not dividing m
        for r, p in [(5, 5), (7, 7), (8, 2), (9, 3), (25, 5), (27, 3)]:
            want = sum(1 for m in range(2, r - 1) if m % p)
            assert want == r - r // p - 2


class TestSpectrum:
    @pytest.mark.parametrize("p,q,c", [
        (2, 2, {1: 2, 2: 1, 3: 0}),
        (2, 4, {1: 7, 2: 3, 3: 1}),
        (3, 3, {1: 57, 2: 12, 4: 0}),
        (3, 9, {2: 240, 4: 20}),
        (5, 5, {2: 720, 6: 0}),
    ])
    def test_anchor_values(self, p, q, c):
        s = spectrum(p, q)
        for k, v in c.items():
            assert s.c(k) == v

    def test_mass_identity_sweep(self):
        for p, q in prime_powers():
            s = spectrum(p, q)
            assert sum(k * v for k, v in s.counts.items()) == q ** (2 * p - 2)
            assert set(s.counts) == {1, 2, p + 1}

    def test_c2_partition(self):
        for p, q in prime_powers(6561):
            s = spectrum(p, q)
            assert s.c(2) == (q ** (p - 1) - 1 + count_simply(q, p, 2)
                              + count_multiply(q, p))

    def test_p2_consequences(self):
        for q in (2, 4, 8, 16, 32):
            s = spectrum(2, q)
            assert s.c(2) == q - 1
            assert s.c(3) == (q - 1) * (q - 2) // 6

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            spectrum(4, 4)

    # the last two are the smallest powers of p past the limit
    @pytest.mark.parametrize("p,q", [(10 ** 18 + 3, 10 ** 18 + 3),
                                     (1000003, 1000003), (65521, 65521),
                                     (2, 2 ** 7143), (3, 3 ** 2254)],
                             ids=["p=q=1e18+3", "p=q=1000003", "p=q=65521",
                                  "2^7143", "3^2254"])
    def test_unprintable_total_refused_before_primality(self, monkeypatch, p, q):
        def fail(*_):
            raise AssertionError("primality tested before the digit check")
        monkeypatch.setattr(counting, "_is_prime", fail)
        with pytest.raises(TooManyDigits, match=f"{DIGIT_LIMIT} decimal digits"):
            spectrum(p, q)

    @pytest.mark.parametrize("p,q", [(2, 2 ** 7142), (3, 3 ** 2253)],
                             ids=["2^7142", "3^2253"])
    def test_printable_total_at_the_digit_limit(self, p, q):
        s = spectrum(p, q)
        assert len(str(q ** (2 * p - 2))) <= DIGIT_LIMIT
        assert sum(k * c for k, c in s.counts.items()) == q ** (2 * p - 2)


class TestCountDecomposable:
    @pytest.mark.parametrize("p,q,want", [
        (2, 2, 3), (2, 4, 11), (2, 8, 43), (2, 16, 171),
        (3, 3, 69), (3, 9, 6261), (3, 27, 523797), (5, 5, 389905),
    ])
    def test_anchors(self, p, q, want):
        assert count_decomposable(p, q) == want

    def test_degree_four_closed_form(self):
        for q in (2, 4, 8, 16, 32, 64):
            assert 3 * count_decomposable(2, q) == 2 * q * q + 1

    def test_degree_nine_closed_form(self):
        # q^4 (1 - 3/8 (1/q + 1/q^2 - 1/q^3 - 1/q^4)), exactly
        for q in (3, 9, 27, 81):
            expected = Fraction(q ** 4) * (
                1 - Fraction(3, 8) * (Fraction(1, q) + Fraction(1, q ** 2)
                                      - Fraction(1, q ** 3) - Fraction(1, q ** 4)))
            assert expected.denominator == 1
            assert count_decomposable(3, q) == expected.numerator

    def test_matches_spectrum_total(self):
        for p, q in prime_powers(2000):
            s = spectrum(p, q)
            assert count_decomposable(p, q) == \
                q ** (2 * p - 2) - sum((k - 1) * v for k, v in s.counts.items()
                                       if k >= 2)


class TestNu:
    def test_examples(self):
        assert nu(2, 2) == Fraction(3, 4)
        assert nu(3, 3) == Fraction(23, 27)

    def test_degree_four_family(self):
        for q in (2, 4, 8, 16, 32):
            assert nu(2, q) == (2 + Fraction(1, q * q)) / 3
