"""Exact closed-form counts of collisions and decomposables at degree p^2.

Everything here is integer arithmetic; divisions in the closed forms must
come out exact and raise NonIntegerResult otherwise (that would signal
misuse, the formulas are exact for all valid p, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .gf import NotAPower, NotPrime, _is_prime, _log_base

# CPython's default limit on the digits of an int converted to text; the
# total q^(2p-2) bounds every count, so it must stay printable.
DIGIT_LIMIT = 4300


class NonIntegerResult(Exception):
    pass


class TooManyDigits(Exception):
    pass


def _check_printable(p: int, q: int) -> None:
    """Refuse (p, q) whose q^(2p-2) has more than DIGIT_LIMIT decimal digits.

    q^e has at least e(b - 1) + 1 bits, b the bit length of q, which settles
    large inputs; the power is formed only below twice the limit's bits.
    """
    e, limit = 2 * p - 2, 10 ** DIGIT_LIMIT
    if e > 0 and (e * (q.bit_length() - 1) >= limit.bit_length()
                  or q ** e >= limit):
        raise TooManyDigits(f"q^(2p-2) has more than {DIGIT_LIMIT} decimal "
                            "digits, the limit for printing an integer")


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise NonIntegerResult(f"{num}/{den} is not an integer")
    return q


def _char_of(r: int) -> int:
    """The prime p with r = p^e."""
    for p in range(2, r + 1):
        if r % p == 0:
            _log_base(r, p)
            return p
    raise NotAPower(f"{r} is not a prime power")


def tau(r: int) -> int:
    """Number of positive divisors of r - 1."""
    if r < 2:
        raise ValueError("r must be at least 2")
    n = r - 1
    if n == 0:
        return 0
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


def gamma(r: int, q: int) -> int:
    """gcd(r+1, q-1), cross-checked against its parity case evaluation."""
    d = _log_base(q, r)
    g = int_gcd(r + 1, q - 1)
    if d % 2 == 0:
        expected = r + 1
    elif r % 2:
        expected = 2
    else:
        expected = 1
    if g != expected:
        raise ArithmeticError(
            f"gcd({r + 1}, {q - 1}) = {g} disagrees with its case value {expected}")
    return g


def c2_pairs(q: int, r: int, k: int) -> int:
    """Pairs (a, b) over F_q^x for which x^(r+1) + a x + b has exactly k roots."""
    d = _log_base(q, r)
    if k == 2:
        if q % 2 and d % 2:
            return _exact((q - 1) * (q * r - 2 * q - 2 * r + 3), 2 * (r - 1))
        return _exact((q - 1) ** 2 * (r - 2), 2 * (r - 1))
    if k == r + 1:
        if d % 2 == 0:
            return _exact((q - 1) * (q - r * r), r * (r * r - 1))
        return _exact((q - r) * (q - 1), r * (r * r - 1))
    return 0


def count_simply(q: int, r: int, k: int) -> int:
    """Polynomials of degree r^2 over F_q in the shifted S-family with #T = k."""
    _log_base(q, r)
    if k < 2:
        raise ValueError("the S-family count is defined for k >= 2")
    t = tau(r)
    a = t * q - q + 1
    if k == 2:
        return _exact(a * (q - 1) ** 2 * (r - 2), 2 * (r - 1))
    if k == r + 1:
        return _exact(a * (q - 1) * (q - r), r * (r * r - 1))
    return 0


def count_multiply(q: int, r: int) -> int:
    """Polynomials of degree r^2 over F_q in the shifted M-family.

    The m-count r - r/p - 2 is non-positive for r <= 4, where the family
    is empty; the count is then 0.
    """
    p = _char_of(r)
    _log_base(q, r)
    m_choices = r - r // p - 2
    if m_choices <= 0:
        return 0
    return _exact(q * (q - 1) * (q - 2) * m_choices, 4)


@dataclass(frozen=True)
class Spectrum:
    """Exact counts c_k of degree-p^2 polynomials with a maximal k-collision."""

    p: int
    q: int
    counts: dict[int, int]  # keys 1, 2, p+1
    d_total: int

    def c(self, k: int) -> int:
        return self.counts.get(k, 0)

    def nonzero(self) -> dict[int, int]:
        return {k: v for k, v in sorted(self.counts.items()) if v}


def spectrum(p: int, q: int) -> Spectrum:
    """All maximal collision counts c_1, c_2, c_(p+1) at degree p^2 over F_q."""
    _check_printable(p, q)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _log_base(q, p)
    t = tau(p)
    a = t * q - q + 1
    total = q ** (2 * p - 2)
    m_part = count_multiply(q, p)  # the (1 - delta_{p,2}) q(q-1)(q-2)(p-3)/4 term
    c2 = q ** (p - 1) - 1 + count_simply(q, p, 2) + m_part
    cp1 = count_simply(q, p, p + 1)
    c1 = (total - 2 * q ** (p - 1) + 2
          - _exact(a * (q - 1) * (q * p - q - p), p) - 2 * m_part)
    if c1 != total - 2 * c2 - (p + 1) * cp1:
        raise ArithmeticError("spectrum mass check failed")
    d_total = (total - q ** (p - 1) + 1
               - _exact(a * (q - 1) * (q * p - p - 2), 2 * (p + 1)) - m_part)
    if d_total != total - c2 - p * cp1 or d_total != c1 + c2 + cp1:
        raise ArithmeticError("decomposable totals disagree")
    return Spectrum(p, q, {1: c1, 2: c2, p + 1: cp1}, d_total)


def count_decomposable(p: int, q: int) -> int:
    """#D_{p^2}(F_q): the number of decomposable monic originals of degree p^2."""
    return spectrum(p, q).d_total


def nu(p: int, q: int) -> Fraction:
    """Normalized decomposable count #D_{p^2} / q^(2p-2), exact."""
    return Fraction(count_decomposable(p, q), q ** (2 * p - 2))
