"""Dense univariate polynomial arithmetic over F_q.

Coefficients are stored as integer field encodings (see :mod:`wildcomp.gf`)
with no trailing zeros; the zero polynomial is the empty tuple and its
degree is the sentinel ``NEG_INFINITY``.  All operations are exact.
Every kernel runs on the field's log, antilog and Zech tables, the same
for every field, except the product over a prime field (``spec.d == 1``):
``_mul_raw`` takes it as one packed big-integer product, ``_mul_packed`` in
:mod:`wildcomp.gf`.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Iterator, Optional, Sequence, Union

from .gf import (DivisionByZero, FieldElem, FieldSpec, MixedFields,
                 _mul_packed, _trim)

NEG_INFINITY = float("-inf")

# Over extension fields, multiplications with both operands of at least
# this degree split via Karatsuba; below it schoolbook wins (measured
# crossover over F_3^5 and F_2^9).  Prime fields take the packed product.
KARATSUBA_THRESHOLD = 48

# Shifts g(x + t) longer than this many coefficients split g by exponent
# residue mod p; up to it plain synthetic division wins.
SHIFT_SPLIT_LENGTH = 16

# parse_poly rejects larger exponents before allocating the dense vector;
# the largest degree any command handles is p^4 = 28561 (identify at p = 13).
MAX_PARSE_EXPONENT = 1 << 16


class ZeroPolynomial(Exception):
    pass


class ConstantBase(Exception):
    pass


class NotMonic(Exception):
    pass


Degree = Union[int, float]


class Poly:
    """Immutable dense polynomial; coefficient i is a field encoding."""

    __slots__ = ("spec", "_c")

    def __init__(self, spec: FieldSpec, encodings: Sequence[int] = ()):
        enc = list(encodings)
        if not all(map(isinstance, enc, repeat(int))):
            bad = next(c for c in enc if not isinstance(c, int))
            raise ValueError(f"encoding {bad!r} is not an integer")
        while enc and enc[-1] == 0:
            enc.pop()
        if enc and (min(enc) < 0 or max(enc) >= spec.q):
            bad = next(c for c in enc if not 0 <= c < spec.q)
            raise ValueError(f"encoding {bad} out of range for {spec}")
        self.spec = spec
        self._c = tuple(enc)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec)

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (0, 1))

    @classmethod
    def monomial(cls, spec: FieldSpec, i: int,
                 coeff: Optional[FieldElem] = None) -> "Poly":
        if i < 0:
            raise ValueError("monomial exponent must be non-negative")
        if coeff is not None and coeff.spec != spec:
            raise MixedFields("coefficient from a different field")
        c = 1 if coeff is None else coeff.val
        return cls(spec, (0,) * i + (c,))

    @classmethod
    def constant(cls, c: FieldElem) -> "Poly":
        return cls(c.spec, (c.val,))

    @classmethod
    def from_coeffs(cls, spec: FieldSpec,
                    coeffs: Sequence[FieldElem]) -> "Poly":
        for c in coeffs:
            if c.spec != spec:
                raise MixedFields("coefficient from a different field")
        return cls(spec, tuple(c.val for c in coeffs))

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self) -> Degree:
        return len(self._c) - 1 if self._c else NEG_INFINITY

    @property
    def encodings(self) -> tuple[int, ...]:
        return self._c

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return tuple(self.spec.elem(c) for c in self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, i: int) -> FieldElem:
        return self.spec.elem(self._c[i] if 0 <= i < len(self._c) else 0)

    def coefficient_encoding(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    def lc(self) -> FieldElem:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.spec.elem(self._c[-1])

    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and self._c == other._c
                and self.spec == other.spec)

    def __hash__(self) -> int:
        return hash((self.spec, self._c))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r}, {self.spec})"

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- arithmetic ------------------------------------------------------------

    def _same(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.spec != self.spec:
            raise MixedFields("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same(other)
        return Poly(self.spec, _add_raw(self.spec, self._c, other._c))

    def __sub__(self, other: "Poly") -> "Poly":
        self._same(other)
        return Poly(self.spec, _sub_raw(self.spec, self._c, other._c))

    def __neg__(self) -> "Poly":
        neg = self.spec.neg_i
        return Poly(self.spec, tuple(neg(c) for c in self._c))

    def __mul__(self, other: Union["Poly", FieldElem]) -> "Poly":
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise MixedFields("scalar from a different field")
            return Poly(self.spec, _scale_raw(self.spec, self._c, other.val))
        self._same(other)
        return Poly(self.spec, _mul_raw(self.spec, self._c, other._c))

    def __rmul__(self, other: FieldElem) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        return Poly(self.spec, _pow_raw(self.spec, self._c, e))

    def __call__(self, a: FieldElem) -> FieldElem:
        return evaluate(self, a)

    def shift_up(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if not self._c:
            return self
        return Poly(self.spec, (0,) * k + self._c)


# ---------------------------------------------------------------------------
# Raw kernels on encoding tuples.  These also back the census hot loops.
# ---------------------------------------------------------------------------

def _add_raw(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    add = spec.add_i
    out = list(a)
    for i, c in enumerate(b):
        if c:
            out[i] = add(out[i], c)
    return _trim(out)


def _sub_raw(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    sub = spec.sub_i
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        if c:
            out[i] = sub(out[i], c)
    return _trim(out)


def _scale_raw(spec: FieldSpec, a: Sequence[int], cv: int) -> list[int]:
    if cv == 0:
        return []
    if cv == 1:
        return list(a)
    mul = spec.mul_i
    return [mul(c, cv) if c else 0 for c in a]


def _mul_school(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    # products and sums on the field's log, antilog and Zech tables
    exp, log, zech = spec._exp, spec._log, spec._zech
    logs_b = [(j, log[bj]) for j, bj in enumerate(b) if bj]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            la = log[ai]
            for j, lb in logs_b:
                k = i + j
                t = la + lb
                o = out[k]
                if o:
                    lo = log[o]
                    z = zech[t - lo]
                    out[k] = 0 if z is None else exp[lo + z]
                else:
                    out[k] = exp[t]
    return _trim(out)


def _mul_raw(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    if spec.d == 1:
        return _mul_packed(spec.p, a, b)
    if min(len(a), len(b)) - 1 < KARATSUBA_THRESHOLD:
        return _mul_school(spec, a, b)
    return _mul_karatsuba(spec, a, b)


def _pow_raw(spec: FieldSpec, a: Sequence[int], e: int) -> Sequence[int]:
    """a^e by square and multiply; a^0 = 1, and a^1 is a itself."""
    result: Optional[Sequence[int]] = None
    while e:
        if e & 1:
            result = a if result is None else _mul_raw(spec, result, a)
        e >>= 1
        if e:
            a = _mul_raw(spec, a, a)
    return (1,) if result is None else result


def _mul_karatsuba(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    k = max(len(a), len(b)) // 2
    a0, a1 = _trim(list(a[:k])), list(a[k:])
    b0, b1 = _trim(list(b[:k])), list(b[k:])
    z0 = _mul_raw(spec, a0, b0)
    z2 = _mul_raw(spec, a1, b1)
    mid = _mul_raw(spec, _add_raw(spec, a0, a1), _add_raw(spec, b0, b1))
    z1 = _sub_raw(spec, _sub_raw(spec, mid, z0), z2)
    out = [0] * (len(a) + len(b) - 1)
    add = spec.add_i
    for i, c in enumerate(z0):
        if c:
            out[i] = add(out[i], c)
    for i, c in enumerate(z1):
        if c:
            out[k + i] = add(out[k + i], c)
    for i, c in enumerate(z2):
        if c:
            out[2 * k + i] = add(out[2 * k + i], c)
    return _trim(out)


def _divrem_raw(spec: FieldSpec, a: Sequence[int],
                b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient (len(a) - deg b terms) and trimmed remainder of a by b;
    zeros above b's leading term are dropped.

    Classical division (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, Sec. 2.4) on the field's log, antilog and Zech tables, the
    same for every field.
    """
    if b and not b[-1]:
        b = _trim(list(b))
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return [], _trim(list(a))
    db = len(b) - 1
    r = list(a)
    qout = [0] * (len(a) - db)
    exp, log, zech = spec._exp, spec._log, spec._zech
    n = spec.q - 1
    # subtracting f*b_j adds f*(-b_j); -1 is encoded as p - 1
    neg = log[spec.p - 1]
    logs_nb = [(j, (log[bj] + neg) % n) for j, bj in enumerate(b[:db]) if bj]
    log_lc = log[b[-1]]
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c:
            lf = (log[c] - log_lc) % n
            off = i - db
            qout[off] = exp[lf]
            for j, lb in logs_nb:
                k = off + j
                t = lf + lb
                o = r[k]
                if o:
                    lo = log[o]
                    z = zech[t - lo]
                    r[k] = 0 if z is None else exp[lo + z]
                else:
                    r[k] = exp[t]
    return qout, _trim(r[:db])


def _digits_raw(spec: FieldSpec, f: Sequence[int],
                base: Sequence[int]) -> Iterator[Sequence[int]]:
    """Digits d_i of f = sum d_i * base^i, deg d_i < deg base, lowest first.

    Each digit is the remainder of one division of the previous quotient
    by base, so a caller that stops early pays only for the digits it
    read.  base must have degree at least 1.
    """
    while len(f) >= len(base):
        f, r = _divrem_raw(spec, f, base)
        yield r
    yield f


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b."""
    a._same(b)
    q, r = _divrem_raw(a.spec, a._c, b._c)
    return Poly(a.spec, q), Poly(a.spec, r)


def exact_div(a: Poly, b: Poly) -> Optional[Poly]:
    """Quotient if b divides a exactly, else None."""
    q, r = divrem(a, b)
    return q if r.is_zero else None


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid; gcd(0, 0) = 0."""
    a._same(b)
    spec = a.spec
    x, y = a._c, b._c
    while y:
        x, y = y, _divrem_raw(spec, x, y)[1]
    return Poly(spec, _scale_raw(spec, x, spec.inv_i(x[-1])) if x else ())


def derivative(f: Poly) -> Poly:
    # the integer i is encoded as i mod p, its residue in the prime subfield
    spec = f.spec
    mul_i, p = spec.mul_i, spec.p
    return Poly(spec, [mul_i(c, i % p) for i, c in enumerate(f._c[1:], 1)])


def evaluate(f: Poly, a: FieldElem) -> FieldElem:
    if a.spec != f.spec:
        raise MixedFields("evaluation point from a different field")
    spec = f.spec
    acc = 0
    av = a.val
    mul_i = spec.mul_i
    add_i = spec.add_i
    for c in reversed(f._c):
        acc = add_i(mul_i(acc, av), c)
    return spec.elem(acc)


def compose(g: Poly, h: Poly) -> Poly:
    """g(h), by Horner in h: acc = acc * h + g_i from the top coefficient
    of g down, for every h, constant and linear ones included."""
    g._same(h)
    spec = g.spec
    if g.is_zero:
        return g
    gc = g._c
    acc: Sequence[int] = (gc[-1],)
    for i in range(len(gc) - 2, -1, -1):
        acc = _mul_raw(spec, acc, h._c)
        if gc[i]:
            if acc:
                acc = list(acc)
                acc[0] = spec.add_i(acc[0], gc[i])
            else:
                acc = [gc[i]]
    return Poly(spec, acc)


def _shift_raw(spec: FieldSpec, c: Sequence[int], t: int) -> list[int]:
    """Coefficients of c(x + t).

    Up to SHIFT_SPLIT_LENGTH coefficients this is repeated synthetic
    division: pass i leaves out[i] final.  Longer inputs are split as
    c = sum_{i<p} x^i C_i(x^p); since (x + t)^p = x^p + t^p,
    c(x + t) = sum_i (x + t)^i C_i(x^p + t^p), summed by Horner in x + t.
    """
    mul_i, add_i = spec.mul_i, spec.add_i
    n = len(c)
    if n <= SHIFT_SPLIT_LENGTH:
        out = list(c)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                if out[j + 1]:
                    out[j] = add_i(out[j], mul_i(t, out[j + 1]))
        return out
    p = spec.p
    tp = spec.pow_i(t, p)
    out = [0] * n
    for i in range(p - 1, -1, -1):
        # out <- out * (x + t); the degree bound keeps out[n - 1] zero here
        prev = 0
        for j in range(n):
            cur = out[j]
            out[j] = add_i(prev, mul_i(t, cur)) if cur else prev
            prev = cur
        for k, v in enumerate(_shift_raw(spec, c[i::p], tp)):
            if v:
                out[k * p] = add_i(out[k * p], v)
    return out


def taylor_expansion(f: Poly, base: Poly) -> list[Poly]:
    """Digits a_0..a_{v-1} with f = sum a_i * base^i, deg a_i < deg base.

    The digits come lowest first, each the remainder of one division of
    the previous quotient by base; f = 0 gives [0].
    """
    f._same(base)
    if base.degree < 1:
        raise ConstantBase("expansion base must have degree at least 1")
    return [Poly(f.spec, d) for d in _digits_raw(f.spec, f._c, base._c)]


def max_power_dividing(f: Poly, base: Poly) -> int:
    """Largest k with base^k dividing f."""
    if f.is_zero:
        raise ZeroPolynomial("every power divides the zero polynomial")
    if base.degree < 1:
        raise ConstantBase("base must have degree at least 1")
    # f != 0, so its top digit is nonzero
    return next(k for k, d in enumerate(_digits_raw(f.spec, f._c, base._c))
                if d)


def poly_pth_root(f: Poly, l: int) -> Optional[Poly]:
    """g with g^(p^l) = f, or None when some exponent is not divisible by p^l."""
    if l < 0:
        raise ValueError("root order must be non-negative")
    if l == 0 or f.is_zero:
        return f
    spec = f.spec
    step = spec.p ** l
    out = [0] * ((len(f._c) - 1) // step + 1)
    for i, c in enumerate(f._c):
        if c:
            if i % step:
                return None
            out[i // step] = spec.pth_root_i(c, l)
    return Poly(spec, out)


def second_degree(f: Poly) -> Degree:
    """deg(f - x^n) for monic f of degree n; NEG_INFINITY for f = x^n.

    Read off the encodings: the top nonzero index below the leading term.
    """
    c = f._c
    if not c or c[-1] != 1:
        raise NotMonic("second degree requires a monic polynomial")
    for i in range(len(c) - 2, -1, -1):
        if c[i]:
            return i
    return NEG_INFINITY


def is_squarefree(f: Poly) -> bool:
    if f.is_zero:
        raise ZeroPolynomial("squarefreeness of the zero polynomial")
    if f.degree == 0:
        return True
    df = derivative(f)
    if df.is_zero:
        return False
    return gcd(f, df).degree == 0


# ---------------------------------------------------------------------------
# Text form: terms like "c*x^i", "x^i", "x", "c" joined by "+", descending.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    terms = []
    for i in range(len(f._c) - 1, -1, -1):
        c = f._c[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            terms.append(xs if c == 1 else f"{c}*{xs}")
    return "+".join(terms)


def _bounded_int(digits: str, limit: int, message: str) -> int:
    """The decimal ``digits`` as an int in [0, limit], else ValueError(message).

    A string with more digits than ``limit`` is rejected by its length,
    before int() would meet CPython's cap on the digits it converts.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) <= len(str(limit)) and int(digits) <= limit:
        return int(digits)
    raise ValueError(message.format(
        digits if len(digits) <= 20 else f"of {len(digits)} digits"))


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Parse the term grammar; any term order is accepted, duplicates add."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    acc: dict[int, int] = {}
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad polynomial term {term!r}")
        if m.group(3) is not None:
            c_text, i_text = m.group(3), "0"
        else:
            c_text, i_text = m.group(1) or "1", m.group(2) or "1"
        i = _bounded_int(i_text, MAX_PARSE_EXPONENT,
                         f"exponent {{}} above the parse limit {MAX_PARSE_EXPONENT}")
        c = _bounded_int(c_text, spec.q - 1,
                         f"coefficient encoding {{}} out of range for {spec}")
        acc[i] = spec.add_i(acc.get(i, 0), c)
    out = [0] * (max(acc) + 1)
    for i, c in acc.items():
        out[i] = c
    return Poly(spec, out)
