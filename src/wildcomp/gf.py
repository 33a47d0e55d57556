"""Exact arithmetic in small finite fields F_{p^d}.

An element of F_{p^d} is identified by its integer encoding
``sum(c_i * p**i)`` of the little-endian coefficient vector
``(c_0, ..., c_{d-1})`` over F_p in the chosen generator.  Integer
encodings are the only representation used in hot paths; ``FieldElem``
is a thin value wrapper around them.

Fields small enough for the exhaustive searches done elsewhere in this
package get full addition/multiplication lookup tables at construction
time.  Larger fields fall back to direct modular polynomial arithmetic,
which is correct but slower.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

# Largest field order for which q-by-q operation tables are precomputed.
_TABLE_LIMIT = 512


class GFError(Exception):
    """Base class for finite-field errors."""


class NotPrime(GFError):
    pass


class ReducibleModulus(GFError):
    pass


class NoModulusFound(GFError):
    pass


class DivisionByZero(GFError, ZeroDivisionError):
    pass


class MixedFields(GFError):
    pass


class DegenerateLeadingCoefficient(GFError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# F_p[z] helpers on little-endian coefficient lists.  Used for modulus
# validation and for element arithmetic in fields without lookup tables.
# ---------------------------------------------------------------------------

def _zp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _zp_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _zp_trim(out)


def _zp_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    while len(r) > dm:
        c = r[-1]
        if c:
            off = len(r) - 1 - dm
            for j in range(dm):
                if m[j]:
                    r[off + j] = (r[off + j] - c * m[j]) % p
        r.pop()
    return _zp_trim(r)


def _zp_is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by all lower-degree monic polynomials; fine for d <= 8."""
    d = len(m) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            cand = list(tail) + [1]
            if not _zp_mod(m, cand, p):
                return False
    return True


class FieldSpec:
    """A concrete finite field F_{p^d} with a fixed monic irreducible modulus.

    Construct through :func:`field_new`, which validates arguments and caches
    specs so equal fields share element tables.  Immutable after construction;
    safe to share between workers.
    """

    __slots__ = ("p", "d", "q", "modulus", "_elems", "_addt", "_mult",
                 "_negt", "_invt", "_sqrt_map", "_artin_map", "_hashv")

    def __init__(self, p: int, d: int, modulus: tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p ** d
        self.modulus = modulus
        self._hashv = hash((p, d, modulus))
        self._elems: Optional[tuple["FieldElem", ...]] = None
        self._addt: Optional[list[int]] = None
        self._mult: Optional[list[int]] = None
        self._negt: Optional[list[int]] = None
        self._invt: Optional[list[int]] = None
        self._sqrt_map: Optional[dict[int, int]] = None
        self._artin_map: Optional[dict[int, int]] = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()
        self._elems = tuple(FieldElem(self, v) for v in range(self.q)) \
            if self.q <= _TABLE_LIMIT else None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.d == other.d and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return self._hashv

    def __repr__(self) -> str:
        return f"FieldSpec({format_field(self)})"

    def __str__(self) -> str:
        return format_field(self)

    def __iter__(self) -> Iterator["FieldElem"]:
        return (self.elem(v) for v in range(self.q))

    # -- encodings ----------------------------------------------------------

    def coeffs_of(self, v: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.d):
            out.append(v % p)
            v //= p
        return tuple(out)

    def encode_coeffs(self, coeffs: Sequence[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return v

    def elem(self, v: int) -> "FieldElem":
        if not 0 <= v < self.q:
            raise ValueError(f"encoding {v} out of range for {self}")
        es = self._elems
        return es[v] if es is not None else FieldElem(self, v)

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElem":
        if len(coeffs) > self.d:
            raise ValueError("coefficient vector longer than extension degree")
        return self.elem(self.encode_coeffs(coeffs))

    def scalar(self, n: int) -> "FieldElem":
        """Embed the integer n via its residue in the prime subfield."""
        return self.elem(n % self.p)

    @property
    def zero(self) -> "FieldElem":
        return self.elem(0)

    @property
    def one(self) -> "FieldElem":
        return self.elem(1)

    @property
    def gen(self) -> "FieldElem":
        if self.d == 1:
            raise ValueError("prime field has no extension generator")
        return self.elem(self.p)

    # -- integer-encoding arithmetic ----------------------------------------

    def add_i(self, a: int, b: int) -> int:
        t = self._addt
        if t is not None:
            return t[a * self.q + b]
        p = self.p
        if self.d == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.d):
            out += ((a % p) + (b % p)) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_i(self, a: int) -> int:
        t = self._negt
        if t is not None:
            return t[a]
        p = self.p
        if self.d == 1:
            return (-a) % p
        out = 0
        mult = 1
        for _ in range(self.d):
            out += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return out

    def sub_i(self, a: int, b: int) -> int:
        t = self._addt
        if t is not None:
            return t[a * self.q + self._negt[b]]
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        t = self._mult
        if t is not None:
            return t[a * self.q + b]
        if self.d == 1:
            return (a * b) % self.p
        prod = _zp_mul(self.coeffs_of(a), self.coeffs_of(b), self.p)
        return self.encode_coeffs(_zp_mod(prod, self.modulus, self.p))

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inversion of zero in {self}")
        t = self._invt
        if t is not None:
            return t[a]
        return self.pow_i(a, self.q - 2)

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_i(a)
            e = -e
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul_i(out, base)
            base = self.mul_i(base, base)
            e >>= 1
        return out

    def pth_root_i(self, a: int, l: int) -> int:
        """Unique p^l-th root, computed as a^(q^c / p^l) for minimal c >= 1."""
        if l <= 0:
            return a
        c = max(1, -(-l // self.d))
        return self.pow_i(a, self.p ** (c * self.d - l))

    # -- lookup tables -------------------------------------------------------

    def _build_tables(self) -> None:
        p, d, q = self.p, self.d, self.q
        mod = self.modulus

        def raw_mul(a: int, b: int) -> int:
            if d == 1:
                return (a * b) % p
            pr = _zp_mul(self.coeffs_of(a), self.coeffs_of(b), p)
            return self.encode_coeffs(_zp_mod(pr, mod, p))

        # self._addt and friends are still None here, so add_i/neg_i take
        # their direct digitwise paths.
        addt = [0] * (q * q)
        negt = [self.neg_i(a) for a in range(q)]
        for a in range(q):
            base = a * q
            for b in range(a, q):
                s = self.add_i(a, b)
                addt[base + b] = s
                addt[b * q + a] = s

        mult = [0] * (q * q)
        invt = [0] * q
        # the first generator of F_q^*: g = 1 for q = 2, where 1 has order q - 1
        for g in range(1, q):
            x = g
            order = 1
            while x != 1:
                x = raw_mul(x, g)
                order += 1
            if order == q - 1:
                break
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            exp[i + q - 1] = x
            log[x] = i
            x = raw_mul(x, g)
        for a in range(1, q):
            la = log[a]
            base = a * q
            for b in range(1, q):
                mult[base + b] = exp[la + log[b]]
            invt[a] = exp[(q - 1 - la) % (q - 1)]

        self._addt = addt
        self._negt = negt
        self._mult = mult
        self._invt = invt

    def _sqrt_table(self) -> dict[int, int]:
        m = self._sqrt_map
        if m is None:
            m = {}
            for v in range(self.q):
                s = self.mul_i(v, v)
                if s not in m:
                    m[s] = v
            self._sqrt_map = m
        return m

    def _artin_table(self) -> dict[int, int]:
        """Preimages of z -> z^2 + z; only meaningful in characteristic 2."""
        m = self._artin_map
        if m is None:
            m = {}
            for v in range(self.q):
                s = self.add_i(self.mul_i(v, v), v)
                if s not in m:
                    m[s] = v
            self._artin_map = m
        return m


class FieldElem:
    """Immutable element of a :class:`FieldSpec`, identified by its encoding."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val: int):
        self.spec = spec
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.coeffs_of(self.val)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldElem) and self.val == other.val
                and self.spec == other.spec)

    def __hash__(self) -> int:
        return hash((self.spec._hashv, self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    def __str__(self) -> str:
        return str(self.val)

    def __repr__(self) -> str:
        return f"FieldElem({self.val}, {self.spec})"

    def _check(self, other: "FieldElem") -> None:
        if other.spec != self.spec:
            raise MixedFields(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "FieldElem"):
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return self.spec.elem(self.spec.add_i(self.val, other.val))

    def __sub__(self, other: "FieldElem"):
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return self.spec.elem(self.spec.sub_i(self.val, other.val))

    def __mul__(self, other: "FieldElem"):
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return self.spec.elem(self.spec.mul_i(self.val, other.val))

    def __truediv__(self, other: "FieldElem"):
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return self.spec.elem(self.spec.mul_i(self.val, self.spec.inv_i(other.val)))

    def __neg__(self) -> "FieldElem":
        return self.spec.elem(self.spec.neg_i(self.val))

    def __pow__(self, e: int) -> "FieldElem":
        if not isinstance(e, int):
            return NotImplemented
        return self.spec.elem(self.spec.pow_i(self.val, e))

    def inv(self) -> "FieldElem":
        return self.spec.elem(self.spec.inv_i(self.val))


_FIELD_CACHE: dict[tuple[int, int, tuple[int, ...]], FieldSpec] = {}


def _default_modulus(p: int, d: int) -> tuple[int, ...]:
    if d == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=d):
        cand = tuple(tail) + (1,)
        if _zp_is_irreducible(cand, p):
            return cand
    raise NoModulusFound(f"no monic irreducible of degree {d} over F_{p}")


def field_new(p: int, d: int = 1,
              modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Build (or fetch from cache) the field F_{p^d}.

    Without an explicit modulus the lexicographically smallest monic
    irreducible of degree d is used, comparing coefficients from the
    constant term upward; this keeps test vectors reproducible.
    """
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if d < 1:
        raise ValueError("extension degree must be at least 1")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != d + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {d}")
        if d == 1:
            mod = (0, 1)
        elif not _zp_is_irreducible(mod, p):
            raise ReducibleModulus(f"{list(mod)} is reducible over F_{p}")
    else:
        mod = _default_modulus(p, d)
    key = (p, d, mod)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, d, mod)
        _FIELD_CACHE[key] = spec
    return spec


def frobenius(a: FieldElem, e: int) -> FieldElem:
    """The e-th power of the Frobenius map: a -> a^(p^e)."""
    if e < 0:
        raise ValueError("Frobenius power must be non-negative")
    return a.spec.elem(a.spec.pow_i(a.val, a.spec.p ** e))


def pth_root(a: FieldElem, l: int) -> FieldElem:
    """The unique b with b^(p^l) = a; always defined over a finite field."""
    return a.spec.elem(a.spec.pth_root_i(a.val, l))


def sqrt(a: FieldElem) -> Optional[FieldElem]:
    """Some b with b*b = a, or None for a non-square (odd q only)."""
    spec = a.spec
    if spec.p == 2:
        return spec.elem(spec.pow_i(a.val, spec.q // 2))
    v = spec._sqrt_table().get(a.val)
    return spec.elem(v) if v is not None else None


def solve_quadratic(c2: FieldElem, c1: FieldElem,
                    c0: FieldElem) -> Optional[tuple[FieldElem, FieldElem]]:
    """Two distinct roots in F_q of c2*y^2 + c1*y + c0, or None.

    None covers all degenerate outcomes: no root in F_q, a double root,
    or (characteristic 2 with c1 = 0) the inseparable case.  Roots are
    returned with the smaller encoding first.
    """
    spec = c2.spec
    if c1.spec != spec or c0.spec != spec:
        raise MixedFields("quadratic coefficients from different fields")
    if c2.val == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if spec.p == 2:
        if c1.val == 0:
            return None
        b = c1 / c2
        c = c0 / c2
        gamma = c / (b * b)
        z = spec._artin_table().get(gamma.val)
        if z is None:
            return None
        y1 = b * spec.elem(z)
        y2 = y1 + b
    else:
        disc = c1 * c1 - spec.scalar(4) * c2 * c0
        if disc.val == 0:
            return None
        s = sqrt(disc)
        if s is None:
            return None
        inv2a = (spec.scalar(2) * c2).inv()
        y1 = (-c1 + s) * inv2a
        y2 = (-c1 - s) * inv2a
    return (y1, y2) if y1.val < y2.val else (y2, y1)


def enumerate_elements(spec: FieldSpec) -> tuple[FieldElem, ...]:
    """All q elements in ascending encoding order."""
    return tuple(spec.elem(v) for v in range(spec.q))


def format_field(spec: FieldSpec) -> str:
    if spec.d == 1:
        return f"{spec.p}^1"
    mods = ",".join(str(c) for c in spec.modulus)
    return f"{spec.p}^{spec.d}:{mods}"


def parse_field(text: str) -> FieldSpec:
    """Parse "p^d" or "p^d:c0,c1,...,cd" (modulus little-endian)."""
    head, _, modpart = text.strip().partition(":")
    ps, _, ds = head.partition("^")
    try:
        p = int(ps)
        d = int(ds) if ds else 1
    except ValueError as exc:
        raise ValueError(f"bad field spec {text!r}") from exc
    if modpart:
        modulus = tuple(int(c) for c in modpart.split(","))
        return field_new(p, d, modulus)
    return field_new(p, d)
