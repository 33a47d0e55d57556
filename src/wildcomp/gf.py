"""Exact arithmetic in finite fields F_{p^d} with at most FIELD_LIMIT elements.

An element of F_{p^d} is identified by its integer encoding
``sum(c_i * p**i)`` of the little-endian coefficient vector
``(c_0, ..., c_{d-1})`` over F_p in the chosen generator.  Integer
encodings are the only representation used in hot paths; ``FieldElem``
is a thin value wrapper around them.

Every field carries the same three tables, built in O(q d) at
construction, for a fixed generator g of the multiplicative group
(n = q - 1):

* ``_exp[i] = g^i`` for 0 <= i < 2n, so a sum of two logs indexes it;
* ``_log[a]`` with g^_log[a] = a for a != 0;
* ``_zech[i] = log(1 + g^i)``, the Zech logarithm, for 0 <= i < 2n, and
  None where 1 + g^i = 0.  A log below 2n minus a log below n indexes it,
  a negative difference through Python's wrap-around.

A product is ``_exp[log a + log b]`` and a sum is
``_exp[log a + _zech[log b - log a]]`` (Huber, IEEE Trans. IT 1990).
Since -1 is encoded as p - 1, negation adds ``_log[p - 1]``.  The
polynomial kernels in :mod:`wildcomp.polyring` run on these tables
directly, for every field.

Field construction works on plain integers mod p, with two F_p[z]
kernels: ``_mul_packed``, one packed big-integer product, and ``_zp_mod``,
the remainder modulo a monic polynomial.  They test moduli for
irreducibility, find the generator and build the tables.
:mod:`wildcomp.polyring` imports ``_mul_packed`` for its one prime-field
fork, the product over F_p; every other polynomial kernel runs on the
tables.

``projective_roots`` finds the roots of y^(r+1) + c1*y + c0, the only kind
of polynomial whose roots the package needs (``sqrt`` included), from one
more O(q) table per field and l mod d for r = p^l, built on first use: the
preimages of z -> z^(r+1)/(z-1).  ``_log_base`` is the package's one prime-power helper.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from array import array
from typing import Iterator, Optional, Sequence

# field_new refuses larger fields: the tables hold O(q) entries and the
# modulus search and the generator test are only cheap up to here.
FIELD_LIMIT = 1 << 16


class GFError(Exception):
    """Base class for finite-field errors."""


class NotPrime(GFError):
    pass


class FieldTooLarge(GFError):
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


class NotAPower(Exception):
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


def _log_base(q: int, r: int) -> int:
    """d >= 1 with q = r^d."""
    if r < 2 or q < r:
        raise NotAPower(f"{q} is not a positive power of {r}")
    d, rest = 0, q
    while rest > 1:
        rest, rem = divmod(rest, r)
        if rem:
            raise NotAPower(f"{q} is not a power of {r}")
        d += 1
    return d


# ---------------------------------------------------------------------------
# F_p[z] kernels on little-endian lists of plain integers mod p, shared
# with wildcomp.polyring.
# ---------------------------------------------------------------------------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul_packed(p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a*b over the prime field F_p as one integer product.

    Each coefficient vector is packed into one integer, one array slot per
    coefficient (Kronecker substitution).  Every slot of the product is a
    sum of at most min(len a, len b) terms below (p-1)^2, so while that
    bound fits a slot no slot carries into the next, and reducing each
    slot mod p gives the coefficients.  Slots are 32 bits wide while the
    bound allows, else 64, which suffice since FIELD_LIMIT keeps p below
    2^16.
    """
    slots = array("I")
    if min(len(a), len(b)) * (p - 1) ** 2 >> (8 * slots.itemsize):
        slots = array("Q")
    code, size, order = slots.typecode, slots.itemsize, sys.byteorder
    prod = (int.from_bytes(array(code, a).tobytes(), order)
            * int.from_bytes(array(code, b).tobytes(), order))
    slots.frombytes(prod.to_bytes((len(a) + len(b) - 1) * size, order))
    return _trim([c % p for c in slots])


def _zp_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, by the classical loop
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, Sec. 2.4)."""
    dm = len(m) - 1
    r = list(a)
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i] % p
        if c:
            for j in range(dm):
                r[i - dm + j] -= c * m[j]
    return _trim([c % p for c in r[:dm]])


def _zp_is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to d/2."""
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
    specs so equal fields share their tables.  Immutable after construction;
    safe to share between workers.
    """

    __slots__ = ("p", "d", "q", "modulus", "_exp", "_log", "_zech",
                 "_roots", "_hashv")

    def __init__(self, p: int, d: int, modulus: tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p ** d
        self.modulus = modulus
        self._hashv = hash((p, d, modulus))
        self._roots: dict[int, tuple[list[int], list[int]]] = {}
        self._build_tables()

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
        if not isinstance(v, int):
            raise ValueError(f"encoding {v!r} is not an integer")
        if not 0 <= v < self.q:
            raise ValueError(f"encoding {v} out of range for {self}")
        return FieldElem(self, v)

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
        if a and b:
            log = self._log
            la = log[a]
            z = self._zech[log[b] - la]
            return 0 if z is None else self._exp[la + z]
        return a or b

    def neg_i(self, a: int) -> int:
        log = self._log
        return self._exp[log[a] + log[self.p - 1]] if a else 0

    def sub_i(self, a: int, b: int) -> int:
        if not b:
            return a
        log = self._log
        lb = log[b] + log[self.p - 1]
        if not a:
            return self._exp[lb]
        la = log[a]
        z = self._zech[lb - la]
        return 0 if z is None else self._exp[la + z]

    def mul_i(self, a: int, b: int) -> int:
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inversion of zero in {self}")
        return self._exp[self.q - 1 - self._log[a]]

    def pow_i(self, a: int, e: int) -> int:
        if a:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if e < 0:
            raise DivisionByZero(f"inversion of zero in {self}")
        return 0 if e else 1

    def pth_root_i(self, a: int, l: int) -> int:
        """Unique p^l-th root, computed as a^(q^c / p^l) for minimal c >= 1."""
        if l <= 0:
            return a
        c = max(1, -(-l // self.d))
        return self.pow_i(a, self.p ** (c * self.d - l))

    # -- lookup tables -------------------------------------------------------

    def _build_tables(self) -> None:
        p, d, q = self.p, self.d, self.q
        n = q - 1
        mod = self.modulus

        def zp_pow(a: list[int], e: int) -> list[int]:
            out = [1]
            while e:
                if e & 1:
                    out = _zp_mod(_mul_packed(p, out, a), mod, p)
                a = _zp_mod(_mul_packed(p, a, a), mod, p)
                e >>= 1
            return out

        # the first g whose order is q - 1, tested by g^(n/r) != 1 for each
        # prime r | n; g = 1 for q = 2
        orders = [n // r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
        for g in range(1, q):
            gc = list(self.coeffs_of(g))
            if all(zp_pow(gc, e) != [1] for e in orders):
                break

        # x -> x*g is F_p-linear.  images[k][m] holds m*z^k*g with one F_p
        # digit per 16 bits; the d images of x's digits sum to at most
        # d(p-1) < 2^16 per digit, so one reduction per step suffices.
        shifts = [16 * k for k in range(d)]
        images = []
        for k in range(d):
            zg = _zp_mod(_mul_packed(p, [0] * k + [1], gc), mod, p)
            images.append([sum(m * c % p << s for c, s in zip(zg, shifts))
                           for m in range(p)])
        top = shifts[::-1]
        exp = [0] * (2 * n)
        log = [0] * q
        x = e = 1  # g^i, packed and encoded
        for i in range(n):
            exp[i] = exp[i + n] = e
            log[e] = i
            v = 0
            for im, s in zip(images, shifts):
                v += im[x >> s & 0xFFFF]
            x = e = 0
            for s in top:
                c = (v >> s & 0xFFFF) % p
                x = x << 16 | c
                e = e * p + c

        # 1 + v only changes v's lowest digit
        zech: list = [None] * (2 * n)
        for i in range(n):
            v = exp[i]
            w = v - v % p + (v + 1) % p
            if w:
                zech[i] = zech[i + n] = log[w]

        self._exp = exp
        self._log = log
        self._zech = zech

    def _root_table(self, ell: int) -> tuple[list[int], list[int]]:
        """The preimages of each u under z -> z^(r+1)/(z-1), r = p^ell,
        z not in {0, 1}, as chains: first[u] is one, after[z] the one after
        z, and 0 ends a chain.  z^r depends only on ell mod d, so the table
        is built once per ell mod d, from the logs."""
        ell %= self.d
        table = self._roots.get(ell)
        if table is None:
            p, q, log, exp = self.p, self.q, self._log, self._exp
            n, e = q - 1, p ** ell + 1
            first, after = [0] * q, [0] * q
            for z in range(2, q):
                # z - 1 only changes z's lowest digit
                u = exp[(e * log[z] - log[z - z % p + (z - 1) % p]) % n]
                after[z] = first[u]
                first[u] = z
            table = self._roots[ell] = (first, after)
        return table


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


@functools.cache
def _default_modulus(p: int, d: int) -> tuple[int, ...]:
    """The smallest monic irreducible of degree d over F_p, searched for once
    per (p, d) and process, however often the field is built."""
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

    Fields with more than FIELD_LIMIT elements are refused before any
    primality test or modulus search.  Without an explicit modulus the
    lexicographically smallest monic irreducible of degree d is used,
    comparing coefficients from the constant term upward; this keeps test
    vectors reproducible.
    """
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"{p} is not prime")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"extension degree {d!r} is not an integer >= 1")
    # p >= 2, so d alone bounds p^d before the power is formed
    if d >= FIELD_LIMIT.bit_length() or p ** d > FIELD_LIMIT:
        raise FieldTooLarge(f"F_{p}^{d} is larger than the field limit of "
                            f"{FIELD_LIMIT} elements")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if modulus is not None:
        mod = tuple(modulus)
        if not all(isinstance(c, int) for c in mod):
            raise ValueError(f"modulus {list(mod)} has a non-integer coefficient")
        mod = tuple(c % p for c in mod)
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
    if l < 0:
        raise ValueError("root order must be non-negative")
    return a.spec.elem(a.spec.pth_root_i(a.val, l))


def sqrt(a: FieldElem) -> Optional[FieldElem]:
    """Some b with b*b = a, from ``projective_roots``; None for non-squares."""
    roots = projective_roots(a.spec, 1, 0, a.spec.neg_i(a.val))
    return a.spec.elem(roots[0]) if roots else None


def projective_roots(spec: FieldSpec, r: int, c1: int, c0: int) -> list[int]:
    """Encodings of all y in F_q with y^(r+1) + c1*y + c0 = 0, ascending.

    r is a power of p, 1 included.  With c0 = 0 the roots are 0 and the
    r-th root of -c1; with c1 = 0 they are the (r+1)-th roots of -c0, read
    off the logs.  Otherwise y = mu*z with mu = -c0/c1 turns the equation
    into z^(r+1) - u*z + u = 0 with u = c0*mu^(-(r+1)), whose roots are the
    preimages of u under z -> z^(r+1)/(z-1) (Bluher, FFA 10, 2004), looked
    up in the field's table for r = p^l, one per l mod d.  c1 and c0 are
    encodings, checked as ``FieldSpec.elem`` checks them.
    """
    for c in (c1, c0):
        if not isinstance(c, int) or not 0 <= c < spec.q:
            raise ValueError(f"encoding {c!r} out of range for {spec}")
    p, n, log, exp = spec.p, spec.q - 1, spec._log, spec._exp
    try:
        ell = 0 if r == 1 else _log_base(r, p)
    except NotAPower:
        raise ValueError(f"{r} is not a power of {p}") from None
    if not c0:
        return sorted({0, spec.pth_root_i(spec.neg_i(c1), ell)})
    if not c1:
        # (r+1)*log y = log(-c0) mod n
        g = math.gcd(r + 1, n)
        a = log[spec.neg_i(c0)]
        if a % g:
            return []
        m = n // g
        t = a // g * pow((r + 1) // g, -1, m) % m
        return sorted(exp[t + j * m] for j in range(g))
    lmu = (log[spec.neg_i(c0)] - log[c1]) % n
    first, after = spec._root_table(ell)
    roots = []
    z = first[exp[(log[c0] - (r + 1) * lmu) % n]]
    while z:
        roots.append(exp[lmu + log[z]])
        z = after[z]
    return sorted(roots)


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
    inv = spec.inv_i(c2.val)
    roots = projective_roots(spec, 1, spec.mul_i(c1.val, inv),
                             spec.mul_i(c0.val, inv))
    return tuple(map(spec.elem, roots)) if len(roots) == 2 else None


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
