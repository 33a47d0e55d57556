"""Composition and decomposition primitives for monic original polynomials.

A polynomial is *monic original* when its leading coefficient is 1 and its
constant coefficient is 0.  Composition with such polynomials is closed, and
every composition identity in this package is phrased over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional

from .gf import FieldElem, FieldSpec, MixedFields, NotAPower, _log_base
from .polyring import NotMonic, Poly, _digits_raw, compose, evaluate


class NotOriginal(Exception):
    pass


class DegreeMismatch(Exception):
    pass


@dataclass(frozen=True)
class MonicOriginal:
    """A monic polynomial of degree >= 1 with zero constant term."""

    poly: Poly

    def __post_init__(self) -> None:
        p = self.poly
        if p.is_zero or p.encodings[-1] != 1:
            raise NotMonic(f"{p} is not monic")
        if p.encodings[0] != 0:
            raise NotOriginal(f"{p} has nonzero constant term")

    @property
    def spec(self) -> FieldSpec:
        return self.poly.spec

    @property
    def degree(self) -> int:
        return int(self.poly.degree)

    def __str__(self) -> str:
        return str(self.poly)

    def shifted(self, w: FieldElem) -> "MonicOriginal":
        return original_shift(self, w)


def mo_index_to_inner(idx: int, q: int, degree: int) -> tuple[int, ...]:
    """Inner coefficients (c_1, ..., c_{degree-1}) of the monic original with
    base-q little-endian index ``idx``."""
    out = []
    for _ in range(degree - 1):
        idx, c = divmod(idx, q)
        out.append(c)
    return tuple(out)


def mo_index_to_poly(spec: FieldSpec, idx: int, degree: int) -> MonicOriginal:
    """The monic original of the given degree with index ``idx``; the indices
    0 .. q^(degree-1) - 1 enumerate every such polynomial once."""
    inner = mo_index_to_inner(idx, spec.q, degree)
    return MonicOriginal(Poly(spec, (0,) + inner + (1,)))


@dataclass(frozen=True)
class Decomposition:
    """An ordered pair (g, h) of nonlinear monic originals, read as g(h)."""

    g: MonicOriginal
    h: MonicOriginal

    def __post_init__(self) -> None:
        if self.g.spec != self.h.spec:
            raise MixedFields("decomposition components over different fields")
        if self.g.degree < 2 or self.h.degree < 2:
            raise ValueError("decomposition components must be nonlinear")

    def compose(self) -> MonicOriginal:
        return MonicOriginal(compose(self.g.poly, self.h.poly))

    def __str__(self) -> str:
        return f"({self.g}, {self.h})"


@dataclass(frozen=True)
class Collision:
    """A set of decompositions sharing composition f and left-component degree."""

    f: MonicOriginal
    decomps: frozenset[Decomposition]

    def __post_init__(self) -> None:
        object.__setattr__(self, "decomps", frozenset(self.decomps))
        degs = set()
        for d in self.decomps:
            if d.compose() != self.f:
                raise ValueError(f"{d} does not compose to {self.f}")
            degs.add(d.g.degree)
        if len(degs) > 1:
            raise ValueError("left-component degrees differ")

    @property
    def k(self) -> int:
        return len(self.decomps)

    def __iter__(self) -> Iterator[Decomposition]:
        return iter(self.decomps)

    def __len__(self) -> int:
        return len(self.decomps)


def left_divide(f: MonicOriginal, h: MonicOriginal) -> Optional[MonicOriginal]:
    """The unique g with f = g(h) if it exists, else None.

    Read off the h-adic expansion of f, whose digits come lowest first by
    repeated division by h: g exists exactly when every digit is
    constant, and then digit i is g's coefficient of x^i.  The expansion
    stops at the first non-constant digit.
    """
    if f.spec != h.spec:
        raise MixedFields("operands over different fields")
    if f.degree % h.degree:
        raise DegreeMismatch(f"deg {h.degree} does not divide deg {f.degree}")
    enc = []
    for d in _digits_raw(f.spec, f.poly.encodings, h.poly.encodings):
        if len(d) > 1:
            return None
        enc.append(d[0] if d else 0)
    return MonicOriginal(Poly(f.spec, enc))


def right_component_at(f: MonicOriginal, i: int, g_i: int) -> MonicOriginal:
    """The only h of degree r that can give f = g(h) when g_i, an encoding,
    is g's top nonzero coefficient below x^r.  deg f = r^2 for a power r of
    p, else DegreeMismatch; g_i != 0, and r = p unless i = r-1, else
    ValueError.  At i = r-1, g_(r-1) = f_(r^2-r) - y^r for y = h_(r-1),
    since h^r = x^(r^2) + y^r x^(r^2-r) + ... has terms only at multiples
    of x^r and g_i' h^i' for i' <= r-2 has degree at most r^2-2r.

    h is not checked: ``left_divide`` decides whether g exists.  With
    H(t) = t^r h(1/t) = 1 + h_(r-1) t + ..., h^r has terms only at
    multiples of x^r and g_i' h^i' for i' < i has degree below ir - r, so
    f_(ir-k) = g_i [t^k] H^i for 1 <= k < r.  H^r = 1 + O(t^r) is a
    Frobenius image, so H = S^a mod t^r with a i = 1 mod r and
    S = 1 + sum_k (f_(ir-k) / g_i) t^k.  J.C.P. Miller's recurrence
    k H_k = sum_(j=1..k) ((a+1) j - k) S_j H_(k-j) gives H in O(r^2)
    field operations, and h = x^r + H_1 x^(r-1) + ... + H_(r-1) x.  At
    i = r-1, a = -1 and k cancels: H = S^(-1) mod t^r for every r.
    """
    spec, r = f.spec, isqrt(f.degree)
    try:
        _log_base(r if r * r == f.degree else 0, spec.p)
    except NotAPower:
        raise DegreeMismatch(f"degree {f.degree} is not r^2 for a power "
                             f"r of {spec.p}") from None
    if not (g_i and 0 < i < r and (i == r - 1 or r == spec.p)):
        raise ValueError(f"g_{i} = {g_i} at r = {r}: g_i must be nonzero, "
                         "0 < i < r, and r = p unless i = r-1")
    mul_i, add_i, enc = spec.mul_i, spec.add_i, f.poly.encodings
    c = spec.inv_i(g_i)
    big_g = [mul_i(c, enc[i * r - j]) for j in range(1, r)]
    big_h = [1]
    if i == r - 1:
        for k in range(1, r):
            acc = 0
            for j in range(k):
                acc = add_i(acc, mul_i(big_g[j], big_h[k - 1 - j]))
            big_h.append(spec.neg_i(acc))
    else:
        a1 = pow(i, -1, r) + 1
        for k in range(1, r):
            acc = 0
            for j in range(1, k + 1):
                acc = add_i(acc, mul_i((a1 * j - k) % r,
                                       mul_i(big_g[j - 1], big_h[k - j])))
            big_h.append(mul_i(acc, spec.inv_i(k)))
    return MonicOriginal(Poly(spec, [0, *big_h[:0:-1], 1]))


def original_shift(f: MonicOriginal, w: FieldElem) -> MonicOriginal:
    """(x - f(w)) o f o (x + w): the additive-group action on monic originals."""
    if w.spec != f.spec:
        raise MixedFields("shift amount from a different field")
    if w.val == 0:
        return f
    t = compose(f.poly, Poly(f.spec, (w.val, 1)))
    # subtracting t(0) only clears the constant term
    return MonicOriginal(Poly(f.spec, (0,) + t.encodings[1:]))


def shift_decomposition(d: Decomposition, w: FieldElem) -> Decomposition:
    """The shifted pair (g^(h(w)), h^(w)), which decomposes f^(w)."""
    hw = evaluate(d.h.poly, w)
    return Decomposition(original_shift(d.g, hw), original_shift(d.h, w))
