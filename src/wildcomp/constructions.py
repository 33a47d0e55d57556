"""The three explicit collision families at degree r^2 and their decompositions.

* Frobenius collisions: x^r o h = phi_r(h) o x^r for h of degree r.
* Simply original family S(u, s, eps, m): a simple root at 0; it collides
  once for every root t of y^(r+1) - eps*u*y + u in the base field.
* Multiply original family M(a, b, m): no simple roots; always a 2-collision.

Here r is a power of the field characteristic p.

S and M members are built by one builder each, ``_S_shifted`` and
``_M_shifted``, at the substitution x -> x + w: the original shift
f^(w) = f(x+w) - f(w) of a member comes out directly, and w = 0 gives the
polynomials of ``build_S`` and ``build_M``.  They work on encodings with
the raw kernels of :mod:`wildcomp.polyring`.  ``_S_probe`` gives two
coefficients of a shifted S member in closed form, in O(log r) field
operations, so identification can reject a candidate before it rebuilds
one.  M needs no probe: identification reads the x^(r-1) coefficient y
of a right component, and y tells a from a*.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .decomp_core import Collision, Decomposition, DegreeMismatch, MonicOriginal
from .gf import FieldElem, FieldSpec, NotAPower, _log_base, projective_roots
from .polyring import Poly, _mul_raw, _pow_raw


class InvalidParams(Exception):
    pass


class NoValidM(InvalidParams):
    pass


class HEqualsXr(Exception):
    pass


def prime_power_exponent(r: int, p: int) -> int:
    """e with r = p^e, e >= 1; raises InvalidParams otherwise."""
    try:
        return _log_base(r, p)
    except NotAPower as exc:
        raise InvalidParams(str(exc)) from None


@dataclass(frozen=True)
class SimplyParams:
    """Parameters (u, s, eps, m) with u, s nonzero, eps in {0,1}, m | r-1."""

    u: FieldElem
    s: FieldElem
    eps: int
    m: int
    r: int

    def __post_init__(self) -> None:
        spec = self.u.spec
        prime_power_exponent(self.r, spec.p)
        if self.s.spec != spec:
            raise InvalidParams("u and s from different fields")
        if self.u.val == 0 or self.s.val == 0:
            raise InvalidParams("u and s must be nonzero")
        if self.eps not in (0, 1):
            raise InvalidParams("eps must be 0 or 1")
        if self.m < 1 or (self.r - 1) % self.m:
            raise InvalidParams(f"m = {self.m} does not divide r - 1 = {self.r - 1}")

    @property
    def ell(self) -> int:
        return (self.r - 1) // self.m

    @property
    def spec(self) -> FieldSpec:
        return self.u.spec


@dataclass(frozen=True)
class MultiplyParams:
    """Parameters (a, b, m) with b != 0, a not in {0, b^r}, 1 < m < r-1, p∤m."""

    a: FieldElem
    b: FieldElem
    m: int
    r: int

    def __post_init__(self) -> None:
        spec = self.a.spec
        p = spec.p
        prime_power_exponent(self.r, p)
        if self.r <= 4:
            raise NoValidM(f"no admissible m exists for r = {self.r}")
        if self.b.spec != spec:
            raise InvalidParams("a and b from different fields")
        if self.b.val == 0:
            raise InvalidParams("b must be nonzero")
        if not 1 < self.m < self.r - 1:
            raise InvalidParams(f"m = {self.m} outside (1, r-1)")
        if self.m % p == 0:
            raise InvalidParams(f"characteristic divides m = {self.m}")
        if self.a.val == 0 or self.a == self.b ** self.r:
            raise InvalidParams("a must avoid 0 and b^r")

    @property
    def a_star(self) -> FieldElem:
        return self.b ** self.r - self.a

    @property
    def m_star(self) -> int:
        return self.r - self.m

    @property
    def spec(self) -> FieldSpec:
        return self.a.spec


def frobenius_map(f: Poly, r: int) -> Poly:
    """Apply a -> a^r to every coefficient (r a power of the characteristic)."""
    prime_power_exponent(r, f.spec.p)
    spec = f.spec
    return Poly(spec, tuple(spec.pow_i(c, r) for c in f.encodings))


def _poly_p_power(spec: FieldSpec, enc: Sequence[int], r: int) -> list[int]:
    """f^r on encodings for r a power of p: (sum c_i x^i)^r = sum c_i^r x^(ir)."""
    out = [0] * ((len(enc) - 1) * r + 1) if enc else []
    for i, c in enumerate(enc):
        if c:
            out[i * r] = spec.pow_i(c, r)
    return out


def frobenius_collision(h: MonicOriginal, r: int) -> Collision:
    """The 2-collision {(x^r, h), (phi_r(h), x^r)} with composition h^r."""
    prime_power_exponent(r, h.spec.p)
    if h.degree != r:
        raise DegreeMismatch(f"right component must have degree {r}")
    xr = MonicOriginal(Poly.monomial(h.spec, r))
    if h.poly == xr.poly:
        raise HEqualsXr("h = x^r gives only the trivial decomposition")
    f = MonicOriginal(Poly(h.spec, _poly_p_power(h.spec, h.poly.encodings, r)))
    twisted = MonicOriginal(frobenius_map(h.poly, r))
    return Collision(f, frozenset({Decomposition(xr, h), Decomposition(twisted, xr)}))


def _S_shifted(params: SimplyParams, w: int) -> list[int]:
    """Encodings of S(u,s,eps,m)^(w) = S(x+w) - S(w), built at x + w.

    S = x J^m with J = x^l (x^(lr) - eps u s^r) + u s^(r+1), and
    (x+w)^(lr) = ((x+w)^l)^r, so J(x+w) = A (A^r - eps u s^r) + u s^(r+1)
    with A = (x+w)^l, its r-th power a Frobenius step.  Then
    S(x+w) = (x+w) J(x+w)^m, and dropping its constant term S(w) leaves
    the shifted member.  At w = 0 this is S itself.
    """
    spec = params.spec
    u, s, r, m, ell = params.u.val, params.s.val, params.r, params.m, params.ell
    mul_i, pow_i = spec.mul_i, spec.pow_i
    usr = mul_i(u, pow_i(s, r))
    lin = (w, 1)
    a = _pow_raw(spec, lin, ell)
    ar = _poly_p_power(spec, a, r)
    if params.eps:
        ar[0] = spec.sub_i(ar[0], usr)
    j = _mul_raw(spec, a, ar)
    j[0] = spec.add_i(j[0], mul_i(usr, s))
    out = _mul_raw(spec, _pow_raw(spec, j, m), lin)
    out[0] = 0
    return out


def _S_probe(params: SimplyParams, w: int) -> list[tuple[int, int]]:
    """(i, f_i) for two coefficients of f = S(u,s,eps,m)^(w), each in
    O(log r) field operations; n = r^2, c = eps u s^r, k = u s^(r+1).

    The x coefficient.  f' = S'(x+w), so f_1 = S'(w).  S = x J^m with
    J = x^(l(r+1)) - c x^l + k gives S' = J^(m-1) (J + m x J'), and
    m x J' = m l (r+1) x^(l(r+1)) - m l c x^l.  Since m l = r - 1 = -1
    and r + 1 = 1 in F_p, that is -x^(l(r+1)) + c x^l, so J + m x J' = k
    and S' = k J^(m-1), so f_1 = k J(w)^(m-1).

    A top coefficient.  The first two terms of J^m = (x^(l(r+1)) + L)^m,
    L = k - c x^l, give S = x^n - m c x^(n-lr) + m k x^(n-l(r+1)) plus
    terms of degree at most n - 2lr.  The coefficient of x^(n-t) in
    S(x+w) sums C(j, n-t) w^(j-n+t) s_j over the coefficients s_j of S,
    and C(n, n-t) = 0 mod p for 0 < t < n (n is a power of p).  The
    parameters are read off t = lr, l(r+1) and l(r+1) + 1; for the next
    one, t = l(r+1) + 2 < min(2lr, n),

        f_(n-t) = m k C(n - l(r+1), 2) w^2 - m c C(n - lr, l + 2) w^(l+2).
    """
    spec = params.spec
    p, r, m, ell = spec.p, params.r, params.m, params.ell
    mul_i, pow_i = spec.mul_i, spec.pow_i
    k = mul_i(params.u.val, pow_i(params.s.val, r + 1))
    c = mul_i(params.u.val, pow_i(params.s.val, r)) if params.eps else 0
    wl = pow_i(w, ell)
    jw = spec.add_i(spec.sub_i(mul_i(wl, pow_i(w, ell * r)), mul_i(c, wl)), k)
    checks = [(1, mul_i(k, pow_i(jw, m - 1)))]
    n, t = r * r, ell * (r + 1) + 2
    if t < min(2 * ell * r, n):
        top = spec.sub_i(
            mul_i(mul_i(m * comb(n - ell * (r + 1), 2) % p, k), pow_i(w, 2)),
            mul_i(mul_i(m * comb(n - ell * r, ell + 2) % p, c),
                  pow_i(w, ell + 2)))
        checks.append((n - t, top))
    return checks


def build_S(params: SimplyParams) -> MonicOriginal:
    """x * (x^(l(r+1)) - eps*u*s^r*x^l + u*s^(r+1))^m   with l = (r-1)/m."""
    return MonicOriginal(Poly(params.spec, _S_shifted(params, 0)))


def root_set_T(params: SimplyParams) -> frozenset[FieldElem]:
    """All t in F_q with t^(r+1) - eps*u*t + u = 0, from ``projective_roots``."""
    spec, u = params.spec, params.u
    return frozenset(map(spec.elem, projective_roots(
        spec, params.r, (-u).val if params.eps else 0, u.val)))


def decompositions_S(params: SimplyParams) -> Collision:
    """One decomposition per t in T: g = x(x^l - u s^r / t)^m, h = x(x^l - s t)^m."""
    spec = params.spec
    u, s, m, ell = params.u, params.s, params.m, params.ell
    usr = u * s ** params.r
    f = build_S(params)
    pairs = set()
    for t in root_set_T(params):
        g_inner = [0] * (ell + 1)
        g_inner[-1] = 1
        g_inner[0] = (-(usr / t)).val
        h_inner = [0] * (ell + 1)
        h_inner[-1] = 1
        h_inner[0] = (-(s * t)).val
        g = MonicOriginal((Poly(spec, g_inner) ** m).shift_up(1))
        h = MonicOriginal((Poly(spec, h_inner) ** m).shift_up(1))
        pairs.add(Decomposition(g, h))
    return Collision(f, frozenset(pairs))


def _M_factors(params: MultiplyParams,
               w: int) -> tuple[list[int], list[int], list[int]]:
    """Encodings of Q = x(x-b), H = x^m + a* b^(-r) ((x-b)^m - x^m) and H*
    (a, m swapped with a*, m*), each at x + w."""
    spec = params.spec
    b, m, mstar = params.b.val, params.m, params.m_star
    mul_i, add_i = spec.mul_i, spec.add_i
    binv_r = spec.inv_i(spec.pow_i(b, params.r))
    wb = spec.sub_i(w, b)

    def big_h(c: int, k: int) -> list[int]:
        # (1 - c) X^k + c Xb^k with X = x + w, Xb = x + w - b
        c = mul_i(c, binv_r)
        rest = spec.sub_i(1, c)
        return [add_i(mul_i(rest, xk), mul_i(c, xbk)) for xk, xbk in
                zip(_pow_raw(spec, (w, 1), k), _pow_raw(spec, (wb, 1), k))]

    return ([mul_i(w, wb), add_i(w, wb), 1], big_h(params.a_star.val, m),
            big_h(params.a.val, mstar))


def _M_shifted(params: MultiplyParams, w: int) -> list[int]:
    """Encodings of M(a,b,m)^(w) = M(x+w) - M(w), built at x + w:
    Q^(m m*) H^m (H*)^(m*) from ``_M_factors`` at x + w, constant term
    M(w) dropped.  At w = 0 this is M itself."""
    spec, m, mstar = params.spec, params.m, params.m_star
    quad, big_h, big_hs = _M_factors(params, w)
    out = _mul_raw(spec, _pow_raw(spec, quad, m * mstar),
                   _mul_raw(spec, _pow_raw(spec, big_h, m),
                            _pow_raw(spec, big_hs, mstar)))
    out[0] = 0
    return out


def build_M(params: MultiplyParams) -> tuple[MonicOriginal, Collision]:
    """The multiply original polynomial and its 2-collision {(g,h), (g*,h*)}.

    The collision identity g o h = g* o h* = f is verified eagerly (the
    Collision constructor composes both pairs).  g = x^m (x-a)^(m*) and
    h = x^(m*) H, with H from ``_M_factors``; g* and h* swap a, m with
    a*, m*.
    """
    spec, m, mstar = params.spec, params.m, params.m_star
    _, big_h, big_hs = _M_factors(params, 0)

    def times_x(k: int, enc: Sequence[int]) -> MonicOriginal:
        return MonicOriginal(Poly(spec, enc).shift_up(k))

    def x_minus(c: FieldElem, k: int) -> Sequence[int]:
        return _pow_raw(spec, (spec.neg_i(c.val), 1), k)

    fm = MonicOriginal(Poly(spec, _M_shifted(params, 0)))
    col = Collision(fm, frozenset({
        Decomposition(times_x(m, x_minus(params.a, mstar)),
                      times_x(mstar, big_h)),
        Decomposition(times_x(mstar, x_minus(params.a_star, m)),
                      times_x(m, big_hs)),
    }))
    return fm, col


def M_derivative_factored(params: MultiplyParams) -> Poly:
    """m m* a a* b^(1-r) (x(x-b))^(m m* - 1) H^(m-1) (H*)^(m*-1).

    The tests check it against the plain derivative of the built polynomial.
    """
    spec = params.spec
    a, b, m, r = params.a, params.b, params.m, params.r
    astar, mstar = params.a_star, params.m_star
    quad, big_h, big_hs = _M_factors(params, 0)
    lead = spec.scalar(m * mstar) * a * astar * b ** (1 - r)
    return (lead * Poly(spec, _pow_raw(spec, quad, m * mstar - 1))
            * Poly(spec, _pow_raw(spec, big_h, m - 1))
            * Poly(spec, _pow_raw(spec, big_hs, mstar - 1)))
