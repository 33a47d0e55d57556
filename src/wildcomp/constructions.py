"""The three explicit collision families at degree r^2 and their decompositions.

* Frobenius collisions: x^r o h = phi_r(h) o x^r for h of degree r.
* Simply original family S(u, s, eps, m): a simple root at 0; it collides
  once for every root t of y^(r+1) - eps*u*y + u in the base field.
* Multiply original family M(a, b, m): no simple roots; always a 2-collision.

Here r is a power of the field characteristic p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import NotAPower, _log_base
from .decomp_core import Collision, Decomposition, DegreeMismatch, MonicOriginal
from .gf import FieldElem, FieldSpec, projective_roots
from .polyring import Poly


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


def _poly_p_power(f: Poly, e: int) -> Poly:
    """f^(p^e), using (sum c_i x^i)^p = sum c_i^p x^(ip)."""
    spec = f.spec
    p = spec.p
    enc = f.encodings
    for _ in range(e):
        out = [0] * ((len(enc) - 1) * p + 1) if enc else []
        for i, c in enumerate(enc):
            if c:
                out[i * p] = spec.pow_i(c, p)
        enc = out
    return Poly(spec, enc)


def frobenius_collision(h: MonicOriginal, r: int) -> Collision:
    """The 2-collision {(x^r, h), (phi_r(h), x^r)} with composition h^r."""
    e = prime_power_exponent(r, h.spec.p)
    if h.degree != r:
        raise DegreeMismatch(f"right component must have degree {r}")
    xr = MonicOriginal(Poly.monomial(h.spec, r))
    if h.poly == xr.poly:
        raise HEqualsXr("h = x^r gives only the trivial decomposition")
    f = MonicOriginal(_poly_p_power(h.poly, e))
    twisted = MonicOriginal(frobenius_map(h.poly, r))
    return Collision(f, frozenset({Decomposition(xr, h), Decomposition(twisted, xr)}))


def build_S(params: SimplyParams) -> MonicOriginal:
    """x * (x^(l(r+1)) - eps*u*s^r*x^l + u*s^(r+1))^m   with l = (r-1)/m."""
    spec = params.spec
    u, s, r, m, ell = params.u, params.s, params.r, params.m, params.ell
    inner = [0] * (ell * (r + 1) + 1)
    inner[-1] = 1
    inner[0] = (u * s ** (r + 1)).val
    if params.eps:
        inner[ell] = (-(u * s ** r)).val
    return MonicOriginal((Poly(spec, inner) ** m).shift_up(1))


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


def _binomial_x_minus(spec: FieldSpec, c: FieldElem) -> Poly:
    return Poly(spec, (spec.neg_i(c.val), 1))


def _M_factors(params: MultiplyParams) -> tuple[Poly, Poly, Poly]:
    """x - b, H = x^m + a* b^(-r) ((x-b)^m - x^m) and H* (a, m swapped with a*, m*)."""
    spec = params.spec
    a, b, m, r = params.a, params.b, params.m, params.r
    astar, mstar = params.a_star, params.m_star
    x = Poly.x(spec)
    xb = _binomial_x_minus(spec, b)
    binv_r = (b ** r).inv()
    big_h = x ** m + (astar * binv_r) * (xb ** m - x ** m)
    big_hs = x ** mstar + (a * binv_r) * (xb ** mstar - x ** mstar)
    return xb, big_h, big_hs


def _M_poly(params: MultiplyParams) -> MonicOriginal:
    """The multiply original polynomial (x(x-b))^(m m*) H^m (H*)^(m*)."""
    mm = params.m * params.m_star
    xb, big_h, big_hs = _M_factors(params)
    return MonicOriginal(
        (xb ** mm * big_h ** params.m * big_hs ** params.m_star).shift_up(mm))


def build_M(params: MultiplyParams) -> tuple[MonicOriginal, Collision]:
    """The multiply original polynomial and its 2-collision {(g,h), (g*,h*)}.

    The collision identity g o h = g* o h* = f is verified eagerly (the
    Collision constructor composes both pairs).
    """
    spec = params.spec
    a, b, m, r = params.a, params.b, params.m, params.r
    astar, mstar = params.a_star, params.m_star
    x = Poly.x(spec)
    xb = _binomial_x_minus(spec, b)
    binv_r = (b ** r).inv()

    g = (x ** m) * _binomial_x_minus(spec, a) ** mstar
    h = x ** r + (astar * binv_r) * ((x ** mstar) * xb ** m - x ** r)
    gs = (x ** mstar) * _binomial_x_minus(spec, astar) ** m
    hs = x ** r + (a * binv_r) * ((x ** m) * xb ** mstar - x ** r)

    fm = _M_poly(params)
    col = Collision(fm, frozenset({
        Decomposition(MonicOriginal(g), MonicOriginal(h)),
        Decomposition(MonicOriginal(gs), MonicOriginal(hs)),
    }))
    return fm, col


def M_derivative_factored(params: MultiplyParams) -> Poly:
    """m m* a a* b^(1-r) (x(x-b))^(m m* - 1) H^(m-1) (H*)^(m*-1).

    The tests check it against the plain derivative of the built polynomial.
    """
    spec = params.spec
    a, b, m, r = params.a, params.b, params.m, params.r
    astar, mstar = params.a_star, params.m_star
    xb, big_h, big_hs = _M_factors(params)
    lead = spec.scalar(m * mstar) * a * astar * b ** (1 - r)
    return (lead * (Poly.x(spec) * xb) ** (m * mstar - 1) * big_h ** (m - 1)
            * big_hs ** (mstar - 1))
