"""Parameter recovery and collision classification at degree r^2.

``identify_simply`` and ``identify_multiply`` recover construction
parameters (and the shift w) from a raw polynomial, returning None on any
failure path; a mandatory final reconstruction test keeps them sound on
arbitrary input.  The reconstruction builds the shifted member S^(w) or
M^(w) directly at x + w and compares it with f as given, so no degree-r^2
Taylor shift is made.  Before it, each S candidate must match two
coefficients of f given in closed form, in O(log r) field operations:
the x coefficient S'(w) and one coefficient near the top.

Both ``identify_multiply`` and ``enumerate_decompositions`` rest on one
rule, and read its candidates from one generator, ``_candidates``.  For
f = g(h) of degree r^2, y = h_(r-1) is a root of
P_f(y) = y^(r+1) - f_(r^2-r) y - f_(r^2-r-1), and each root fixes g's top
coefficient g_i below x^r: g_(r-1) = f_(r^2-r) - y^r when it is nonzero,
else, for r = p, one read off f's top exponent outside pZ.
``decomp_core.right_component_at`` builds h from (i, g_i) in O(r^2)
field operations, at most p + 1 h per root.  Every M member has
g_(r-1) y != 0; h' = -y (x+w)^(m*-1) (x+w-b)^(m-1) has degree r - 2, the
quadratic (x+w)(x+w-b) and m are read off it, no gcd touches f', and y
tells the candidate a from a*.  ``classify`` combines the two
identifications with the Frobenius test into the full trichotomy at
degree p^2.  ``enumerate_decompositions`` classifies nothing: it divides
f by each candidate h.  Every root these need comes from
``gf.projective_roots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .constructions import (MultiplyParams, SimplyParams, _M_shifted,
                            _S_probe, _S_shifted, prime_power_exponent)
from .decomp_core import (Collision, Decomposition, DegreeMismatch,
                          MonicOriginal, left_divide, right_component_at)
from .gf import FieldElem, projective_roots, solve_quadratic
from .polyring import (NEG_INFINITY, Poly, derivative, exact_div, gcd,
                       max_power_dividing, poly_pth_root, second_degree)


class CollisionTag(str, Enum):
    FROBENIUS = "F"
    SIMPLY = "S"
    MULTIPLY = "M"
    NONE = "none"


class SimplyMatch(NamedTuple):
    k: int
    u: FieldElem
    s: FieldElem
    eps: int
    m: int
    w: FieldElem


class MultiplyMatch(NamedTuple):
    a: FieldElem
    b: FieldElem
    m: int
    w: FieldElem


@dataclass(frozen=True)
class CollisionClass:
    tag: CollisionTag
    simply: Optional[SimplyMatch] = None
    multiply: Optional[MultiplyMatch] = None


class EnumeratedDecompositions(NamedTuple):
    collision: Collision
    complete: bool


def identify_simply(f: MonicOriginal, r: int) -> Optional[SimplyMatch]:
    """Recover (k, u, s, eps, m, w) with f = S(u,s,eps,m)^(w), or None.

    Branches on whether r divides the second degree, reads l and m off it,
    then s, u and w off three coefficients.  The candidate must match two
    more coefficients of f, f_1 and one below the three, in closed form
    (``constructions._S_probe``); a full rebuild of S^(w), made at x + w,
    is the final arbiter.  k counts the roots of y^(r+1) - eps*u*y + u,
    read off the field's root table by ``projective_roots``.
    """
    spec = f.spec
    prime_power_exponent(r, spec.p)
    if f.degree != r * r:
        raise DegreeMismatch(f"expected degree {r * r}, got {f.degree}")
    d2 = second_degree(f.poly)
    if d2 == NEG_INFINITY:
        return None
    d2 = int(d2)
    n = r * r
    if d2 % r == 0:
        eps = 1
        ell, rem = divmod(n - d2, r)
        if rem or ell == 0 or (r - 1) % ell:
            return None
        m = (r - 1) // ell
        denom = f.poly.coefficient_encoding(d2)
        s_enc = spec.neg_i(spec.mul_i(
            f.poly.coefficient_encoding(n - ell * r - ell), spec.inv_i(denom)))
        if s_enc == 0:
            return None
        u_enc = spec.mul_i(spec.mul_i(ell % spec.p, denom),
                           spec.inv_i(spec.pow_i(s_enc, r)))
    else:
        eps = 0
        ell, rem = divmod(n - d2, r + 1)
        if rem or ell == 0 or (r - 1) % ell:
            return None
        m = (r - 1) // ell
        s_enc = 1
        u_enc = spec.neg_i(spec.mul_i(
            ell % spec.p, f.poly.coefficient_encoding(n - ell * r - ell)))
    # f_(d2) != 0, p does not divide ell | r - 1, and f_(n-ell*r-ell) is
    # f_(d2) or -s f_(d2): so u != 0 and the w denominator is nonzero
    if m == 1:
        w_enc = 0
    else:
        low = n - ell * r - ell
        w_enc = spec.mul_i(m % spec.p, spec.mul_i(
            f.poly.coefficient_encoding(low - 1),
            spec.inv_i(f.poly.coefficient_encoding(low))))
    u, s = spec.elem(u_enc), spec.elem(s_enc)
    params = SimplyParams(u, s, eps, m, r)
    enc = f.poly.encodings
    if (any(enc[i] != v for i, v in _S_probe(params, w_enc))
            or tuple(_S_shifted(params, w_enc)) != enc):
        return None
    k = len(projective_roots(spec, r, spec.neg_i(u_enc) if eps else 0, u_enc))
    return SimplyMatch(k, u, s, eps, m, spec.elem(w_enc))


def _two_root_split(d: Poly) -> Optional[tuple[Poly, int]]:
    """For d = c (x - x1)^e1 (x - x2)^e2 with x1 != x2 and e1, e2 >= 1:
    the monic (x - x1)(x - x2) and min(e1, e2).  Other nonconstant d give
    None or a pair that the caller's rebuild rejects.

    p-th powers are stripped while the derivative vanishes (p^v divides
    both exponents); then d / gcd(d, d') keeps the roots whose exponent p
    does not divide.  If it keeps only x1, the rest (x - x2)^e2 is a p-th
    power, stripped the same way to (x - x2)^c with p not dividing c, and
    its x^(c-1) coefficient is -c x2.
    """
    spec = d.spec
    d = d * d.lc().inv()
    scale = 1
    while (dd := derivative(d)).is_zero:
        d, scale = poly_pth_root(d, 1), scale * spec.p
    sqf = exact_div(d, gcd(d, dd))
    if sqf.degree == 2:
        return sqf, scale * max_power_dividing(d, sqf)
    if sqf.degree != 1:
        return None
    e1 = max_power_dividing(d, sqf)
    rest = exact_div(d, sqf ** e1)
    e2 = int(rest.degree)
    if e2 < 1:
        return None
    while derivative(rest).is_zero:
        rest = poly_pth_root(rest, 1)
    # rest = (x - x2)^c, so x - x2 = x + rest_(c-1) / c
    c = int(rest.degree)
    lin = rest.coefficient(c - 1) / spec.scalar(c)
    return sqf * Poly(spec, (lin.val, 1)), scale * min(e1, e2)


def identify_multiply(f: MonicOriginal, r: int) -> Optional[MultiplyMatch]:
    """Recover (a, b, m, w) with f = M(a,b,m)^(w), or None.

    Works from the right component.  Every member f = M(a,b,m)^(w) has a
    decomposition g o h (``shift_decomposition`` of ``build_M``'s pair)
    with g_(r-1) = m a != 0 and y = h_(r-1) = -m a* b^(1-r) != 0, so
    f_(r^2-r-1) = -g_(r-1) y != 0 and y is a nonzero root of
    P_f(y) = y^(r+1) - f_(r^2-r) y - f_(r^2-r-1); and h is the candidate
    that ``_candidates`` builds at y, whose x^(r-1) coefficient is y.
    Since h = (1-c) x^r + c x^(m*) (x-b)^m with c = a* b^(-r), shifted by
    w, its derivative is

        h' = -y (x+w)^(m*-1) (x+w-b)^(m-1),

    of degree r - 2, and ``_two_root_split`` reads the quadratic
    (x+w)(x+w-b) and k = min(m-1, m*-1) off it, so m = min(k+1, r-k-1).
    The other decomposition, with m and m* swapped, gives the same
    quadratic and k.  So every member reaches the step below through its
    own y, and each y costs O(r^2) field operations on polynomials of
    degree at most r - 2; other roots of P_f reach it at worst with a
    quadratic that the rebuild rejects.

    From the quadratic's roots come b and w, and the two candidate values
    of a are the roots of z^2 - b^r z - m^(-2) b^(r-1) lc(f'), with
    lc(f') = -f_(r^2-r-1).  A candidate is rebuilt, at x + w, only when y
    is h_(r-1) of one of its two decompositions, -m a* b^(1-r) or
    -m* a b^(1-r).  For odd p that holds for only one of a and
    a* = b^r - a: holding for both would force a = a*, which is skipped,
    or m = m* in F_p, so p | m.  For p = 2 both may be rebuilt.  The
    rebuild is the only arbiter.

    Before any root, f must pass the test every member passes,
    deg f' = r^2 - r - 2, read off the coefficients: f_(r^2-r-1) != 0, and
    f_i = 0 for r^2 - r - 1 < i < r^2 with p not dividing i.  So no root
    of P_f has g_(r-1) = 0, and each candidate comes from its own root.
    """
    spec = f.spec
    p = spec.p
    prime_power_exponent(r, p)
    if f.degree != r * r:
        raise DegreeMismatch(f"expected degree {r * r}, got {f.degree}")
    if r < 5:
        # no m with 1 < m < r-1 and p not dividing m exists
        return None
    enc = f.poly.encodings
    top = r * r - r - 1
    if not enc[top] or any(enc[i] for i in range(top + 1, r * r) if i % p):
        return None
    lcf = spec.elem(spec.neg_i(enc[top]))
    for h in _candidates(f, r):
        split = _two_root_split(derivative(h.poly))
        if split is None:
            continue
        quad, k = split
        m = min(k + 1, r - k - 1)
        if m < 2 or m % p == 0:
            continue  # m^(-2) undefined when p | m
        match = _multiply_from_quadratic(f, r, quad, m, lcf,
                                         h.poly.coefficient(r - 1))
        if match is not None:
            return match
    return None


def _multiply_from_quadratic(f: MonicOriginal, r: int, quad: Poly, m: int,
                             lcf: FieldElem,
                             y: FieldElem) -> Optional[MultiplyMatch]:
    """The (a, b, m, w) that ``identify_multiply`` reads off the shifted
    quadratic (x+w)(x+w-b), m, lc(f') and the root y, or None."""
    spec = f.spec
    roots = solve_quadratic(quad.coefficient(2), quad.coefficient(1),
                            quad.coefficient(0))
    if roots is None:
        return None
    x1, x2 = roots
    b = x2 - x1
    w = -x1
    minv = spec.scalar(m).inv()
    br = b ** r
    c0 = -(minv * minv) * b ** (r - 1) * lcf
    # y = -m a* b^(1-r) or -m* a b^(1-r) = m a b^(1-r), so z is a* or -a
    z = -y * minv * b ** (r - 1)
    # a double root b^r / 2 is the case a = a*
    enc = f.poly.encodings
    for a in map(spec.elem, projective_roots(spec, 1, (-br).val, c0.val)):
        if a.val == 0 or a == br or z not in (br - a, -a):
            continue
        params = MultiplyParams(a, b, m, r)
        if tuple(_M_shifted(params, w.val)) == enc:
            return MultiplyMatch(a, b, m, w)
    return None


def classify(f: MonicOriginal) -> CollisionClass:
    """Collision determination at degree p^2.

    Tag F for f in F[x^p] minus x^(p^2), read off the coefficients at
    exponents outside pZ; else S when simple identification succeeds with
    k >= 2; else M when multiple identification succeeds; else none (no
    2-collision).
    """
    spec = f.spec
    p = spec.p
    if f.degree != p * p:
        raise DegreeMismatch(f"classification needs degree {p * p}")
    # f' = 0 exactly when every exponent outside pZ has coefficient 0
    enc = f.poly.encodings
    if not any(any(enc[i::p]) for i in range(1, p)) and any(enc[:-1]):
        return CollisionClass(CollisionTag.FROBENIUS)
    sm = identify_simply(f, p)
    if sm is not None and sm.k >= 2:
        return CollisionClass(CollisionTag.SIMPLY, simply=sm)
    mm = identify_multiply(f, p)
    if mm is not None:
        return CollisionClass(CollisionTag.MULTIPLY, multiply=mm)
    return CollisionClass(CollisionTag.NONE)


def brute_force_decompositions(f: MonicOriginal) -> list[Decomposition]:
    """All (g, h) with f = g(h) and deg h = p: each of the ``_candidates``
    h divided once by ``left_divide``."""
    p = f.spec.p
    if f.degree != p * p:
        raise DegreeMismatch(f"decomposition needs degree {p * p}")
    return [Decomposition(g, h) for h in set(_candidates(f, p))
            if (g := left_divide(f, h)) is not None]


def _candidates(f: MonicOriginal, r: int) -> Iterator[MonicOriginal]:
    """The h of degree r read off the roots y of
    P_f(y) = y^(r+1) - f_(r^2-r) y - f_(r^2-r-1), deg f = r^2: among them
    is the h of every f = g(h), save those with g_(r-1) = 0 when r != p.

    For f = g(h), f_(r^2-r) = y^r + g_(r-1) and f_(r^2-r-1) = -g_(r-1) y
    with y = h_(r-1) (``right_component_at``), so y is a root of P_f.  At a
    root with g_(r-1) = f_(r^2-r) - y^r != 0, h is ``right_component_at``
    (r-1, g_(r-1)).  The root y^r = f_(r^2-r), where g_(r-1) = 0, exists
    exactly when f_(r^2-r-1) = 0, since P_f(f_(r^2-r)^(1/r)) =
    -f_(r^2-r-1); there, for r = p only, ``_components_below_top`` gives h.
    """
    spec, enc = f.spec, f.poly.encodings
    top = enc[r * r - r]
    for y in projective_roots(spec, r, spec.neg_i(top),
                              spec.neg_i(enc[r * r - r - 1])):
        g_top = spec.sub_i(top, spec.pow_i(y, r))
        if g_top:
            yield right_component_at(f, r - 1, g_top)
        elif r == spec.p:
            yield from _components_below_top(f)


def _components_below_top(f: MonicOriginal) -> list[MonicOriginal]:
    """The candidate h for the pairs f = g(h) with g_(p-1) = 0, deg f = p^2.

    f in F[x^p] gives h = f^(1/p) (g = x^p) and h = x^p.  Otherwise let g_i
    and h_j be the top nonzero coefficients below x^p; i < p-1.  h^p has
    terms only at multiples of p, and g_i h^i first leaves pZ at
    e = (i-1)p + j, the top exponent outside pZ with f_e != 0, so
    f_e = i g_i h_j; f_(kp) = h_k^p for i < k < p, and f_(ip) = h_i^p + g_i.
    With c = f_e / i, j < i gives g_i = f_(ip) (h_i = 0); j > i gives
    g_i = c / h_j, h_j = f_(jp)^(1/p) (y if j = p-1); j = i gives c / h_i
    per root h_i of y^(p+1) - f_(ip) y + c.  h is ``right_component_at``.
    """
    spec, p, enc = f.spec, f.spec.p, f.poly.encodings
    e = next((k for k in range(p * p - 1, 0, -1) if k % p and enc[k]), 0)
    if not e:
        return [MonicOriginal(poly_pth_root(f.poly, 1)),
                MonicOriginal(Poly.monomial(spec, p))]
    i, j = e // p + 1, e % p
    if i >= p - 1:
        return []
    c = spec.mul_i(enc[e], spec.inv_i(i))
    if j < i:
        g_is = [enc[i * p]]
    else:
        h_js = ([spec.pth_root_i(enc[j * p], 1)] if j > i else
                projective_roots(spec, p, spec.neg_i(enc[i * p]), c))
        g_is = [spec.mul_i(c, spec.inv_i(h_j)) for h_j in h_js if h_j]
    return [right_component_at(f, i, g_i) for g_i in g_is if g_i]


def enumerate_decompositions(f: MonicOriginal) -> EnumeratedDecompositions:
    """The complete set of degree-p decompositions of f, read off the roots
    of P_f by ``brute_force_decompositions``; ``complete`` is always True."""
    pairs = frozenset(brute_force_decompositions(f))
    return EnumeratedDecompositions(Collision(f, pairs), True)
