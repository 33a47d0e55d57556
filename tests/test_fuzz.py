"""A bounded fuzz of the gf and polyring exports at the library boundary.

Encodings are drawn as arbitrary ints, negatives and values >= q included,
over F_5, F_13, F_9 and F_2^4, sometimes from two different fields at once.
Every call must either return what a naive loop on field operations
returns, or raise ValueError or one of the package's own exceptions; an
IndexError, KeyError, TypeError or ZeroDivisionError from inside the
kernels fails the test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import (Poly, compose, derivative, divrem, frobenius, gcd,
                      projective_roots, pth_root, sqrt)

from conftest import F

FIELDS = [F(5), F(13), F(3, 2), F(2, 4)]
FUZZ = settings(max_examples=150, deadline=None)


def refused(exc: BaseException) -> bool:
    """ValueError, or an exception the package defines itself."""
    return (isinstance(exc, ValueError)
            or type(exc).__module__.startswith("wildcomp."))


def call(fn, *args):
    """fn(*args), or None when it refused its input as the boundary allows."""
    try:
        return fn(*args)
    except Exception as exc:  # a refusal passes, any other error fails
        if refused(exc):
            return None
        raise


def in_range(spec, encodings) -> bool:
    return all(0 <= c < spec.q for c in encodings)


def ints(spec):
    """An encoding in range for spec, one just outside it, or any int."""
    q = spec.q
    return st.integers(0, q - 1) | st.sampled_from([-1, q]) | st.integers()


@st.composite
def encodings(draw, spec, max_len=6):
    """Coefficients all in range for spec, or with arbitrary ints mixed in."""
    coeff = draw(st.sampled_from([st.integers(0, spec.q - 1), ints(spec)]))
    return draw(st.lists(coeff, max_size=max_len))


@st.composite
def operands(draw, max_len=6, other_len=6):
    """Two (spec, encodings) operands, over one field in most draws."""
    spec = draw(st.sampled_from(FIELDS))
    other = draw(st.sampled_from([spec, spec, spec] + FIELDS))
    return ((spec, draw(encodings(spec, max_len))),
            (other, draw(encodings(other, other_len))))


def build(spec, enc):
    """Poly(spec, enc), checked to be refused exactly when out of range."""
    got = call(Poly, spec, enc)
    assert (got is not None) == in_range(spec, enc), (spec, enc)
    return got


# -- naive loops on field operations, one term at a time ----------------------

def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def naive_add(spec, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return trim(spec.add_i(x, y) for x, y in zip(a, b))


def naive_mul(spec, a, b):
    out = []
    for i, ai in enumerate(a):
        out = naive_add(spec, out, [0] * i + [spec.mul_i(ai, bj) for bj in b])
    return out


def naive_divrem(spec, a, b):
    q, r = [], trim(a)
    inv = spec.inv_i(b[-1])
    while len(r) >= len(b):
        k = len(r) - len(b)
        f = spec.mul_i(r[-1], inv)
        q = naive_add(spec, q, [0] * k + [f])
        r = naive_add(spec, r, [0] * k + [spec.mul_i(spec.neg_i(f), c) for c in b])
    return q, r


def naive_gcd(spec, a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, naive_divrem(spec, a, b)[1]
    inv = spec.inv_i(a[-1]) if a else 1
    return [spec.mul_i(c, inv) for c in a]


def naive_derivative(spec, a):
    # i * c as c added to itself i times
    out = []
    for i, c in enumerate(a[1:], 1):
        s = 0
        for _ in range(i):
            s = spec.add_i(s, c)
        out.append(s)
    return trim(out)


def naive_compose(spec, g, h):
    acc = []
    for c in reversed(g):
        acc = naive_add(spec, naive_mul(spec, acc, h), [c])
    return acc


# -- polyring -------------------------------------------------------------------

class TestPolyringBoundary:
    @FUZZ
    @given(operands())
    def test_divrem(self, ops):
        (sa, ea), (sb, eb) = ops
        a, b = build(sa, ea), build(sb, eb)
        got = call(divrem, a, b) if a is not None and b is not None else None
        if a is None or b is None or sa != sb or b.is_zero:
            assert got is None
        else:
            q, r = naive_divrem(sa, ea, trim(eb))
            assert got == (Poly(sa, q), Poly(sa, r))

    @FUZZ
    @given(operands())
    def test_gcd(self, ops):
        (sa, ea), (sb, eb) = ops
        a, b = build(sa, ea), build(sb, eb)
        got = call(gcd, a, b) if a is not None and b is not None else None
        if a is None or b is None or sa != sb:
            assert got is None
        else:
            assert got == Poly(sa, naive_gcd(sa, ea, eb))

    @FUZZ
    @given(st.sampled_from(FIELDS).flatmap(
        lambda spec: st.tuples(st.just(spec), encodings(spec, 12))))
    def test_derivative(self, case):
        spec, enc = case
        f = build(spec, enc)
        if f is not None:
            assert derivative(f) == Poly(spec, naive_derivative(spec, enc))

    @FUZZ
    @given(operands(), st.integers())
    def test_scalar_multiple(self, ops, v):
        (spec, enc), (other, _) = ops
        f = build(spec, enc)
        s = call(other.elem, v)
        assert (s is not None) == (0 <= v < other.q)
        if f is not None and s is not None:
            want = Poly(spec, naive_mul(spec, enc, [v])) if other == spec else None
            assert (call(lambda: f * s), call(lambda: s * f)) == (want, want)

    @FUZZ
    @given(operands(max_len=20, other_len=4))
    def test_compose(self, ops):
        # up to 20 coefficients in g, so a linear h reaches the split shift
        (sg, eg), (sh, eh) = ops
        g, h = build(sg, eg), build(sh, eh)
        got = call(compose, g, h) if g is not None and h is not None else None
        if g is None or h is None or sg != sh:
            assert got is None
        else:
            assert got == Poly(sg, naive_compose(sg, eg, eh))


# -- gf ---------------------------------------------------------------------------

def roots_by_evaluation(spec, r, c1, c0):
    return [y for y in range(spec.q)
            if spec.add_i(spec.add_i(spec.pow_i(y, r + 1), spec.mul_i(c1, y)),
                          c0) == 0]


class TestGfBoundary:
    @FUZZ
    @given(st.sampled_from(FIELDS).flatmap(
        lambda spec: st.tuples(st.just(spec), st.integers(-3, 30),
                               ints(spec), ints(spec))))
    def test_projective_roots(self, case):
        spec, r, c1, c0 = case
        got = call(projective_roots, spec, r, c1, c0)
        powers = [spec.p ** e for e in range(5)]
        if r in powers and 0 <= c1 < spec.q and 0 <= c0 < spec.q:
            assert got == roots_by_evaluation(spec, r, c1, c0)
        else:
            assert got is None

    @FUZZ
    @given(st.sampled_from(FIELDS).flatmap(
        lambda spec: st.tuples(st.just(spec), ints(spec))),
        st.integers(-3, 6))
    def test_element_maps(self, case, e):
        spec, v = case
        a = call(spec.elem, v)
        assert (a is not None) == (0 <= v < spec.q)
        if a is None:
            return
        b = call(pth_root, a, e)
        c = call(frobenius, a, e)
        if e < 0:
            assert b is None and c is None
        else:
            assert b ** (spec.p ** e) == a
            assert c == a ** (spec.p ** e)
        s = sqrt(a)
        assert s is None or s * s == a
        if s is None:
            assert all(spec.mul_i(y, y) != v for y in range(spec.q))
