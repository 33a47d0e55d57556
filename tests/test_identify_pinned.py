"""identify_multiply and classify answers pinned on a fixed input set.

The answers were computed before ``identify_multiply`` gained its degree
test, and before it read the quadratic and m off a right component's
derivative instead of f', and are written out below; any change to the
path must give them again.  Over each field: 15 random, 12 planted g o h,
12 shifted S and 12 shifted M inputs, and 9 shifted M inputs with one low
coefficient changed (these keep deg f' = p^2 - p - 2, so they pass the
degree test and reach the right-component splits).
"""

import random
from collections import Counter

import pytest

from wildcomp import identify
from wildcomp import (MultiplyParams, Poly, SimplyParams, build_M, build_S,
                      classify, compose, identify_multiply, original_shift)
from wildcomp.decomp_core import MonicOriginal

from conftest import F

KINDS = ("random",) * 15 + ("planted",) * 12 + ("S",) * 12 + ("M",) * 12 + ("M+",) * 9


def _monic_original(rng, spec, n):
    return Poly(spec, (0, *(rng.randrange(spec.q) for _ in range(n - 1)), 1))


def pinned_inputs(p, d):
    spec = F(p, d)
    rng = random.Random(1000 * p + d)

    def nz():
        return spec.elem(rng.randrange(1, spec.q))

    for kind in KINDS:
        if kind == "random":
            f = _monic_original(rng, spec, p * p)
        elif kind == "planted":
            f = compose(_monic_original(rng, spec, p), _monic_original(rng, spec, p))
        elif kind == "S":
            ms = [m for m in range(1, p) if (p - 1) % m == 0]
            f = build_S(SimplyParams(nz(), nz(), rng.randrange(2), rng.choice(ms), p)).poly
        else:
            ms = [m for m in range(2, p - 1) if m % p]
            b = nz()
            a = nz()
            while a == b ** p:
                a = nz()
            f = build_M(MultiplyParams(a, b, rng.choice(ms), p))[0].poly
            if kind == "M+":
                enc = list(f.encodings)
                i = rng.randrange(1, p)
                enc[i] = spec.add_i(enc[i], rng.randrange(1, spec.q))
                f = Poly(spec, enc)
        yield kind, original_shift(MonicOriginal(f), spec.elem(rng.randrange(spec.q)))


# One token per input, in order: the classify tag, then k for S, then
# ":a,b,m,w" (encodings) when identify_multiply succeeds.
PINNED = {
    (5, 1): """
        none none none none none none none none none none none none none none
        none none none none none none none none none none none none none none
        none none S2 S2 S2 none none S2 S2 none S2 M:2,1,2,3 M:2,1,2,0
        M:4,3,2,0 M:4,2,2,4 M:3,2,2,3 M:3,1,2,0 M:4,2,2,4 M:1,2,2,0 M:4,3,2,0
        M:4,2,2,3 M:1,2,2,3 M:1,3,2,4 none none none none none none none none
        none
    """,
    (5, 2): """
        none none none none none none none none none none none none none none
        none none none none none none none none none none none none none S2
        none none none none S6 none S2 S2 none none none M:20,7,2,13
        M:13,5,2,12 M:21,18,2,23 M:10,9,2,21 M:21,18,2,0 M:1,3,2,4 M:6,2,2,24
        M:16,17,2,20 M:10,9,2,1 M:17,12,2,21 M:2,3,2,20 M:12,6,2,16 none none
        none none none none none none none
    """,
    (7, 1): """
        none none none none none none none none none none none none none none
        none none none none none none none none none none none none none S2
        none none S2 none S2 none S2 none none S2 none M:3,2,3,3 M:4,1,3,6
        M:2,1,2,2 M:3,1,2,3 M:1,2,2,6 M:2,1,2,5 M:2,3,3,4 M:1,5,2,0 M:5,3,3,0
        M:2,4,3,0 M:2,3,3,6 M:4,1,2,0 none none none none none none none none
        none
    """,
    (7, 2): """
        none none none none none none none none none none none none none none
        none none none none none none none none none none none none none none
        none none none S2 none none none S2 none none S2 M:12,14,3,24
        M:30,34,2,4 M:11,19,3,39 M:43,10,2,22 M:24,22,2,48 M:42,15,2,46
        M:33,1,2,6 M:28,18,2,24 M:36,18,3,42 M:44,29,3,35 M:12,10,3,20
        M:37,39,3,6 none none none none none none none none none
    """,
    (11, 1): """
        none none none none none none none none none none none none none none
        none none none none none none none none none none none none none S2 S2
        S2 none S2 none none none none S2 none S2 M:6,1,3,5 M:3,6,5,9
        M:5,2,3,8 M:1,7,2,9 M:5,1,5,10 M:1,2,3,6 M:9,2,3,10 M:2,8,3,10
        M:4,5,2,10 M:4,2,3,6 M:2,5,4,9 M:9,1,4,10 none none none none none
        none none none none
    """,
    (13, 1): """
        none none none none none none none none none none none none none none
        none none none none none none none none none none none none none none
        none none none none S2 none S2 S2 none none none M:12,2,5,5 M:11,2,4,0
        M:10,11,6,0 M:3,7,5,8 M:12,5,5,6 M:12,1,3,5 M:1,5,4,9 M:7,6,6,10
        M:5,1,3,4 M:10,4,6,10 M:10,2,3,12 M:4,1,5,6 none none none none none
        none none none none
    """,
}


def answer(f, p) -> str:
    mm = identify_multiply(f, p)
    cls = classify(f)
    token = cls.tag.value + (str(cls.simply.k) if cls.simply else "")
    if mm is not None:
        token += ":" + ",".join(map(str, (mm.a.val, mm.b.val, mm.m, mm.w.val)))
    return token


@pytest.mark.parametrize("p,d", list(PINNED))
def test_answers_match_pinned(p, d):
    want = PINNED[(p, d)].split()
    got = [answer(f, p) for _, f in pinned_inputs(p, d)]
    assert len(want) == len(KINDS)
    assert got == want


def test_pinned_set_covers_every_outcome():
    tokens = " ".join(PINNED.values()).split()
    assert len(tokens) >= 300
    tags = {t.split(":")[0].rstrip("0123456789") for t in tokens}
    assert tags == {"none", "S", "M"}


@pytest.mark.parametrize("p,d", list(PINNED))
def test_rebuilds_only_the_member(monkeypatch, p, d):
    """Each identified M member is rebuilt once, for its own a; no M member
    or planted input reaches a rebuild of an S candidate.  The closed-form
    coefficients turn every other candidate away first."""
    rebuilds = Counter()

    def counted(name):
        build = getattr(identify, name)

        def wrapper(*args):
            rebuilds[name] += 1
            return build(*args)
        return wrapper

    for name in ("_S_shifted", "_M_shifted"):
        monkeypatch.setattr(identify, name, counted(name))
    for kind, f in pinned_inputs(p, d):
        if kind not in ("M", "planted"):
            continue
        rebuilds.clear()
        assert identify.identify_simply(f, p) is None
        assert rebuilds["_S_shifted"] == 0, kind
        found = identify.identify_multiply(f, p)
        assert (found is not None) == (kind == "M")
        assert rebuilds["_M_shifted"] == (kind == "M"), kind
