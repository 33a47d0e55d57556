import random
from itertools import islice

import pytest

from wildcomp import (ConstantBase, Poly, ZeroPolynomial, census, classify,
                      divrem, field_new, gcd, parse_poly)
from wildcomp.decomp_core import (Decomposition, MonicOriginal, left_divide,
                                  mo_index_to_inner, mo_index_to_poly)
from wildcomp.polyring import _mul_raw

# the eight feasible census fields from the verification plan
CENSUS_FIELDS = [(2, 2), (2, 4), (2, 8), (2, 16), (3, 3), (3, 9), (3, 27), (5, 5)]


def F(p, d=1, modulus=None):
    return field_new(p, d, modulus)


def P(spec, text):
    return parse_poly(spec, text)


def MO(spec, text):
    return MonicOriginal(parse_poly(spec, text))


def random_monic_original(rng: random.Random, spec, degree: int) -> MonicOriginal:
    inner = [rng.randrange(spec.q) for _ in range(degree - 1)]
    return MonicOriginal(Poly(spec, (0, *inner, 1)))


def planted_with_tops(rng, spec, i: int, j: int) -> tuple:
    """Random (g, h) whose top nonzero coefficients below x^p sit at x^i in
    g and at x^j in h; 0 gives x^p."""
    p = spec.p

    def original(top):
        inner = [rng.randrange(spec.q) for _ in range(top - 1)]
        inner += [rng.randrange(1, spec.q)] if top else []
        return MonicOriginal(Poly(spec, (0, *inner, *[0] * (p - 1 - top), 1)))

    return original(i), original(j)


def modexp_x_to_q(modulus: Poly, e: int) -> Poly:
    """x^e mod modulus by square and multiply."""
    if modulus.degree < 1:
        raise ConstantBase("modulus must have degree at least 1")
    if e < 0:
        raise ValueError("exponent must be non-negative")
    spec = modulus.spec
    result = divrem(Poly.one(spec), modulus)[1]
    base = divrem(Poly.x(spec), modulus)[1]
    while e:
        if e & 1:
            result = divrem(result * base, modulus)[1]
        e >>= 1
        if e:
            base = divrem(base * base, modulus)[1]
    return result


def count_roots_in_field(f: Poly) -> int:
    """Number of distinct roots of f in F_q, as deg gcd(x^q - x mod f, f).

    The root-count oracle, independent of ``gf.projective_roots``: it never
    looks at the form of f.
    """
    if f.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial")
    spec = f.spec
    if f.degree == 0:
        return 0
    g = gcd(modexp_x_to_q(f, spec.q) - Poly.x(spec), f)
    return int(g.degree) if not g.is_zero else 0


def t_poly(spec, u: int, eps: int, r: int) -> Poly:
    """y^(r+1) - eps*u*y + u as a polynomial over spec."""
    return Poly(spec, [u, spec.neg_i(u) if eps else 0] + [0] * (r - 1) + [1])


def full_scan_decompositions(f: MonicOriginal) -> frozenset:
    """Every (g, h) with f = g(h) and deg h = p, by left division of f by
    each of the q^(p-1) monic originals h of degree p."""
    spec, p = f.spec, f.spec.p
    hs = (mo_index_to_poly(spec, idx, p) for idx in range(spec.q ** (p - 1)))
    return frozenset(Decomposition(g, h) for h in hs
                     if (g := left_divide(f, h)) is not None)


def key_of(f) -> bytes:
    """The census key of the degree-p^2 polynomial f; inverts ``census.poly_of_key``."""
    spec = f.spec
    return bytes(digit for c in f.encodings[1:spec.p ** 2]
                 for digit in spec.coeffs_of(c))


def shard_tables(spec, parts):
    """The full-table oracle: yield ``(s, table)`` for each ``(s, slices)``
    in ``parts``, in order, one flat table of keys per part.

    The table holds the pairs (g, h) of shard s of each slice ``(hs, gs)``:
    those whose h index is in ``hs`` and whose g_{p-2} is in the range
    ``gs`` (None for p = 2).  It maps each f key to its packed pair, or to
    the list of its packed pairs once a second pair composes to it; within
    a key, pairs come in (h, g) order, h in the order of the slices and
    their ``hs``.  Every enumerated pair gets its key: for odd p the keys of
    one (s, h) are h^p + g_{p-1} h^(p-1) plus, for each level
    1 <= i <= p-2 and each F_p basis element z^k of F_q, one of the p
    reduced multiples m z^k h^i, in g index order, each reduced mod p by
    one ``bytes.translate``.  ``test_matches_compose`` pins it against
    ``reference_table``, which composes every pair.
    """
    p, q, d = spec.p, spec.q, spec.d
    n = p * p
    big_q = q ** (p - 1)
    shift = 8 * d
    nbytes = (n - 1) * d
    mul_i = spec.mul_i
    digits = census._digit_table(spec)

    def group(table, keys, pairs):
        setdefault = table.setdefault
        for key, pair in zip(keys, pairs):
            old = setdefault(key, pair)
            if old is not pair:
                if type(old) is int:
                    table[key] = [old, pair]
                else:
                    old.append(pair)

    if p == 2:
        squares = [mul_i(h, h) for h in range(q)]
        for s, slices in parts:
            hs = [h for part_hs, _ in slices for h in part_hs]
            top = digits[s] << shift
            gs = [s ^ squares[h] for h in hs]
            table: dict = {}
            group(table, [(digits[mul_i(g, h)] | top).to_bytes(nbytes, "little")
                          for h, g in zip(hs, gs)], [g * q + h for h, g in zip(hs, gs)])
            yield s, table
        return

    mod_p = bytes(b % p for b in range(256))
    sub_i, pow_i = spec.sub_i, spec.pow_i
    span = q ** (p - 2) * big_q
    skip = q ** (p - 3)  # the g indices below g_{p-2}
    lower = (p - 3) * d  # the basis multiples of the levels below the top

    def multiples(pw, c):
        """m*c*pw for m in F_p, in the key layout with each byte reduced."""
        base = sum(digits[mul_i(v, c)] << shift * j for j, v in enumerate(pw[1:n]) if v)
        return tuple(int.from_bytes((m * base).to_bytes(nbytes, "little").translate(mod_p),
                                    "little") for m in range(p))

    def precompute(hidx):
        inner = mo_index_to_inner(hidx, q, p)
        hp = sum(digits[pow_i(v, p)] << shift * (p * i - 1)
                 for i, v in enumerate(inner, 1))
        pows = [[0, *inner, 1]]
        for _ in range(p - 2):
            pows.append(_mul_raw(spec, pows[-1], pows[0]))
        tops = tuple((shift * j, v) for j, v in enumerate(pows[-1][1:n]) if v)
        basis = tuple(multiples(pw, p ** k) for pw in pows[:p - 2] for k in range(d))
        return hp, pow_i(inner[-1], p), tops, basis

    per_h: dict = {}
    for s, slices in parts:
        table = {}
        for hs, gs in slices:
            steps = [(k, ds) for k in range(d)
                     if (ds := sorted({v // p ** k % p for v in gs})) != [0]]
            values = [0]
            for k, ds in steps:
                values = [a + m * p ** k for m in ds for a in values]
            start = values.index(gs.start) * skip
            for hidx in hs:
                if hidx not in per_h:
                    per_h[hidx] = precompute(hidx)
                hp, lead, top, basis = per_h[hidx]
                c = sub_i(s, lead)
                lows = [hp + sum(digits[mul_i(v, c)] << sh for sh, v in top)]
                for mults in basis[:lower]:
                    lows = [a + m for m in mults for a in lows]
                for k, ds in steps:
                    mults = [basis[lower + k][m] for m in ds]
                    lows = [a + m for m in mults for a in lows]
                keys = [v.to_bytes(nbytes, "little").translate(mod_p)
                        for v in islice(lows, start, start + len(gs) * skip)]
                first = c * span + gs.start * skip * big_q + hidx
                group(table, keys, range(first, first + len(keys) * big_q, big_q))
        yield s, table


def every_h(spec, shards) -> list:
    """``shard_tables`` parts for the given shards, each with every pair."""
    return [(s, [(range(spec.q ** (spec.p - 1)), range(spec.q))]) for s in shards]


def shard_union(spec) -> dict:
    """The whole raw census table: every shard's table, checked disjoint, joined.

    Maps each f key to its bare packed pair or to the list of its pairs.
    """
    table: dict = {}
    for _, part in shard_tables(spec, every_h(spec, range(spec.q))):
        assert table.keys().isdisjoint(part)
        table.update(part)
    return table


def pair_count(pairs) -> int:
    """Number of packed pairs in a raw table value."""
    return 1 if type(pairs) is int else len(pairs)


@pytest.fixture(scope="session")
def census_reports():
    """One census run per feasible (p, q), shared by every test that needs it."""
    return {(p, q): census.run_census(p, q) for p, q in CENSUS_FIELDS}


@pytest.fixture(scope="session")
def full_colliding(census_reports):
    """The colliding f of every shard per census field, not only of the
    enumerated parts of shards 0 and 1.

    ``run_census`` enumerates parts of two shards; tests that walk every
    colliding f take them from here.
    """
    return {pq: {key: tuple(pairs) for key, pairs in shard_union(r.field_spec).items()
                 if type(pairs) is list}
            for pq, r in census_reports.items()}


@pytest.fixture(scope="session")
def classifications(census_reports, full_colliding):
    """classify() on every polynomial with >= 2 decompositions, all shards."""
    return {pq: {key: classify(report.poly_of_key(key))
                 for key in full_colliding[pq]}
            for pq, report in census_reports.items()}
