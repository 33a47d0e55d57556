import random

import pytest

from wildcomp import census, classify, field_new, parse_poly
from wildcomp.decomp_core import (Decomposition, MonicOriginal, left_divide,
                                  mo_index_to_poly)

# the eight feasible census fields from the verification plan
CENSUS_FIELDS = [(2, 2), (2, 4), (2, 8), (2, 16), (3, 3), (3, 9), (3, 27), (5, 5)]


def F(p, d=1, modulus=None):
    return field_new(p, d, modulus)


def P(spec, text):
    return parse_poly(spec, text)


def MO(spec, text):
    return MonicOriginal(parse_poly(spec, text))


def random_monic_original(rng: random.Random, spec, degree: int) -> MonicOriginal:
    from wildcomp.polyring import Poly
    inner = [rng.randrange(spec.q) for _ in range(degree - 1)]
    return MonicOriginal(Poly(spec, (0, *inner, 1)))


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


def every_h(spec, shards) -> list:
    """``_shard_tables`` parts for the given shards, each with every h."""
    return [(s, range(spec.q ** (spec.p - 1))) for s in shards]


def shard_union(spec) -> dict:
    """The whole raw census table: every shard's table, checked disjoint, joined.

    Maps each f key to its bare packed pair or to the list of its pairs.
    """
    table: dict = {}
    for _, part in census._shard_tables(spec, every_h(spec, range(spec.q))):
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
