import random

import pytest

from wildcomp import census, field_new, parse_poly
from wildcomp.decomp_core import MonicOriginal

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


def shard_union(spec) -> dict:
    """The whole raw census table: every shard's table, checked disjoint, joined.

    Maps each f key to its bare packed pair or to the list of its pairs.
    """
    table: dict = {}
    for _, part in census._shard_tables(spec, 0, spec.q):
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
