import copy
import inspect
import itertools
import math
import random
import sys
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import census, classify, run_census, verify, class_partition_check
from wildcomp.census import (PAIR_LIMIT, TooLarge, enumerated_pairs,
                             mo_index_to_poly, poly_of_key, unpack_pair)
from wildcomp.decomp_core import MonicOriginal, original_shift
from wildcomp.gf import _is_prime
from wildcomp.identify import CollisionTag, enumerate_decompositions
from wildcomp.polyring import Poly, compose

from conftest import (CENSUS_FIELDS, F, every_h, key_of, pair_count, shard_tables,
                      shard_union)

# Fields for the shard properties, F_2^9 with nine key bytes per coefficient
# and F_3^3 with three F_3 basis vectors per level among them.
SHARD_FIELDS = [F(2, 3), F(3, 2), F(3, 3), F(5), F(2, 9)]
# Fields for the original-shift lemma, p in {3, 5, 7}.
SHIFT_FIELDS = [F(3), F(3, 2), F(3, 3), F(5), F(5, 2), F(7)]


def enumerated_by_formula(p: int, q: int) -> int:
    """The pairs the census enumerates, summed by hand over its parts."""
    if p == 2:
        return 2 * q
    e = math.gcd(p + 1, q - 1)
    # shard 0's t = 0 parts: the fibre c = f_{n-2p} = 0 and one fibre per
    # coset of the (2p)-th powers.  For p >= 5 a fibre takes h_{p-2} = 0
    # with g_{p-2} = c, h_{p-2}^p = c with g_{p-2} = 0, and h_{p-2}^p != 0, c
    # with h_{p-3} = 0 and g_{p-2} = c - h_{p-2}^p
    fibre_0, fibre_c = (q, q) if p == 3 else \
        (q ** (2 * p - 6) + (q - 1) * q ** (2 * p - 7),
         2 * q ** (2 * p - 6) + (q - 2) * q ** (2 * p - 7))
    shard_0_t_zero = fibre_0 + math.gcd(2 * p, q - 1) * fibre_c
    shard_1_y_zero = q ** (2 * p - 4) if p == 3 else \
        (q ** (p - 3) + (q - 1) * q ** (p - 4)) * q ** (p - 2)
    shard_1_root = q ** (2 * p - 5) + (q - 1) * q ** (2 * p - 6)
    return (shard_0_t_zero + e * q ** (2 * p - 5) + (q - 2) * q ** (2 * p - 5)
            + shard_1_y_zero + shard_1_root)


def represented_by(p: int, s: int, coeff) -> tuple:
    """(s, t_nonzero, fixed, c_nonzero) of the part of shard s in {0, 1},
    odd p, whose f stand for f; ``coeff(j)`` is f_j's encoding.

    With n = p^2, t = f_{n-p-1}, u = f_{n-p-2}, v = f_{n-2p-1},
    w2 = f_{n-2p-2} and c = f_{n-2p}: t != 0 goes to the t != 0 part; in
    shard 0, w2 != 0 for p >= 5 to the parts that fix f_{n-2p-3}, the rest
    to the parts at weight 1, each split by c = 0 or not; in shard 1,
    v != 0 with f_j = 0 for n-2p < j < n-p to the part that fixes w2, else
    u != 0 for p >= 5 to the part that fixes f_{n-p-3}; the rest to the
    t = 0 part at weight 1.
    """
    n = p * p
    if coeff(n - p - 1):
        return s, True, n - p - 2, None
    if s == 0:
        fixed = n - 2 * p - 3 if p > 3 and coeff(n - 2 * p - 2) else None
        return 0, False, fixed, coeff(n - 2 * p) != 0
    if not any(map(coeff, range(n - 2 * p + 1, n - p))) and coeff(n - 2 * p - 1):
        return 1, False, n - 2 * p - 2, None
    if p > 3 and coeff(n - p - 2):
        return 1, False, n - p - 3, None
    return 1, False, None, None


def coset_representatives(spec) -> set[int]:
    """The smallest element of each coset c H of H = {a^(2p)} in F_q*."""
    powers = {spec.pow_i(a, 2 * spec.p) for a in range(1, spec.q)}
    reps, covered = set(), set()
    for c in range(1, spec.q):
        if c not in covered:
            reps.add(c)
            covered |= {spec.mul_i(c, h) for h in powers}
    return reps


def kept(p: int, label: tuple, coeff, reps) -> bool:
    """Whether the part ``label`` holds f itself, not only stands for it:
    f_fixed = 0, t = 1 in shard 0's t != 0 part, and c = f_{p^2-2p} in
    ``reps`` in shard 0's coset parts."""
    s, t_nonzero, fixed, c_nonzero = label
    return (fixed is None or not coeff(fixed)) and \
        not (s == 0 and t_nonzero and coeff(p * p - p - 1) != 1) and \
        not (c_nonzero and coeff(p * p - 2 * p) not in reps)


def part_problems(spec, parts, tabulate=None) -> list[str]:
    """How ``parts`` of shards 0 and 1 differ from the rules, read off the
    full shard tables of the oracle ``shard_tables``.

    Each part's slices, tabulated flat by the oracle, must give exactly its
    filter of its shard's full table, every key and pair included: the f
    that it stands for (``represented_by``) and holds (``kept``).  The
    census loop ``tabulate`` (by default ``census._tabulate_shards``) must
    count that filter exactly: as many distinct f and f with one pair, and
    every colliding f with every one of its pairs, in the same order.  The f
    a part stands for must be its weight (over its shard's) times its own f
    for every pair count k, and the parts must cover each shard once.
    """
    p, q, d = spec.p, spec.q, spec.d
    reps = coset_representatives(spec)
    tabulate = tabulate or census._tabulate_shards
    counted = tabulate(p, d, [(part.s, slices) for part, slices in parts])

    def at(key):
        return lambda j: spec.encode_coeffs(key[(j - 1) * d:j * d])

    def rules(part):
        """(member, represented) predicates on the keys of the part's shard."""
        label = (part.s, part.t_nonzero, part.fixed, part.c_nonzero)

        def represented(key):
            return represented_by(p, part.s, at(key)) == label

        def member(key):
            return represented(key) and kept(p, label, at(key), reps)

        return member, represented

    problems = []
    shard_weight = {0: 1, 1: q - 1}
    for s, full in shard_tables(spec, every_h(spec, [0, 1])):
        mine = [((part, slices), got) for (part, slices), got in zip(parts, counted)
                if part.s == s]
        flat = shard_tables(spec, [(s, slices) for (_, slices), _ in mine])
        total = Counter()
        for ((part, _), (distinct, colliding)), (_, table) in zip(mine, flat):
            member, represented = rules(part)
            if table != {key: prs for key, prs in full.items() if member(key)}:
                problems.append(f"{part}: not its filter of shard {s}")
            singles = sum(type(prs) is int for prs in table.values())
            if (distinct, distinct - len(colliding)) != (len(table), singles):
                problems.append(f"{part}: {distinct} distinct f counted, "
                                f"{len(table)} tabulated")
            if list(colliding.items()) != sorted(
                    ((key, tuple(prs)) for key, prs in table.items() if type(prs) is list),
                    key=lambda item: (item[1][0] % q ** (p - 1), item[1][0])):
                problems.append(f"{part}: colliding f not those of its table")
            w, rest = divmod(part.weight, shard_weight[s])
            counts = Counter(map(pair_count, table.values()))
            stands_for = Counter(pair_count(prs) for key, prs in full.items()
                                 if represented(key))
            if rest or stands_for != Counter({k: w * c for k, c in counts.items()}):
                problems.append(f"{part}: weight {part.weight} off")
            total += stands_for
        if total != Counter(map(pair_count, full.values())):
            problems.append(f"shard {s}: parts do not cover it once")
    return problems


def g_count(p: int, q: int, gs) -> int:
    """The g of one (s, h) in a slice whose g_{p-2} is in ``gs``, None for
    p = 2."""
    return q ** (p - 2) if gs is None else q ** (p - 3) * len(gs)


def chain_reach(spec, s: int, slices) -> dict[int, int]:
    """For each h of a part of shard s, the highest m at which a state of h
    takes a nonzero g_m in the census loop, or 0, found by ``compose``.

    The level-1 states are (h, g_{p-1} = s - h_{p-1}^p).  The states of a
    level that share their signature, f_j for j > p m of g o h with g_m and
    the g below it 0, take each allowed g_m: g_{p-2} from the slice, any
    other g from F_q.
    """
    p, q = spec.p, spec.q
    n = p * p
    h_of = {hidx: mo_index_to_poly(spec, hidx, p).poly for hs, _ in slices for hidx in hs}
    states = [(hidx, gs, (spec.sub_i(s, spec.pow_i(hidx // q ** (p - 2), p)),))
              for hs, gs in slices for hidx in hs]
    reach = dict.fromkeys(h_of, 0)

    def signature(hidx, top, m):
        g = Poly(spec, (0, *[0] * m, *reversed(top), 1))
        return compose(g, h_of[hidx]).encodings[p * m + 1:n]

    for m in range(p - 2, 0, -1):
        shared = Counter(signature(hidx, top, m) for hidx, _, top in states)
        states = [(hidx, gs, top + (g,)) for hidx, gs, top in states
                  if shared[signature(hidx, top, m)] > 1
                  for g in (gs if m == p - 2 else range(q))]
        for hidx, _, top in states:
            if top[-1]:
                reach[hidx] = max(reach[hidx], m)
    return reach


def replace_slices(monkeypatch, which, slices_of):
    """Give each census part for which ``which(spec, part)`` holds the
    slices ``slices_of(spec, part, slices)`` in place of its own."""
    part_hs = census._part_hs

    def patched(spec, s):
        return [(part, slices_of(spec, part, slices) if which(spec, part) else slices)
                for part, slices in part_hs(spec, s)]

    monkeypatch.setattr(census, "_part_hs", patched)


def at_weight_1(monkeypatch, fixed):
    """Shard weight times 1, not q, for the part that fixes f_{fixed(p)}."""
    parts = census._parts

    def patched(spec):
        return [(part._replace(weight=part.weight // spec.q)
                 if part.fixed == fixed(spec.p) else part, slices)
                for part, slices in parts(spec)]

    monkeypatch.setattr(census, "_parts", patched)


def g_left_free(monkeypatch, which):
    """Every g_{p-2} in each slice of the parts for which ``which`` holds."""
    replace_slices(monkeypatch, which,
                   lambda spec, part, slices: [(hs, range(spec.q)) for hs, _ in slices])


def reference_table(spec) -> dict[bytes, set[int]]:
    """Every packed pair (g, h), grouped by the key of compose(g, h)."""
    p, q = spec.p, spec.q
    monics = {sum(c * q ** i for i, c in enumerate(inner)):
              Poly(spec, (0, *inner, 1))
              for inner in itertools.product(range(q), repeat=p - 1)}
    big_q = len(monics)
    table: dict[bytes, set[int]] = {}
    for gidx, g in monics.items():
        for hidx, h in monics.items():
            key = key_of(compose(g, h))
            table.setdefault(key, set()).add(gidx * big_q + hidx)
    return table


class TestRunCensus:
    def test_2_2(self, census_reports):
        r = census_reports[(2, 2)]
        assert r.spectrum_observed == {1: 2, 2: 1}
        assert r.class_counts == {"F": 1, "S": 0, "M": 0}
        assert r.decomposable_observed == 3

    def test_2_4(self, census_reports):
        r = census_reports[(2, 4)]
        assert r.spectrum_observed[2] == 3
        assert r.spectrum_observed[3] == 1
        assert r.class_spectrum["F"] == {2: 3}
        assert r.class_spectrum["S"] == {3: 1}
        assert r.decomposable_observed == 11

    def test_3_3(self, census_reports):
        r = census_reports[(3, 3)]
        assert r.spectrum_observed[2] == 12
        assert r.class_spectrum["F"] == {2: 8}
        assert r.class_spectrum["S"] == {2: 4}
        assert r.class_counts["M"] == 0
        assert r.decomposable_observed == 69

    def test_5_5_classes(self, census_reports):
        r = census_reports[(5, 5)]
        assert r.spectrum_observed[2] == 720
        assert r.spectrum_observed.get(6, 0) == 0
        assert r.class_counts == {"F": 624, "S": 66, "M": 30}

    def test_too_large(self):
        for p, q in [(5, 25), (7, 7), (3, 6561)]:
            with pytest.raises(TooLarge):
                run_census(p, q)

    def test_multimap_pairs_compose_to_key(self, census_reports):
        r = census_reports[(3, 3)]
        spec = r.field_spec
        for key in list(r.colliding_pairs)[:6]:
            f = poly_of_key(spec, key, 3)
            for d in r.decompositions_of_key(key):
                assert d.compose() == f

    def test_threads_match_sequential(self, census_reports):
        # On two or more CPUs, two workers take shard 0 and shard 1.
        # (5, 5) is the one census field with the p >= 5 parts
        for p, q in [(2, 4), (3, 9), (5, 5)]:
            seq = census_reports[(p, q)]
            par = run_census(p, q, threads=2)
            assert par.spectrum_observed == seq.spectrum_observed
            assert par.class_spectrum == seq.class_spectrum
            assert par.decomposable_observed == seq.decomposable_observed
            assert par.colliding_pairs == seq.colliding_pairs

    def test_pool_capped_at_q_and_cpus(self, census_reports, monkeypatch):
        """Workers are min(threads, 2, CPUs), one per enumerated shard.

        No pool is made when that is at most 1.

        The pool is an in-process fake that records its size and maps
        serially, so no process is started.
        """
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(census, "ProcessPoolExecutor", FakePool)
        cases = [(64, 100000, 2, 4, [2]), (64, 3, 3, 9, [2]),
                 (2, 100000, 3, 9, [2]), (64, 2, 2, 2, [2]), (None, 8, 2, 4, []),
                 (1, 8, 3, 9, []), (64, 1, 2, 4, []), (64, 0, 2, 4, []),
                 (64, -5, 2, 4, [])]
        for cpus, threads, p, q, want in cases:
            monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
            sizes.clear()
            got = run_census(p, q, threads=threads)
            assert sizes == want, (cpus, threads, p, q)
            seq = census_reports[(p, q)]
            assert got.spectrum_observed == seq.spectrum_observed
            assert got.decomposable_observed == seq.decomposable_observed
            assert got.colliding_pairs == seq.colliding_pairs


class TestTabulation:
    @pytest.mark.parametrize("p,q", [(2, 4), (2, 8), (2, 64), (3, 3), (3, 9)])
    def test_matches_compose(self, census_reports, p, q):
        r = census_reports.get((p, q)) or run_census(p, q)
        ref = reference_table(r.field_spec)
        table = shard_union(r.field_spec)
        assert {key: pair_count(prs) for key, prs in table.items()} == \
            {key: len(prs) for key, prs in ref.items()}
        assert r.decomposable_observed == len(ref)
        colliding = {key: prs for key, prs in table.items() if type(prs) is list}
        assert colliding.keys() == {key for key, prs in ref.items()
                                    if len(prs) >= 2}
        big_q = q ** (p - 1)
        for key, pairs in colliding.items():
            # in (h, g) index order, the order of enumeration within a shard
            assert pairs == sorted(ref[key], key=lambda pr: (pr % big_q, pr))
        # the report keeps the colliding f of the enumerated parts of shards 0
        # and 1 that each part holds (``represented_by`` and ``kept``), in part
        # order, and within a part in increasing (h, g) order of their first
        # pairs, each with its pairs in (h, g) order
        n = p * p
        labels = [(part.s, part.t_nonzero, part.fixed, part.c_nonzero)
                  for part in r.parts]
        reps = coset_representatives(r.field_spec)

        def part_index(key):
            f = poly_of_key(r.field_spec, key, p).poly.encodings
            s = f[n - p]
            if s > 1:
                return None
            if p == 2:
                return s
            label = represented_by(p, s, f.__getitem__)
            return labels.index(label) if kept(p, label, f.__getitem__, reps) else None

        held = [(part_index(key), key, tuple(prs)) for key, prs in colliding.items()]
        assert list(r.colliding_pairs.items()) == \
            [(key, prs) for i, key, prs in sorted(
                (x for x in held if x[0] is not None),
                key=lambda x: (x[0], x[2][0] % big_q, x[2][0]))]

    def test_byte_keys_at_q_256(self):
        spec = F(2, 8)
        table = shard_union(spec)
        assert all(type(key) is bytes for key in table)
        for g1, h1 in [(0, 0), (1, 255), (66, 7), (200, 13)]:
            f = compose(Poly(spec, (0, g1, 1)), Poly(spec, (0, h1, 1)))
            assert key_of(f) in table
        r = run_census(2, 256)
        assert verify(r)
        assert all(type(key) is bytes for key in r.colliding_pairs)

    def test_keys_decode_at_q_512(self):
        spec = F(2, 9)
        for s, table in shard_tables(spec, every_h(spec, range(300, 304))):
            for key, pairs in table.items():
                assert len(key) == 3 * 9
                f = poly_of_key(spec, key, 2)
                assert key_of(f.poly) == key
                assert f.poly.encodings[2] == s
                for pr in [pairs] if type(pairs) is int else pairs:
                    assert unpack_pair(spec, pr, 2).compose() == f

    @pytest.mark.parametrize("p,q", [(3, 3), (5, 5), (7, 7)])
    def test_keys_decode_at_d_1(self, p, q):
        """One key byte per coefficient: poly_of_key inverts key_of on
        random polynomials, and on the census's colliding f of (5, 5)."""
        spec = F(p)
        rng = random.Random(q)
        for _ in range(50):
            f = MonicOriginal(Poly(spec, (0, *[rng.randrange(q) for _ in range(p * p - 1)], 1)))
            key = key_of(f.poly)
            assert len(key) == p * p - 1
            assert poly_of_key(spec, key, p) == f
        if (p, q) == (5, 5):
            r = run_census(p, q)
            for key, pairs in r.colliding_pairs.items():
                assert key_of(r.poly_of_key(key).poly) == key
                assert {unpack_pair(spec, pr, p).compose() for pr in pairs} == \
                    {r.poly_of_key(key)}

    def test_digit_sums_fit_a_byte_under_pair_limit(self):
        """Every field PAIR_LIMIT admits builds each link of its chains from
        at most p d products of two reduced F_p digits in a byte, and sums
        at most (p-1)(1 + d (p-1)^2) in a key byte, without a carry, so
        PAIR_LIMIT is the only bound on a census.  Both bounds hold for
        F_25 and F_7 too, and fail for F_49 and F_11."""
        def fits(p, d):
            return p * d * (p - 1) ** 2 <= 255 and (p - 1) * (1 + d * (p - 1) ** 2) <= 255

        admitted = []
        for p in filter(_is_prime, range(2, PAIR_LIMIT.bit_length() // 2 + 2)):
            d = 1
            while enumerated_pairs(p, p ** d) <= PAIR_LIMIT:
                admitted.append((p, d))
                d += 1
        assert all(fits(p, d) for p, d in admitted)
        # (p, d): F_27, F_81, F_243, F_729, F_2187, F_5 and F_2^16 among the
        # admitted; F_6561, F_25 and F_7 are not
        assert {(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (5, 1), (2, 16)} <= set(admitted)
        assert not {(3, 8), (5, 2), (7, 1)} & set(admitted)
        # chain and key bytes: 160 and 132 at F_25, 252 and 222 at F_7
        assert fits(5, 2) and fits(7, 1)
        assert not fits(7, 2) and not fits(11, 1)


class TestShards:
    """f_{p^2-p} = h_{p-1}^p + g_{p-1} splits the pairs into q key-disjoint shards."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_top_coefficients_of_compose(self, data):
        spec = data.draw(st.sampled_from(SHARD_FIELDS))
        p, n = spec.p, spec.p ** 2
        inner = st.lists(st.integers(0, spec.q - 1), min_size=p - 1, max_size=p - 1)
        g, h = data.draw(inner), data.draw(inner)
        f = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1))).encodings
        assert len(f) == n + 1
        assert all(c == 0 for c in f[n - p + 1:n])
        assert f[n - p] == spec.add_i(spec.pow_i(h[-1], p), g[-1])

    @settings(max_examples=16, deadline=None)
    @given(st.sampled_from(SHARD_FIELDS).flatmap(
        lambda spec: st.tuples(st.just(spec), st.integers(0, spec.q - 1))))
    def test_shard_keys_hold_s(self, spec_and_s):
        spec, s = spec_and_s
        p, q, d = spec.p, spec.q, spec.d
        n = p * p
        big_q = q ** (p - 1)
        ((got, table),) = shard_tables(spec, every_h(spec, [s]))
        assert got == s
        assert sum(map(pair_count, table.values())) == q ** (2 * p - 3)
        # f_{p^2-p} = s in the key layout; decoding all 78k keys of an F_5
        # shard through poly_of_key would take seconds, so a seeded sample
        # of 64 keys from the whole shard is decoded and every key's digits
        # are compared directly
        s_digits = bytes(spec.coeffs_of(s))
        sample = set(random.Random(s).sample(range(len(table)), min(64, len(table))))
        for i, (key, pairs) in enumerate(table.items()):
            assert key[(n - p - 1) * d:(n - p) * d] == s_digits
            if i in sample:
                f = poly_of_key(spec, key, p)
                assert f.poly.encodings[n - p] == s
            for pr in [pairs] if type(pairs) is int else pairs:
                g_top, h_top = (idx // q ** (p - 2) for idx in divmod(pr, big_q))
                assert spec.add_i(spec.pow_i(h_top, p), g_top) == s
                if i in sample:
                    assert unpack_pair(spec, pr, p).compose() == f


def mutant_census(monkeypatch, old: str, new: str) -> types.ModuleType:
    """A copy of the census module, loaded as a module of the package, with
    its one occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(census)
    assert source.count(old) == 1, old
    module = types.ModuleType("wildcomp._census_mutant")
    module.__package__, module.__file__ = "wildcomp", census.__file__
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), census.__file__, "exec"), module.__dict__)
    return module


# Faults in the census loop, each as (source, its mutant): a group of two
# states counted as singletons; a signature one coefficient too long, which
# reaches f_{p(p-i-1)} at level i; and a lone state's completions at level 1
# taken as q^(p-1-i), every g_{p-2}, in place of its slice's count.
LOOP_MUTANTS = {
    "two_as_singletons": (
        "if len(group) == 1:\n"
        "                    distinct += (group[0][3][2] if m == p - 2 else q) * q ** (m - 1)",
        "if len(group) <= 2:\n"
        "                    distinct += sum(state[3][2] if m == p - 2 else q\n"
        "                                    for state in group) * q ** (m - 1)"),
    "signature_too_long": (
        "return ((total >> shift * p * (m - 1)) & mask).to_bytes(p * d, \"little\")",
        "return ((total >> shift * (p * (m - 1) - 1)) & ((1 << shift * (p + 1)) - 1))"
        ".to_bytes((p + 1) * d, \"little\")"),
    "completions_of_every_g": (
        "distinct += (group[0][3][2] if m == p - 2 else q) * q ** (m - 1)",
        "distinct += q * q ** (m - 1)"),
}


class TestCoefficientBlocks:
    """In f = g o h the term g_m h^m has degree pm and top coefficient g_m,
    so f_j for j > p(m-1) depends only on h and g_{p-1}, ..., g_m, and
    f_{p(m-1)} is g_{m-1} plus a function of them: the rule by which the
    census loop groups its states."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_signature_is_fixed_by_the_state(self, data):
        spec = data.draw(st.sampled_from([F(3), F(3, 2), F(3, 3), F(5), F(7)]))
        p, q = spec.p, spec.q
        elem = st.integers(0, q - 1)
        inner = st.lists(elem, min_size=p - 1, max_size=p - 1)
        g, h = data.draw(inner), data.draw(inner)
        base = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1))).encodings
        for i in range(1, p - 1):
            # the level-i state sets g_{p-1}..g_{p-i}; g_{p-i-1} is g[m - 1]
            m = p - i - 1
            lower = data.draw(st.lists(elem, min_size=m - 1, max_size=m - 1))
            delta = data.draw(elem)
            moved = [*lower, spec.add_i(g[m - 1], delta), *g[m:]]
            f = compose(Poly(spec, (0, *moved, 1)), Poly(spec, (0, *h, 1))).encodings
            cut = p * m
            assert f[cut + 1:] == base[cut + 1:], (i, g, moved)
            assert f[cut] == spec.add_i(base[cut], delta), (i, g, moved)

    # At (5, 5) every level-1 state whose slice restricts g_{p-2} shares its
    # band with another, so a lone state's count cannot be wrong there.
    @pytest.mark.parametrize("mutant,p,q", [
        (mutant, p, q) for mutant in sorted(LOOP_MUTANTS) for p, q in [(3, 9), (3, 27), (5, 5)]
        if (mutant, p, q) != ("completions_of_every_g", 5, 5)])
    def test_loop_mutant_fails_verify_or_the_part_check(self, monkeypatch, mutant, p, q):
        module = mutant_census(monkeypatch, *LOOP_MUTANTS[mutant])
        spec = F(p, round(math.log(q, p)))
        assert not verify(module.run_census(p, q)) or \
            part_problems(spec, census._parts(spec), module._tabulate_shards)


# Faults in the chain of ``census._chain_step``, each as (source, its
# mutant): each h_i z^k at x^(i-1) in place of x^i; h_i in place of h_i z^k;
# and a chain started from the coefficients h_i^p of h^p in place of h's.
CHAIN_MUTANTS = {
    "shift_by_i_minus_1": ("z1 << shift - 8 * l & blocks", "z1 >> 8 * l & blocks >> shift"),
    "h_i_for_h_i_z_k": ("digits[spec.mul_i(v, p ** k)]", "digits[v]"),
    "started_from_h_p": ("digits[spec.mul_i(v, p ** k)]",
                         "digits[spec.mul_i(spec.pow_i(v, p), p ** k)]"),
}


class TestChain:
    """Per h the census builds Z_m[k] = z^k h^m, for each F_p basis element
    z^k of F_q, in the key layout: Z_1 from h's coefficients, then Z_m from
    Z_{m-1}, as z^k h^m = sum_i x^i (h_i z^k) h^(m-1)."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_links_are_z_k_times_powers_of_h(self, data):
        spec = data.draw(st.sampled_from([F(3), F(3, 2), F(3, 3), F(5), F(7), F(5, 2)]))
        p, q = spec.p, spec.q
        h = Poly(spec, (0, *data.draw(st.lists(st.integers(0, q - 1), min_size=p - 1,
                                               max_size=p - 1)), 1))
        digits, mod_p = census._digit_table(spec), bytes(b % p for b in range(256))
        zs = []
        for m in range(1, p):
            zs.append(census._chain_step(spec, digits, mod_p, h.encodings, zs))
            # key_of gives the key-layout bytes of any f of degree below p^2
            assert zs[-1] == tuple(int.from_bytes(key_of(Poly(spec, (p ** k,)) * h ** m),
                                                  "little") for k in range(spec.d)), (h, m)

    # Over F_5, z^0 = 1 and h_i^p = h_i, so only the shift can be wrong there.
    @pytest.mark.parametrize("mutant,p,q", [
        (mutant, p, q) for mutant in sorted(CHAIN_MUTANTS) for p, q in [(3, 9), (3, 27), (5, 5)]
        if q != 5 or mutant == "shift_by_i_minus_1"])
    def test_chain_mutant_fails_verify_or_the_part_check(self, monkeypatch, mutant, p, q):
        module = mutant_census(monkeypatch, *CHAIN_MUTANTS[mutant])
        spec = F(p, round(math.log(q, p)))
        assert not verify(module.run_census(p, q)) or \
            part_problems(spec, census._parts(spec), module._tabulate_shards)


class TestScaling:
    """Shard s != 0 is a copy of shard 1 under f -> a^(-p^2) f(a x), a^p = s."""

    @pytest.mark.parametrize("p,q", [(2, 4), (2, 8), (3, 9), (5, 5)])
    def test_nonzero_shards_copy_shard_1(self, census_reports, classifications, p, q):
        pq = (p, q)
        spec = census_reports[pq].field_spec
        classes = classifications[pq]

        def profile(table):
            spectrum = Counter(map(pair_count, table.values()))
            cells = Counter((classes[key].tag, len(prs))
                            for key, prs in table.items() if type(prs) is list)
            return spectrum, cells

        profiles = [profile(table) for _, table in
                    shard_tables(spec, every_h(spec, range(spec.q)))]
        assert profiles[1][1], pq
        for s in range(2, spec.q):
            assert profiles[s] == profiles[1], (pq, s)

    @pytest.mark.parametrize("p,q", CENSUS_FIELDS + [(2, 64), (2, 256), (2, 512)])
    def test_reduced_equals_shard_union(self, census_reports, classifications, p, q):
        pq = (p, q)
        r = census_reports.get(pq) or run_census(p, q)
        classes = classifications.get(pq, {})
        table = shard_union(r.field_spec)
        class_spectrum = {"F": Counter(), "S": Counter(), "M": Counter()}
        for key, prs in table.items():
            if type(prs) is list:
                cls = classes[key] if key in classes else classify(r.poly_of_key(key))
                assert cls.tag is not CollisionTag.NONE, (pq, key)
                class_spectrum[cls.tag.value][len(prs)] += 1
        assert r.spectrum_observed == Counter(map(pair_count, table.values()))
        assert r.class_spectrum == class_spectrum
        assert r.decomposable_observed == len(table)
        assert r.pairs_enumerated == enumerated_pairs(p, q) == enumerated_by_formula(p, q)


class TestShiftReduction:
    """For odd p each shard splits into its t = f_{p^2-p-1} = 0 part and one
    f per original-shift orbit of its t != 0 f (the ``census`` docstring)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shift_keeps_s_and_t_and_moves_next_by_t_w(self, data):
        spec = data.draw(st.sampled_from(SHIFT_FIELDS))
        p, n = spec.p, spec.p ** 2
        elem = st.integers(0, spec.q - 1)
        inner = st.lists(elem, min_size=p - 1, max_size=p - 1)
        g, h, w = data.draw(inner), data.draw(inner), data.draw(elem)
        f = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1)))
        fw = original_shift(MonicOriginal(f), spec.elem(w)).poly.encodings
        f = f.encodings
        s, t, y = f[n - p], f[n - p - 1], h[-1]
        sub, mul = spec.sub_i, spec.mul_i
        # t = (y^p - s) y and f_{p^2-p-2} = g_{p-1} (y^2 - h_{p-2})
        assert t == mul(sub(spec.pow_i(y, p), s), y)
        assert f[n - p - 2] == mul(g[-1], sub(mul(y, y), h[-2]))
        assert fw[n - p] == s and fw[n - p - 1] == t
        assert fw[n - p - 2] == sub(f[n - p - 2], mul(t, w))

    @pytest.mark.parametrize("p,q", [(3, 3), (3, 9), (3, 27), (5, 5)])
    def test_parts_hold_every_pair_of_their_keys(self, census_reports, p, q):
        spec = census_reports[(p, q)].field_spec
        parts = census._parts(spec)
        n = p * p
        # the p >= 5 parts: shard 0's w2 != 0 and shard 1's u != 0 sections;
        # shard 0's t = 0 parts each as the fibre c = 0 and the coset fibres
        sub_0 = [(0, False, n - 2 * p - 3, False), (0, False, n - 2 * p - 3, True)] \
            if p >= 5 else []
        sub_1 = [(1, False, n - p - 3, None)] if p >= 5 else []
        assert [(part.s, part.t_nonzero, part.fixed, part.c_nonzero)
                for part, _ in parts] == \
            [(0, False, None, False), (0, False, None, True), *sub_0,
             (0, True, n - p - 2, None), (1, False, None, None), *sub_1,
             (1, False, n - 2 * p - 2, None), (1, True, n - p - 2, None)]
        e = math.gcd(p + 1, q - 1)
        coset = (q - 1) // 2  # the coset size; there are gcd(2p, q - 1) = 2
        assert [part.weight for part, _ in parts] == \
            [1, coset, *[q, q * coset][:len(sub_0)], q * (q - 1) // e, q - 1,
             *[(q - 1) * q] * len(sub_1), (q - 1) * q, (q - 1) * q]
        assert part_problems(spec, parts) == []

    @pytest.mark.parametrize("p,q", [(2, 4), (2, 64), (3, 3), (3, 9), (3, 27),
                                     (3, 81), (3, 729), (3, 2187), (5, 5), (5, 25),
                                     (7, 7)])
    def test_enumerated_pairs_sum_over_the_parts(self, p, q):
        spec = F(p, round(math.log(q, p)))
        in_parts = sum(len(hs) * g_count(p, q, gs)
                       for _, slices in census._parts(spec) for hs, gs in slices)
        assert enumerated_pairs(p, q) == in_parts == enumerated_by_formula(p, q)

    @pytest.mark.parametrize("p,q", [(3, 9), (5, 5)])
    def test_weight_one_for_t_nonzero_fails_verify(self, monkeypatch, p, q):
        parts = census._parts

        def unweighted(spec):
            return [(part._replace(weight=part.weight // spec.q)
                     if part.t_nonzero else part, hs) for part, hs in parts(spec)]

        monkeypatch.setattr(census, "_parts", unweighted)
        assert not verify(run_census(p, q))

    @pytest.mark.parametrize("p,q", [(3, 9), (3, 27), (5, 5)])
    def test_shard_0_weight_without_scaling_fails_verify(self, monkeypatch, p, q):
        """Shard 0's t != 0 part at weight q, not q (q-1)/e; (3, 3) has
        (q-1)/e = 1 and cannot tell them apart."""
        parts = census._parts
        e = math.gcd(p + 1, q - 1)

        def unscaled(spec):
            return [(part._replace(weight=part.weight * e // (q - 1))
                     if part.s == 0 and part.t_nonzero else part, hs)
                    for part, hs in parts(spec)]

        monkeypatch.setattr(census, "_parts", unscaled)
        assert not verify(run_census(p, q))

    @pytest.mark.parametrize("p,q", [(3, 9), (5, 5)])
    def test_wrong_h_rule_fails_verify(self, monkeypatch, p, q):
        def off_by_one(spec, part, slices):
            """h_{p-2} = y^2 + 1 in the t != 0 parts instead of y^2."""
            low = spec.q ** (spec.p - 3)
            out = []
            for hs, gs in slices:
                digit = [(idx // low) % spec.q for idx in hs]
                out.append(([idx + (spec.add_i(c, 1) - c) * low
                             for idx, c in zip(hs, digit)], gs))
            return out

        replace_slices(monkeypatch, lambda spec, part: part.t_nonzero, off_by_one)
        assert not verify(run_census(p, q))

    def test_workers_precompute_only_their_parts_h(self, monkeypatch):
        """Each worker builds the per-h data of the h of its own parts, once
        each, and only as far as its states reach.  The chain Z_1, ..., Z_m
        of h is built link by link, each link at most once: up to Z_{p-1}
        exactly where g_{p-1} = s - h_{p-1}^p != 0, and otherwise up to the
        highest m at which a state of h may take a nonzero g_m, which
        ``chain_reach`` finds by ``compose``; so an h alone at level 1 with
        g_{p-1} = 0 builds no link.  Links are read off the ``_chain_step``
        calls, each decoded as z^0 h^m."""
        inner, step = census.mo_index_to_inner, census._chain_step
        made, links = [], []

        def recording_inner(hidx, q, p):
            made.append(hidx)
            return inner(hidx, q, p)

        def recording_step(spec, digits, mod_p, h, zs):
            link = step(spec, digits, mod_p, h, zs)
            links.append(link[0])
            return link

        monkeypatch.setattr(census, "mo_index_to_inner", recording_inner)
        monkeypatch.setattr(census, "_chain_step", recording_step)
        kinds = Counter()
        for spec in (F(3, 3), F(5)):
            p, q = spec.p, spec.q
            monic = {idx: mo_index_to_poly(spec, idx, p).poly for idx in range(q ** (p - 1))}
            # a link's z^0 part in the key layout, whose bytes key_of gives
            of_link = {int.from_bytes(key_of(h ** m), "little"): (idx, m)
                       for idx, h in monic.items() for m in range(1, p)}
            for s in (0, 1):
                shard = [(s, slices) for part, slices in census._parts(spec)
                         if part.s == s]
                made.clear(), links.clear()
                census._tabulate_shards(p, spec.d, shard)
                in_parts = {hidx for _, slices in shard for hs, _ in slices for hidx in hs}
                assert sorted(made) == sorted(in_parts)
                built = [of_link[link] for link in links]
                assert len(set(built)) == len(built)

                def g_top(hidx):
                    return spec.sub_i(s, spec.pow_i(hidx // q ** (p - 2), p))

                reach = Counter()
                for _, slices in shard:
                    for hidx, m in chain_reach(spec, s, slices).items():
                        reach[hidx] = max(reach[hidx], m)
                for hidx in in_parts:
                    top = p - 1 if g_top(hidx) else reach[hidx]
                    assert {m for idx, m in built if idx == hidx} == set(range(1, top + 1))
                    kinds["full" if top == p - 1 else "partial" if top else "none"] += 1
                    kinds["below the top level"] += 0 < top < p - 2
                # shard 0's t = 0 h (y = 0) and shard 1's y^p = 1 h build no
                # Z_{p-1}, grouped or lone
                per_y = q ** (p - 2)
                no_top = range(per_y) if s == 0 else range(per_y, 2 * per_y)
                assert not {idx for idx, m in built if m == p - 1} & set(no_top)
                if p == 5 and s == 1:
                    # nor Z_{p-2}, but for h_{p-2} = (3/2) y^2 = 4
                    four = {hidx for hidx in no_top if hidx // q ** (p - 3) % q == 4}
                    at_top = {idx for idx, m in built if m == p - 2} & set(no_top)
                    assert at_top and at_top <= four
        assert kinds["full"] and kinds["partial"] and kinds["none"]
        assert kinds["below the top level"]


class TestShiftInShard1:
    """Shard 1's t = 0 f with u = f_{p^2-p-2} != 0, p >= 5: one f per
    original-shift orbit, f_{p^2-p-3} = 0, all pairs from h_{p-3} = 0."""

    @staticmethod
    def sub_part_hs(monkeypatch, hs_of):
        """Replace the h of shard 1's u != 0 part by ``hs_of(spec)``."""
        replace_slices(monkeypatch,
                       lambda spec, part: part.fixed == spec.p ** 2 - spec.p - 3,
                       lambda spec, part, slices: [(hs_of(spec), range(spec.q))])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_shift_keeps_u_and_moves_next_by_2uw(self, data):
        spec = data.draw(st.sampled_from([F(5), F(5, 2), F(7)]))
        p, n = spec.p, spec.p ** 2
        elem = st.integers(0, spec.q - 1)
        s = data.draw(st.integers(1, spec.q - 1))
        h = [*data.draw(st.lists(elem, min_size=p - 2, max_size=p - 2)), 0]
        g = [*data.draw(st.lists(elem, min_size=p - 2, max_size=p - 2)), s]
        w = data.draw(elem)
        f = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1)))
        fw = original_shift(MonicOriginal(f), spec.elem(w)).poly.encodings
        f = f.encodings
        sub, mul = spec.sub_i, spec.mul_i
        u = f[n - p - 2]
        # y = 0: t = 0, u = -s h_{p-2} and f_{p^2-p-3} = -s h_{p-3}
        assert f[n - p - 1] == 0 and u == spec.neg_i(mul(s, h[-2]))
        assert f[n - p - 3] == spec.neg_i(mul(s, h[-3]))
        assert fw[n - p - 1] == 0 and fw[n - p - 2] == u
        assert fw[n - p - 3] == sub(f[n - p - 3], mul(spec.scalar(2).val, mul(u, w)))

    def test_p_3_slice_is_not_shift_free(self):
        """For p = 3, C(6, 3) = 2 mod 3 moves f_3 by u w - s w^3 as well, so
        the shift can fix f_3 and u != 0 at w != 0; the slice stays whole."""
        spec = F(3, 2)
        f = compose(Poly(spec, (0, 0, 1, 1)), Poly(spec, (0, 1, 0, 1)))
        assert f.encodings[4] and not f.encodings[5]  # u != 0, t = 0
        fixed = [w for w in range(1, spec.q)
                 if original_shift(MonicOriginal(f), spec.elem(w)).poly.encodings[3]
                 == f.encodings[3]]
        assert fixed

    def test_weight_without_q_fails_verify(self, monkeypatch):
        at_weight_1(monkeypatch, lambda p: p * p - p - 3)
        assert not verify(run_census(5, 5))

    def test_h_p_minus_3_left_free_fails_verify(self, monkeypatch):
        self.sub_part_hs(monkeypatch, lambda spec: [c * 25 + i for c in range(1, 5)
                                                    for i in range(25)])
        assert not verify(run_census(5, 5))

    def test_h_1_fixed_in_place_of_h_2_fails_the_part_check(self, monkeypatch):
        """(5, 5)'s u != 0 f all have one pair, so verify cannot tell which
        slice of them the part holds; the part check against the full shard
        tables can."""
        self.sub_part_hs(monkeypatch, lambda spec: [c * 25 + 5 * i for c in range(1, 5)
                                                    for i in range(5)])
        spec = F(5)
        assert part_problems(spec, census._parts(spec)) != []

    @pytest.mark.parametrize("c", range(1, 5))
    def test_any_fixed_h_p_minus_3_is_a_section(self, monkeypatch, c):
        """h_{p-3} = c in place of 0 is no fault: the shift moves
        f_{p^2-p-3} = -h_{p-3} freely, so the part then holds the t = 0,
        u != 0 f with f_{p^2-p-3} = -c, every pair included, and as many of
        each k as with h_{p-3} = 0; the census is unchanged."""
        spec = F(5)
        n = 25  # one key byte per coefficient: f_j is key[j - 1]
        (_, table), (_, zero) = shard_tables(spec, [
            (1, [([b * 25 + 5 * c + i for b in range(1, 5) for i in range(5)], range(5))]),
            (1, [([b * 25 + i for b in range(1, 5) for i in range(5)], range(5))])])
        ((_, full),) = shard_tables(spec, every_h(spec, [1]))
        assert table == {key: prs for key, prs in full.items()
                         if not key[n - 7] and key[n - 8]
                         and key[n - 9] == spec.neg_i(c)}
        assert Counter(map(pair_count, table.values())) == \
            Counter(map(pair_count, zero.values()))
        self.sub_part_hs(monkeypatch, lambda spec: [b * 25 + 5 * c + i
                                                    for b in range(1, 5) for i in range(5)])
        r = run_census(5, 5)
        assert verify(r) and class_partition_check(r)


class TestShiftInRootSlice:
    """Shard s != 0, t = 0, the y^p = s slice, any odd p: the f with
    v = f_{n-2p-1} != 0 are one f per original-shift orbit, w2 = f_{n-2p-2}
    = 0, all pairs from h_{p-2} = (3/2) y^2 and g_{p-2} != 0; n = p^2."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_shift_keeps_v_and_moves_w2_by_vw(self, data):
        spec = data.draw(st.sampled_from([F(3, 2), F(5), F(5, 2), F(7)]))
        p, q, n = spec.p, spec.q, spec.p ** 2
        mul, add, sub = spec.mul_i, spec.add_i, spec.sub_i
        elem = st.integers(0, q - 1)
        y = data.draw(st.integers(1, q - 1))
        three_halves_y2 = mul(3 * (p + 1) // 2 % p, mul(y, y))
        h_top = three_halves_y2 if data.draw(st.booleans()) else data.draw(elem)
        h = [*data.draw(st.lists(elem, min_size=p - 3, max_size=p - 3)), h_top, y]
        g = [*data.draw(st.lists(elem, min_size=p - 2, max_size=p - 2)), 0]
        w = data.draw(elem)
        f = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1)))
        fw = original_shift(MonicOriginal(f), spec.elem(w)).poly.encodings
        f = f.encodings
        # s = y^p, and f_j = 0 for n-2p < j < n-p, t and u among them
        assert f[n - p] == spec.pow_i(y, p) and not any(f[n - 2 * p + 1:n - p])
        v, w2 = f[n - 2 * p - 1], f[n - 2 * p - 2]
        assert v == mul(p - 2, mul(y, g[-2]))
        assert w2 == mul(g[-2], add(mul(p - 2, h[-2]),
                                    mul(math.comb(p - 2, 2) % p, mul(y, y))))
        assert (w2 == 0) == (g[-2] == 0 or h[-2] == three_halves_y2)
        assert fw[n - p] == f[n - p] and not any(fw[n - 2 * p + 1:n - p])
        assert fw[n - 2 * p - 1] == v
        assert fw[n - 2 * p - 2] == sub(w2, mul(v, w))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_no_y_zero_pair_reaches_v_nonzero(self, data):
        """y = 0 and u = 0 (h_{p-2} = 0): either h = x^p and f has only
        f_j with p | j, or f_{n-2p+i} = -s h_i != 0 at the top i with
        h_i != 0; either way f is no key of the section."""
        spec = data.draw(st.sampled_from([F(7), F(11)]))
        p, q, n = spec.p, spec.q, spec.p ** 2
        elem = st.integers(0, q - 1)
        s = data.draw(st.integers(1, q - 1))
        low = data.draw(st.lists(elem, min_size=p - 3, max_size=p - 3))
        h = [*(low if data.draw(st.booleans()) else [0] * (p - 3)), 0, 0]
        g = [*data.draw(st.lists(elem, min_size=p - 2, max_size=p - 2)), s]
        f = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1))).encodings
        assert f[n - p] == s and f[n - p - 1] == 0 and f[n - p - 2] == 0
        if any(h):
            i = max(j for j in range(1, p - 2) if h[j - 1])
            assert f[n - 2 * p + i] == spec.neg_i(spec.mul_i(s, h[i - 1])) != 0
        else:
            assert not any(c for j, c in enumerate(f) if j % p)
        assert any(f[n - 2 * p + 1:n - p]) or f[n - 2 * p - 1] == 0

    @pytest.mark.parametrize("p,q", [(3, 9), (3, 27), (5, 5)])
    def test_section_at_weight_1_fails_verify(self, monkeypatch, p, q):
        at_weight_1(monkeypatch, lambda p: p * p - 2 * p - 2)
        assert not verify(run_census(p, q))

    @pytest.mark.parametrize("p,q", [(3, 9), (3, 27), (5, 5)])
    def test_h_p_minus_2_at_y_squared_fails_the_part_check(self, monkeypatch, p, q):
        """h_{p-2} = y^2 in place of (3/2) y^2.  Any fixed h_{p-2} picks one
        f per free shift orbit, with all of its pairs, so ``verify`` cannot
        tell; the part check against the full shard tables can."""
        def y_squared(spec, part, slices):
            low = spec.q ** (spec.p - 3)
            first = spec.q * low + low  # y = 1, h_{p-2} = 1
            return [(range(first, first + low), range(1, spec.q))]

        replace_slices(monkeypatch,
                       lambda spec, part: part.fixed == spec.p ** 2 - 2 * spec.p - 2,
                       y_squared)
        spec = F(p, round(math.log(q, p)))
        assert part_problems(spec, census._parts(spec)) != []

    @pytest.mark.parametrize("p,q", [(3, 9), (5, 5)])
    @pytest.mark.parametrize("fixed", [None, "section"])
    def test_g_p_minus_2_left_free_fails_verify(self, monkeypatch, p, q, fixed):
        """Every g_{p-2} in the section, or in the y^p = 1 slice of shard 1's
        weight-1 t = 0 part."""
        def which(spec, part):
            want = None if fixed is None else spec.p ** 2 - 2 * spec.p - 2
            return part.s == 1 and part.t_nonzero is False and part.fixed == want

        g_left_free(monkeypatch, which)
        assert not verify(run_census(p, q))


class TestShiftInShard0:
    """Shard 0, t = 0, p >= 5: the f with w2 = f_{n-2p-2} != 0 are one f per
    original-shift orbit, f_{n-2p-3} = 0, all pairs from h_{p-3} = 0 with
    g_{p-2}, h_{p-2} != 0; n = p^2."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_shift_keeps_w2_and_moves_next_by_2_w2_w(self, data):
        spec = data.draw(st.sampled_from([F(5), F(5, 2), F(7)]))
        p, q, n = spec.p, spec.q, spec.p ** 2
        mul = spec.mul_i
        elem = st.integers(0, q - 1)
        h = [*data.draw(st.lists(elem, min_size=p - 2, max_size=p - 2)), 0]
        g = [*data.draw(st.lists(elem, min_size=p - 2, max_size=p - 2)), 0]
        w = data.draw(elem)
        f = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1)))
        fw = original_shift(MonicOriginal(f), spec.elem(w)).poly.encodings
        f = f.encodings
        # s = 0, f_j = 0 for n-2p < j < n-p, and v = 0
        assert f[n - p] == 0 and not any(f[n - 2 * p + 1:n - p]) and f[n - 2 * p - 1] == 0
        w2 = f[n - 2 * p - 2]
        assert w2 == mul(p - 2, mul(g[-2], h[-2]))
        assert f[n - 2 * p - 3] == mul(p - 2, mul(g[-2], h[-3]))
        assert fw[n - 2 * p - 1] == 0 and fw[n - 2 * p - 2] == w2
        assert fw[n - 2 * p - 3] == spec.sub_i(f[n - 2 * p - 3], mul(2, mul(w2, w)))

    def test_section_at_weight_1_fails_verify(self, monkeypatch):
        at_weight_1(monkeypatch, lambda p: p * p - 2 * p - 3)
        assert not verify(run_census(5, 5))

    @pytest.mark.parametrize("fixed", [None, 12])
    def test_g_p_minus_2_left_free_fails_verify(self, monkeypatch, fixed):
        """Every g_{p-2} in the section, or where h_{p-2} != 0 in shard 0's
        weight-1 t = 0 part."""
        g_left_free(monkeypatch, lambda spec, part: part.s == 0
                    and part.t_nonzero is False and part.fixed == fixed)
        assert not verify(run_census(5, 5))


class TestScalingCosets:
    """Shard 0's t = 0 parts: the fibre c = f_{n-2p} = 0 and one fibre per
    coset of the (2p)-th powers in F_q*, weighted by the coset's size; the
    scaling maps the fibre c onto the fibre a^(-2p) c; n = p^2."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_scaling_moves_the_fibre_and_keeps_k_and_class(self, data):
        spec = data.draw(st.sampled_from([F(3, 2), F(3, 3), F(5), F(5, 2)]))
        p, q, n = spec.p, spec.q, spec.p ** 2
        # zeros often, so that p = 5 reaches colliding f too
        elem = st.one_of(st.just(0), st.integers(0, q - 1))
        inner = st.lists(elem, min_size=p - 2, max_size=p - 2)
        # y = h_{p-1} = 0 and g_{p-1} = 0: shard 0, t = 0
        h, g = [*data.draw(inner), 0], [*data.draw(inner), 0]
        a = data.draw(st.integers(1, q - 1))
        f = compose(Poly(spec, (0, *g, 1)), Poly(spec, (0, *h, 1)))
        # a^(-p^2) f(a x) by composition
        scaled = compose(f, Poly(spec, (0, a))) * Poly(spec, (spec.pow_i(a, -n),))
        c, c_scaled = f.encodings[n - 2 * p], scaled.encodings[n - 2 * p]
        assert c == spec.add_i(spec.pow_i(h[-2], p), g[-2])
        assert scaled.encodings[n - p] == scaled.encodings[n - p - 1] == 0
        assert c_scaled == spec.mul_i(spec.pow_i(a, -2 * p), c)
        f, scaled = MonicOriginal(f), MonicOriginal(scaled)
        assert len(enumerate_decompositions(scaled).collision.decomps) == \
            len(enumerate_decompositions(f).collision.decomps)
        assert classify(scaled).tag is classify(f).tag

    @pytest.mark.parametrize("p,q", [(3, 9), (3, 27), (5, 5)])
    def test_weight_1_for_the_coset_size_fails_verify(self, monkeypatch, p, q):
        parts = census._parts

        def unweighted(spec):
            return [(part._replace(weight=part.weight * 2 // (spec.q - 1))
                     if part.c_nonzero else part, slices) for part, slices in parts(spec)]

        monkeypatch.setattr(census, "_parts", unweighted)
        assert not verify(run_census(p, q))

    @staticmethod
    def only_fibres(monkeypatch, keep):
        """Keep the slices of the coset parts whose fibre c passes ``keep``."""
        def fibres(spec, part, slices):
            low = spec.q ** (spec.p - 3)
            return [(hs, gs) for hs, gs in slices if keep(spec.add_i(
                gs.start, spec.pow_i(hs[0] // low % spec.q, spec.p)))]

        replace_slices(monkeypatch, lambda spec, part: part.c_nonzero, fibres)

    @pytest.mark.parametrize("p,q", [(3, 9), (3, 27), (5, 5)])
    def test_one_coset_missing_fails_verify(self, monkeypatch, p, q):
        self.only_fibres(monkeypatch, lambda c: c == 1)
        assert not verify(run_census(p, q))

    @pytest.mark.parametrize("p,q", [(3, 9), (3, 27), (5, 5)])
    def test_cosets_of_pth_powers_fail_the_part_check(self, monkeypatch, p, q):
        """The p-th powers are all of F_q*, so their one coset would keep
        the fibre c = 1 alone at weight q - 1.  Every c != 0 fibre of these
        parts has the same (k, class) histogram, so ``verify`` cannot tell;
        the part check against the full shard tables can."""
        self.only_fibres(monkeypatch, lambda c: c == 1)
        parts = census._parts

        def one_coset(spec):
            return [(part._replace(weight=part.weight * 2) if part.c_nonzero else part,
                     slices) for part, slices in parts(spec)]

        monkeypatch.setattr(census, "_parts", one_coset)
        spec = F(p, round(math.log(q, p)))
        assert part_problems(spec, census._parts(spec)) != []
        assert verify(run_census(p, q))


class TestVerify:
    def test_all_fields_verify(self, census_reports):
        for r in census_reports.values():
            assert verify(r), (r.p, r.q, r.mismatches)

    def test_perturbed_report_fails(self, census_reports):
        r = copy.deepcopy(census_reports[(2, 2)])
        r.spectrum_observed[2] += 1
        assert not verify(r)

    def test_perturbed_report_lists_its_mismatches(self, census_reports):
        r = copy.deepcopy(census_reports[(2, 2)])
        r.spectrum_observed[2] += 1
        payload = r.to_json()
        assert not payload["verified"]
        pred = r.spectrum_predicted
        kinds = {(m["kind"], m["where"]): (m["observed"], m["predicted"])
                 for m in payload["mismatches"]}
        assert kinds[("spectrum", "k=2")] == (str(pred.c(2) + 1), str(pred.c(2)))
        assert ("mass", "sum k*c_k") in kinds

    @pytest.mark.parametrize("q", [256, 512, 1024, 4096])
    def test_larger_p2_fields(self, q):
        r = run_census(2, q)
        assert verify(r), r.mismatches
        assert class_partition_check(r)
        assert r.decomposable_observed == (2 * q * q + 1) // 3

    def test_3_729(self):
        """The largest census the tests run: a few seconds, under 300 MB."""
        r = run_census(3, 729)
        assert verify(r), r.mismatches
        assert class_partition_check(r)

    def test_5_5_anchor(self, census_reports):
        r = census_reports[(5, 5)]
        assert verify(r)
        assert r.spectrum_predicted.c(2) == 624 + 66 + 30


class TestClassPartition:
    def test_all_fields(self, census_reports):
        for r in census_reports.values():
            assert class_partition_check(r), (r.p, r.q)

    def test_2_8_breakdown(self, census_reports):
        r = census_reports[(2, 8)]
        assert r.class_spectrum["F"] == {2: 7}
        assert r.class_spectrum["S"] == {3: 7}
        assert r.class_counts["M"] == 0

    def test_5_5_multiply_count(self, census_reports):
        assert census_reports[(5, 5)].class_counts["M"] == 30

    def test_perturbed_breakdown_fails(self, census_reports):
        r = copy.deepcopy(census_reports[(3, 3)])
        r.class_spectrum["S"][2] -= 1
        r.class_spectrum["M"][2] = 1
        assert not class_partition_check(r)


class TestHelpers:
    def test_index_round_trip(self):
        spec = F(3)
        seen = set()
        for idx in range(9):
            f = mo_index_to_poly(spec, idx, 3)
            seen.add(f.poly.encodings)
        assert len(seen) == 9

    def test_unpack_pair(self, census_reports):
        r = census_reports[(2, 4)]
        key = next(iter(r.colliding_pairs))
        packed = r.colliding_pairs[key][0]
        d = unpack_pair(r.field_spec, packed, 2)
        assert d.compose() == poly_of_key(r.field_spec, key, 2)

    def test_report_json_shape(self, census_reports):
        js = census_reports[(2, 4)].to_json()
        assert js["verified"] is True
        assert js["class_partition_ok"] is True
        assert js["spectrum_observed"] == js["spectrum_predicted"]
        assert js["decomposable_observed"] == js["decomposable_predicted"] == 11

    @pytest.mark.parametrize("p,q", [(2, 4), (3, 9), (5, 5)])
    def test_report_json_shards(self, census_reports, p, q):
        # (2, 4): q^(2p-3) = 4 pairs per shard.
        # (3, 9): e = gcd(4, 8) = 4 values of y with y^4 = 1, so shard 0's
        # t != 0 part has weight 9 * 8 / 4.  9 g per h, or 1 with g_1 = 0, or
        # 8 with g_1 != 0: shard 0 has 9 h at y = 0 and 4 at t != 0; shard 1
        # has 9 h at y = 0 and 9 at y = 1 with g_1 = 0 at weight 8, the h
        # with y = 1 and h_1 = 0 with g_1 != 0 at weight 8 * 9 (fixing
        # f_1), and 7 h at t != 0.
        # Shard 0's t = 0 pairs come in the fibre c = f_{p^2-2p} = 0 and in
        # the fibres c = 1 and c = 2 (one per coset of the squares, the
        # (2p)-th powers) at weight (q-1)/2, with g_{p-2} = c - h_{p-2}^p:
        # at (3, 9) 9 h with one g_1 each per fibre.
        # (5, 5): e = gcd(6, 4) = 2 (y = 1, 4), weight 5 * 4 / 2.  125 g per
        # h, or 25 with g_3 fixed.  Shard 0 at y = 0, per fibre c: 25 h with
        # h_3 = 0, and for c != 0 the 25 with h_3^5 = c, with 25 g each; at
        # weight q, fixing f_12, the 20 or 15 h with h_2 = 0 and
        # h_3^5 != 0, c with 25 g each; 2 * 25 h at t != 0.  Shard 1:
        # 25 h at y = 0 with h_3 = 0 and 125 at y = 1 with g_3 = 0; 20 at
        # y = 0 with h_3 != 0 and h_2 = 0 (fixing f_17); 25 at y = 1 with
        # h_3 = 3/2 = 4 and g_3 != 0 (fixing f_13); 3 * 25 h at t != 0.
        shards, pairs = {
            (2, 4): ([{"s": 0, "weight": 1, "pairs": 4},
                      {"s": 1, "weight": 3, "pairs": 4}], 8),
            (3, 9): ([{"s": 0, "t_nonzero": False, "c_nonzero": False, "weight": 1,
                       "pairs": 9},
                      {"s": 0, "t_nonzero": False, "c_nonzero": True, "weight": 4,
                       "pairs": 2 * 9},
                      {"s": 0, "t_nonzero": True, "fixed": 4, "weight": 18,
                       "pairs": 4 * 9},
                      {"s": 1, "t_nonzero": False, "weight": 8, "pairs": 9 * 9 + 9},
                      {"s": 1, "t_nonzero": False, "fixed": 1, "weight": 72,
                       "pairs": 8},
                      {"s": 1, "t_nonzero": True, "fixed": 4, "weight": 72,
                       "pairs": 7 * 9}],
                     9 + 18 + 36 + 90 + 8 + 63),
            (5, 5): ([{"s": 0, "t_nonzero": False, "c_nonzero": False, "weight": 1,
                       "pairs": 25 * 25},
                      {"s": 0, "t_nonzero": False, "c_nonzero": True, "weight": 2,
                       "pairs": 2 * (25 + 25) * 25},
                      {"s": 0, "t_nonzero": False, "c_nonzero": False, "fixed": 12,
                       "weight": 5, "pairs": 20 * 25},
                      {"s": 0, "t_nonzero": False, "c_nonzero": True, "fixed": 12,
                       "weight": 10, "pairs": 2 * 15 * 25},
                      {"s": 0, "t_nonzero": True, "fixed": 18, "weight": 10,
                       "pairs": 50 * 125},
                      {"s": 1, "t_nonzero": False, "weight": 4,
                       "pairs": 25 * 125 + 125 * 25},
                      {"s": 1, "t_nonzero": False, "fixed": 17, "weight": 20,
                       "pairs": 20 * 125},
                      {"s": 1, "t_nonzero": False, "fixed": 13, "weight": 20,
                       "pairs": 25 * 100},
                      {"s": 1, "t_nonzero": True, "fixed": 18, "weight": 20,
                       "pairs": 75 * 125}],
                     625 + 2500 + 500 + 750 + 6250 + 6250 + 2500 + 2500 + 9375),
        }[(p, q)]
        js = census_reports[(p, q)].to_json()
        assert js["shards"] == shards
        assert js["pairs_enumerated"] == pairs

    def test_shard_pairs_sum_to_pairs_enumerated(self, census_reports):
        """Each part's ``pairs`` is what its slices enumerate, and they sum
        to ``pairs_enumerated``."""
        for (p, q), r in census_reports.items():
            js = r.to_json()
            assert sum(part["pairs"] for part in js["shards"]) == \
                js["pairs_enumerated"] == enumerated_pairs(p, q)
            assert [part["pairs"] for part in js["shards"]] == \
                [sum(len(hs) * g_count(p, q, gs) for hs, gs in slices)
                 for _, slices in census._parts(r.field_spec)]
