import copy
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import census, classify, run_census, verify, class_partition_check
from wildcomp.census import (PAIR_LIMIT, TooLarge, _shard_tables,
                             enumerated_pairs, mo_index_to_poly, poly_of_key,
                             unpack_pair)
from wildcomp.decomp_core import MonicOriginal, original_shift
from wildcomp.gf import _is_prime
from wildcomp.identify import CollisionTag
from wildcomp.polyring import Poly, compose

from conftest import CENSUS_FIELDS, F, every_h, key_of, pair_count, shard_union

# Fields for the shard properties, F_2^9 with nine key bytes per coefficient
# and F_3^3 with three F_3 basis vectors per level among them.
SHARD_FIELDS = [F(2, 3), F(3, 2), F(3, 3), F(5), F(2, 9)]
# Fields for the original-shift lemma, p in {3, 5, 7}.
SHIFT_FIELDS = [F(3), F(3, 2), F(3, 3), F(5), F(5, 2), F(7)]


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
        for p, q in [(5, 25), (7, 7), (3, 2187)]:
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
        for p, q in [(2, 4), (3, 9)]:
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
        # and 1, in part order: for odd p the f with t = f_{p^2-p-1} = 0, then
        # those with t != 0 and f_{p^2-p-2} = 0, per shard
        def enumerated(key):
            f = poly_of_key(r.field_spec, key, p).poly.encodings
            n = p * p
            return f[n - p] < 2 and (p == 2 or f[n - p - 1] == 0 or f[n - p - 2] == 0)

        assert list(r.colliding_pairs.items()) == \
            [(key, tuple(prs)) for key, prs in colliding.items() if enumerated(key)]

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
        for s, table in _shard_tables(spec, every_h(spec, range(300, 304))):
            for key, pairs in table.items():
                assert len(key) == 3 * 9
                f = poly_of_key(spec, key, 2)
                assert key_of(f.poly) == key
                assert f.poly.encodings[2] == s
                for pr in [pairs] if type(pairs) is int else pairs:
                    assert unpack_pair(spec, pr, 2).compose() == f

    def test_digit_sums_fit_a_byte_under_pair_limit(self):
        """Every field PAIR_LIMIT admits sums the d(p-2) + 2 F_p digits that
        make up one key byte without a carry, so PAIR_LIMIT is the only
        bound on a census."""
        admitted = []
        for p in filter(_is_prime, range(2, PAIR_LIMIT.bit_length() // 2 + 2)):
            d = 1
            while enumerated_pairs(p, p ** d) <= PAIR_LIMIT:
                admitted.append((p, d))
                d += 1
        assert all((p - 1) * (d * (p - 2) + 2) <= 255 for p, d in admitted)
        # (p, d): F_27, F_81, F_243, F_729, F_5 and F_2^16 among the admitted;
        # F_2187, F_25 and F_7 are not
        assert {(3, 3), (3, 4), (3, 5), (3, 6), (5, 1), (2, 16)} <= set(admitted)
        assert not {(3, 7), (5, 2), (7, 1)} & set(admitted)


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
        ((got, table),) = _shard_tables(spec, every_h(spec, [s]))
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
                    _shard_tables(spec, every_h(spec, range(spec.q)))]
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
        want = 2 * q if p == 2 else 3 * q ** (2 * p - 4) + (2 * q - 3) * q ** (2 * p - 5)
        assert r.pairs_enumerated == enumerated_pairs(p, q) == want


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
        n, d = p * p, spec.d
        parts = census._parts(spec)
        assert [(part.s, part.t_nonzero) for part, _ in parts] == \
            [(0, False), (0, True), (1, False), (1, True)]

        def nonzero_at(key, j):
            """f_j != 0, read from its d digit bytes in the key."""
            return any(key[(j - 1) * d:j * d])

        for s, full in _shard_tables(spec, every_h(spec, [0, 1])):
            zero, nonzero = (table for part, hs in parts if part.s == s
                             for _, table in _shard_tables(spec, [(s, hs)]))
            # the t = 0 part is the shard's t = 0 f, each with all its pairs
            assert zero == {key: prs for key, prs in full.items()
                            if not nonzero_at(key, n - p - 1)}
            # the t != 0 part is the shard's t != 0 f with f_{p^2-p-2} = 0,
            # with all their pairs, and stands for q times as many f of each k
            assert nonzero == {key: prs for key, prs in full.items()
                               if nonzero_at(key, n - p - 1)
                               and not nonzero_at(key, n - p - 2)}
            orbits = Counter(pair_count(prs) for key, prs in full.items()
                             if nonzero_at(key, n - p - 1))
            assert orbits == Counter({k: q * c for k, c in
                                      Counter(map(pair_count, nonzero.values())).items()})
        shard_weight = {0: 1, 1: q - 1}
        assert [part.weight for part, _ in parts] == \
            [shard_weight[part.s] * (q if part.t_nonzero else 1) for part, _ in parts]

    @pytest.mark.parametrize("p,q", [(3, 9), (5, 5)])
    def test_weight_one_for_t_nonzero_fails_verify(self, monkeypatch, p, q):
        parts = census._parts

        def unweighted(spec):
            return [(part._replace(weight=part.weight // spec.q)
                     if part.t_nonzero else part, hs) for part, hs in parts(spec)]

        monkeypatch.setattr(census, "_parts", unweighted)
        assert not verify(run_census(p, q))

    @pytest.mark.parametrize("p,q", [(3, 9), (5, 5)])
    def test_wrong_h_rule_fails_verify(self, monkeypatch, p, q):
        part_hs = census._part_hs

        def off_by_one(spec, s):
            """h_{p-2} = y^2 + 1 in the t != 0 part instead of y^2."""
            zero, nonzero = part_hs(spec, s)
            low = spec.q ** (spec.p - 3)
            digit = [(idx // low) % spec.q for idx in nonzero]
            return zero, [idx + (spec.add_i(c, 1) - c) * low
                          for idx, c in zip(nonzero, digit)]

        monkeypatch.setattr(census, "_part_hs", off_by_one)
        assert not verify(run_census(p, q))

    def test_workers_precompute_only_their_parts_h(self, monkeypatch):
        seen = []
        inner = census.mo_index_to_inner

        def recording(hidx, q, p):
            seen.append(hidx)
            return inner(hidx, q, p)

        monkeypatch.setattr(census, "mo_index_to_inner", recording)
        spec = F(3, 3)
        for s in (0, 1):
            shard = [(s, hs) for part, hs in census._parts(spec) if part.s == s]
            seen.clear()
            census._tabulate_shards(3, 3, shard)
            used = {h for _, hs in shard for h in hs}
            assert sorted(seen) == sorted(used)


class TestVerify:
    def test_all_fields_verify(self, census_reports):
        for r in census_reports.values():
            assert verify(r), (r.p, r.q, r.mismatches)

    def test_perturbed_report_fails(self, census_reports):
        r = copy.deepcopy(census_reports[(2, 2)])
        r.spectrum_observed[2] += 1
        assert not verify(r)

    @pytest.mark.parametrize("q", [256, 512, 1024, 4096])
    def test_larger_p2_fields(self, q):
        r = run_census(2, q)
        assert verify(r), r.mismatches
        assert class_partition_check(r)
        assert r.decomposable_observed == (2 * q * q + 1) // 3

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

    @pytest.mark.parametrize("p,q", [(2, 4), (3, 9)])
    def test_report_json_shards(self, census_reports, p, q):
        shards, pairs = {
            (2, 4): ([{"s": 0, "weight": 1}, {"s": 1, "weight": 3}], 8),
            (3, 9): ([{"s": 0, "t_nonzero": False, "weight": 1},
                      {"s": 0, "t_nonzero": True, "weight": 9},
                      {"s": 1, "t_nonzero": False, "weight": 8},
                      {"s": 1, "t_nonzero": True, "weight": 72}], 3 * 81 + 15 * 9),
        }[(p, q)]
        js = census_reports[(p, q)].to_json()
        assert js["shards"] == shards
        assert js["pairs_enumerated"] == pairs
