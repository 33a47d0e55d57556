"""Acceptance suite: one test per verification criterion, zero tolerance.

Census fields: (2,2) (2,4) (2,8) (2,16) (3,3) (3,9) (3,27) (5,5).
Each test prints a PASS line with the headline numbers it checked.
"""

import random

import pytest

from wildcomp import (CollisionTag, MultiplyParams, Poly, SimplyParams,
                      build_M, build_S, classify, class_partition_check,
                      compose, count_decomposable, decompositions_S,
                      derivative, evaluate, field_new, identify_multiply,
                      identify_simply, left_divide, original_shift,
                      root_set_T, verify)
from wildcomp.census import unpack_pair
from wildcomp.constructions import M_derivative_factored
from wildcomp.decomp_core import MonicOriginal
from wildcomp.identify import enumerate_decompositions

from conftest import (CENSUS_FIELDS, F, count_roots_in_field, key_of,
                      random_monic_original, shard_union, t_poly)

ANCHORS = {
    (2, 4): {"c": {2: 3, 3: 1}, "D": 11},
    (2, 8): {"c": {}, "D": 43},
    (3, 3): {"c": {2: 12}, "D": 69},
    (3, 9): {"c": {2: 240, 4: 20}, "D": 6261},
    (5, 5): {"c": {2: 720, 6: 0}, "D": 389905},
}


def test_criterion_1_census_formula_agreement(census_reports):
    for (p, q) in CENSUS_FIELDS:
        report = census_reports[(p, q)]
        assert verify(report), (p, q, report.mismatches)
        assert class_partition_check(report), (p, q)
        assert report.spectrum_observed == report.spectrum_predicted.nonzero() \
            or all(report.spectrum_observed.get(k, 0) == report.spectrum_predicted.c(k)
                   for k in set(report.spectrum_observed)
                   | set(report.spectrum_predicted.counts))
        anchors = ANCHORS.get((p, q), {})
        for k, v in anchors.get("c", {}).items():
            assert report.spectrum_observed.get(k, 0) == v, (p, q, k)
        if "D" in anchors:
            assert report.decomposable_observed == anchors["D"], (p, q)
    print("\nACCEPTANCE 1 PASS: observed spectra match the closed forms "
          f"exactly on all {len(CENSUS_FIELDS)} census fields")


def test_criterion_2_degree_four_count(census_reports):
    for q in (2, 4, 8, 16):
        exact = count_decomposable(2, q)
        assert 3 * exact == 2 * q * q + 1, q  # q^2 (2 + q^-2) / 3
        assert census_reports[(2, q)].decomposable_observed == exact
    print("\nACCEPTANCE 2 PASS: #D_4(F_q) = q^2(2+q^-2)/3 for q in {2,4,8,16}, "
          "by formula and by census")


def test_criterion_3_classification_trichotomy(census_reports, full_colliding,
                                               classifications):
    import itertools
    checked_collisions = 0
    checked_exhaustive = 0
    checked_singletons = 0
    checked_random = 0
    rng = random.Random(1234)
    for (p, q) in CENSUS_FIELDS:
        report = census_reports[(p, q)]
        every_colliding = full_colliding[(p, q)]
        spec = report.field_spec
        xpp = Poly.monomial(spec, p * p)
        # every f with >= 2 decompositions: exactly one of the three cases
        for key in every_colliding:
            f = report.poly_of_key(key)
            is_frob = derivative(f.poly).is_zero and f.poly != xpp
            sm = identify_simply(f, p)
            mm = identify_multiply(f, p)
            hits = [is_frob, sm is not None and sm.k >= 2, mm is not None]
            assert sum(hits) == 1, (p, q, str(f), hits)
            assert classifications[(p, q)][key].tag is not CollisionTag.NONE
            checked_collisions += 1
        if q ** (p * p - 1) <= 8192:
            # whole space enumerable: classify every f in P_{p^2}(F_q)
            for inner in itertools.product(range(q), repeat=p * p - 1):
                f = MonicOriginal(Poly(spec, (0, *inner, 1)))
                key = key_of(f.poly)
                colliding = key in every_colliding
                tag = classify(f).tag
                assert (tag is not CollisionTag.NONE) == colliding, \
                    (p, q, str(f), tag, colliding)
                checked_exhaustive += 1
        else:
            # f with exactly one decomposition must classify as none; taken
            # in order of first enumeration, h index then g index
            big_q = q ** (p - 1)
            table = shard_union(spec)
            singles = sorted((key for key, pr in table.items() if type(pr) is int),
                             key=lambda key: (table[key] % big_q, table[key]))
            if len(singles) > 2000:
                singles = rng.sample(singles, 500)
            for key in singles:
                assert classify(report.poly_of_key(key)).tag is CollisionTag.NONE
                checked_singletons += 1
            # random polynomials, membership checked against the census table
            for _ in range(1000):
                f = random_monic_original(rng, spec, p * p)
                key = key_of(f.poly)
                colliding = key in every_colliding
                tag = classify(f).tag
                assert (tag is not CollisionTag.NONE) == colliding, \
                    (p, q, str(f), tag, colliding)
                checked_random += 1
    print(f"\nACCEPTANCE 3 PASS: trichotomy exact on {checked_collisions} "
          f"colliding polynomials, {checked_exhaustive} exhaustively "
          f"classified where the whole space fits, {checked_singletons} "
          f"singletons and {checked_random} random samples elsewhere, "
          f"zero exceptions")


def test_criterion_4_maximality(census_reports, full_colliding, classifications):
    checked = 0
    for (p, q) in CENSUS_FIELDS:
        report = census_reports[(p, q)]
        for key, packed in full_colliding[(p, q)].items():
            cls = classifications[(p, q)][key]
            observed = {unpack_pair(report.field_spec, pr, p) for pr in packed}
            if cls.tag is CollisionTag.SIMPLY:
                expected = cls.simply.k
            else:
                expected = 2
            assert len(observed) == len(packed) == expected, (p, q, key)
            res = enumerate_decompositions(report.poly_of_key(key))
            assert res.complete
            assert set(res.collision.decomps) == observed, (p, q, key)
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: decomposition counts and sets maximal "
          f"(2 for F/M, #T for S) on {checked} colliding polynomials")


# Algorithm-1 round-trip matrix: every power r of p with r <= q and
# r^2 <= 729 (the desk-scale degree bound); 1000 trials in total.
_SIMPLY_COMBOS = [
    (4, 2), (4, 4), (8, 2), (8, 4), (8, 8), (9, 3), (9, 9),
    (27, 3), (27, 9), (27, 27), (25, 5), (25, 25), (49, 7),
]
_MULTIPLY_COMBOS = [(5, 5), (25, 5), (7, 7), (49, 7),
                    (8, 8), (64, 8), (9, 9), (81, 9)]


def _field_of_order(q):
    p = 2
    while q % p:
        p += 1
    d = 0
    qq = q
    while qq > 1:
        qq //= p
        d += 1
    return field_new(p, d)


def test_criterion_5_round_trip_identification():
    rng = random.Random(20260810)
    share, extra = divmod(1000, len(_SIMPLY_COMBOS))
    trials = 0
    for i, (q, r) in enumerate(_SIMPLY_COMBOS):
        spec = _field_of_order(q)
        divisors = [d for d in range(1, r) if (r - 1) % d == 0]
        for _ in range(share + (1 if i < extra else 0)):
            params = SimplyParams(spec.elem(rng.randrange(1, q)),
                                  spec.elem(rng.randrange(1, q)),
                                  rng.randrange(2), rng.choice(divisors), r)
            w = spec.elem(rng.randrange(q))
            f = original_shift(build_S(params), w)
            got = identify_simply(f, r)
            assert got is not None, (q, r, params, w)
            rebuilt = original_shift(
                build_S(SimplyParams(got.u, got.s, got.eps, got.m, r)), got.w)
            assert rebuilt == f, (q, r, params, w)
            trials += 1
    assert trials == 1000

    share, extra = divmod(1000, len(_MULTIPLY_COMBOS))
    mtrials = 0
    for i, (q, r) in enumerate(_MULTIPLY_COMBOS):
        spec = _field_of_order(q)
        ms = [m for m in range(2, r - 1) if m % spec.p]
        for _ in range(share + (1 if i < extra else 0)):
            while True:
                b = spec.elem(rng.randrange(1, q))
                a = spec.elem(rng.randrange(1, q))
                if a != b ** r:
                    break
            params = MultiplyParams(a, b, rng.choice(ms), r)
            w = spec.elem(rng.randrange(q))
            f = original_shift(build_M(params)[0], w)
            got = identify_multiply(f, r)
            assert got is not None, (q, r, params, w)
            rebuilt = original_shift(
                build_M(MultiplyParams(got.a, got.b, got.m, r))[0], got.w)
            assert rebuilt == f, (q, r, params, w)
            mtrials += 1
    assert mtrials == 1000
    print("\nACCEPTANCE 5 PASS: 1000 simply + 1000 multiply construct->shift->"
          "identify trials reconstructed their inputs exactly")


def test_criterion_6_construction_identities():
    rng = random.Random(77)
    import itertools

    # S-pairs compose to the built polynomial; h coefficients distinguish them
    s_checked = 0
    for spec, r in [(F(2), 2), (F(3), 3), (F(2, 2), 2), (F(2, 2), 4), (F(5), 5)]:
        for uv, sv, eps in itertools.product(range(1, spec.q),
                                             range(1, spec.q), (0, 1)):
            for m in (d for d in range(1, r) if (r - 1) % d == 0):
                params = SimplyParams(spec.elem(uv), spec.elem(sv), eps, m, r)
                col = decompositions_S(params)  # validates g(h) = f per pair
                assert col.f == build_S(params)
                assert col.k == len(root_set_T(params))
                s_checked += 1
    for spec, r in [(F(2, 3), 8), (F(3, 2), 9), (F(5, 2), 25), (F(3, 3), 27)]:
        for _ in range(25):
            divisors = [d for d in range(1, r) if (r - 1) % d == 0]
            params = SimplyParams(spec.elem(rng.randrange(1, spec.q)),
                                  spec.elem(rng.randrange(1, spec.q)),
                                  rng.randrange(2), rng.choice(divisors), r)
            col = decompositions_S(params)
            assert col.f == build_S(params)
            s_checked += 1

    # M identity g o h = g* o h* and the factored derivative
    m_checked = 0
    for spec, r in [(F(5), 5), (F(7), 7), (F(2, 3), 8), (F(3, 2), 9),
                    (F(5, 2), 5)]:
        ms = [m for m in range(2, r - 1) if m % spec.p]
        for _ in range(25):
            while True:
                b = spec.elem(rng.randrange(1, spec.q))
                a = spec.elem(rng.randrange(1, spec.q))
                if a.val and a != b ** r:
                    break
            params = MultiplyParams(a, b, rng.choice(ms), r)
            f, col = build_M(params)  # validates both compositions equal f
            assert col.k == 2
            assert M_derivative_factored(params) == derivative(f.poly)
            m_checked += 1

    # shift group action, exhaustively over P_4(F_4)
    spec = F(2, 2)
    import itertools as it
    for inner in it.product(range(4), repeat=3):
        f = MonicOriginal(Poly(spec, (0, *inner, 1)))
        for w1 in spec:
            for w2 in spec:
                assert original_shift(original_shift(f, w1), w2) == \
                    original_shift(f, w1 + w2)
        for w in spec:
            assert derivative(original_shift(f, w).poly) == \
                compose(derivative(f.poly), Poly(spec, (w.val, 1)))

    # left_divide inverts compose on the full P_p(F_q)^2 at (2,4) and (3,3)
    inversions = 0
    for p, d in [(2, 2), (3, 1)]:
        spec = F(p, d)
        mos = [MonicOriginal(Poly(spec, (0, *inner, 1)))
               for inner in it.product(range(spec.q), repeat=p - 1)]
        for g in mos:
            for h in mos:
                f = MonicOriginal(compose(g.poly, h.poly))
                assert left_divide(f, h) == g
                inversions += 1
    print(f"\nACCEPTANCE 6 PASS: {s_checked} S tuples, {m_checked} M tuples, "
          f"shift laws on P_4(F_4), {inversions} left-division inversions")


def test_criterion_7_root_count_dual_path():
    rng = random.Random(4242)
    fields = [F(2), F(3), F(2, 2), F(5), F(7), F(2, 3), F(3, 2), F(2, 4),
              F(5, 2), F(3, 3), F(7, 2), F(2, 6), F(3, 4)]
    total = 10_000
    per_field, extra = divmod(total, len(fields))
    checked = 0
    for i, spec in enumerate(fields):
        n = per_field + (1 if i < extra else 0)
        for _ in range(n):
            deg = rng.randrange(1, 9)
            enc = [rng.randrange(spec.q) for _ in range(deg)]
            enc.append(rng.randrange(1, spec.q))
            f = Poly(spec, enc)
            brute = sum(1 for v in range(spec.q)
                        if evaluate(f, spec.elem(v)).val == 0)
            assert count_roots_in_field(f) == brute
            checked += 1
    assert checked == total
    print(f"\nACCEPTANCE 7 PASS: the gcd root-count oracle agrees with "
          f"exhaustive evaluation on {checked} random polynomials (q <= 81)")


def test_criterion_7_census_root_counts(full_colliding, classifications):
    # k from the root table in identify_simply, the roots T themselves,
    # the gcd oracle on y^(p+1) - eps*u*y + u, and the pairs the census
    # tabulation found for f all agree
    checked = 0
    for (p, q) in CENSUS_FIELDS:
        for key, cls in classifications[(p, q)].items():
            if cls.tag is not CollisionTag.SIMPLY:
                continue
            sm = cls.simply
            spec = sm.u.spec
            roots = root_set_T(SimplyParams(sm.u, sm.s, sm.eps, sm.m, p))
            oracle = count_roots_in_field(t_poly(spec, sm.u.val, sm.eps, p))
            assert sm.k == len(roots) == oracle \
                == len(full_colliding[(p, q)][key]), (p, q, key)
            assert all(evaluate(t_poly(spec, sm.u.val, sm.eps, p), t).val == 0
                       for t in roots), (p, q, key)
            checked += 1
    assert checked
    print(f"\nACCEPTANCE 7 PASS: root counts of {checked} S-classified census "
          f"polynomials agree across the root table, the gcd oracle and the "
          f"census")
