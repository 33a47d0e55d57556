"""Exhaustive composition census at degree p^2 over F_q.

Counts, through two enumerated shards, all q^(2p-2) pairs (g, h) of
degree-p monic originals, groups the compositions, and compares the
observed maximal-collision spectrum and class breakdown against the exact
closed forms.  This is the ground-truth oracle for the counting module and
for the classifier.

Monic originals of degree p are indexed by the base-q little-endian
encoding of their inner coefficients (c_1, ..., c_{p-1}); a pair (g, h) is
packed as g_index * q^(p-1) + h_index.

A composition f is keyed by the F_p digits of its inner coefficients
(f_1, ..., f_{p^2-1}), one byte per digit: d = log_p q bytes per
coefficient, lowest digit first, so f_j takes bytes [(j-1)d, jd) of the
key.  The same layout serves every p and q.  For odd p, the keys of each
h in a shard are built from multiples m z^k h^i over an F_p basis z^k of
F_q, and each key is reduced mod p once (``_shard_tables``).

The pairs fall into q shards keyed by f_{p^2-p}, which equals
h_{p-1}^p + g_{p-1}: shard s takes g_{p-1} = s - h_{p-1}^p for every h, so
the shards are disjoint in f and equal in size.  A shard's table maps a key
to its bare packed pair while f has one decomposition, as most f do, and to
a list of packed pairs from the second on.  Only the number of distinct f
and the colliding f with their pairs leave a shard; no table of the
non-colliding f is kept.

Only shards 0 and 1 are enumerated.  For a != 0 the scaling
(g, h) -> (a^(-p^2) g(a^p y), a^(-p) h(a x)) is a bijection of pairs that
sends f to a^(-p^2) f(a x), so it moves shard s onto shard a^(-p) s and
keeps each f's number of decompositions and its collision class.  Every
s != 0 is a^p for one a, so each shard s != 0 is a copy of shard 1, and
every census total is shard 0 plus (q - 1) times shard 1.  ``threads > 1``
runs the two shards in two worker processes.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from . import counting
from .counting import Spectrum, _log_base
from .decomp_core import (Decomposition, MonicOriginal, mo_index_to_inner,
                          mo_index_to_poly)
from .gf import FieldSpec, field_new
from .identify import CollisionTag, classify
from .polyring import Poly, _mul_raw, format_poly

# Runs that would enumerate more pairs than this, in shards 0 and 1, are
# refused outright.  Every field it admits has (p-1)(d(p-2)+2) <= 255, so
# the digit sums of a key byte never carry (see ``_shard_tables``).
PAIR_LIMIT = 1 << 24


class TooLarge(Exception):
    pass


def unpack_pair(spec: FieldSpec, packed: int, p: int) -> Decomposition:
    big_q = spec.q ** (p - 1)
    gidx, hidx = divmod(packed, big_q)
    return Decomposition(mo_index_to_poly(spec, gidx, p),
                         mo_index_to_poly(spec, hidx, p))


def poly_of_key(spec: FieldSpec, key: bytes, p: int) -> MonicOriginal:
    """The monic original of degree p^2 whose census key is ``key``."""
    d = spec.d
    inner = tuple(spec.encode_coeffs(key[i:i + d]) for i in range(0, len(key), d))
    return MonicOriginal(Poly(spec, (0,) + inner + (1,)))


@dataclass
class Mismatch:
    kind: str
    where: str
    observed: Any
    predicted: Any

    def to_json(self) -> dict:
        return {"kind": self.kind, "where": self.where,
                "observed": str(self.observed), "predicted": str(self.predicted)}


@dataclass
class CensusReport:
    p: int
    q: int
    spectrum_observed: dict[int, int]
    spectrum_predicted: Spectrum
    class_counts: dict[str, int]
    class_spectrum: dict[str, dict[int, int]]
    decomposable_observed: int
    mismatches: list[Mismatch]
    # shard s enumerated -> number of shards it stands for
    shard_weights: dict[int, int]
    pairs_enumerated: int
    # colliding f and their packed pairs, kept for cross-checks; not part
    # of the serialized report
    field_spec: FieldSpec = field(repr=False)
    colliding_pairs: dict = field(repr=False)

    def poly_of_key(self, key) -> MonicOriginal:
        return poly_of_key(self.field_spec, key, self.p)

    def decompositions_of_key(self, key) -> set[Decomposition]:
        return {unpack_pair(self.field_spec, pr, self.p)
                for pr in self.colliding_pairs[key]}

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "spectrum_observed": {str(k): v for k, v in
                                  sorted(self.spectrum_observed.items())},
            "spectrum_predicted": {str(k): v for k, v in
                                   sorted(self.spectrum_predicted.counts.items())},
            "class_counts": {t: self.class_counts.get(t, 0) for t in "FSM"},
            "class_spectrum": {t: {str(k): v for k, v in sorted(ks.items())}
                               for t, ks in self.class_spectrum.items()},
            "decomposable_observed": self.decomposable_observed,
            "decomposable_predicted": self.spectrum_predicted.d_total,
            "shards": [{"s": s, "weight": w}
                       for s, w in self.shard_weights.items()],
            "pairs_enumerated": self.pairs_enumerated,
            "mismatches": [m.to_json() for m in self.mismatches],
            "verified": verify(self),
            "class_partition_ok": class_partition_check(self),
        }


def _digit_table(spec: FieldSpec) -> list[int]:
    """``digits[e]`` packs the F_p digits of encoding e one per byte,
    lowest first, as a little-endian integer."""
    digits = [0]
    for k in range(spec.d):
        digits = [v | c << 8 * k for c in range(spec.p) for v in digits]
    return digits


def _shard_tables(spec: FieldSpec, lo: int, hi: int) -> Iterator[tuple[int, dict]]:
    """Yield ``(s, table)`` for each shard s in [lo, hi), in order.

    Shard s holds the pairs (g, h) with h_{p-1}^p + g_{p-1} = s, which is
    the coefficient f_{p^2-p} of f = g o h, so the shards are key-disjoint
    and each holds q^(2p-3) pairs.  Its table maps each f key to its packed
    pair, or to the list of its packed pairs once a second pair composes to
    it; within a key, pairs come in (h, g) index order.  The inner
    coefficients f_1..f_{p^2-1} are held as one integer in the key layout,
    one F_p digit per byte, so adding a piece is one integer add.

    For odd p, the q^(p-2) keys of one (s, h) come from h^p + g_{p-1} h^(p-1)
    by adding, for each level 1 <= i <= p-2 and each F_p basis element z^k
    of F_q, one of the p reduced multiples m z^k h^i.  A key byte then sums
    at most d(p-2) + 2 digits of at most p - 1 each, so it needs
    (p-1)(d(p-2)+2) <= 255, which holds for every field ``PAIR_LIMIT``
    admits; one ``bytes.translate`` per key reduces every byte mod p.
    """
    p, q = spec.p, spec.q
    n = p * p
    big_q = q ** (p - 1)
    shift = 8 * spec.d
    nbytes = (n - 1) * spec.d
    mul_i = spec.mul_i
    digits = _digit_table(spec)

    if p == 2:
        # g_1 = s - h_1^2 (an XOR of encodings) and f = x^4 + s*x^2 + g_1*h_1*x.
        squares = [mul_i(h, h) for h in range(q)]
        for s in range(lo, hi):
            top = digits[s] << shift
            gs = [s ^ sq for sq in squares]
            keys = [(digits[mul_i(g, h)] | top).to_bytes(nbytes, "little")
                    for h, g in enumerate(gs)]
            table: dict = {}
            _group(table, keys, [g * q + h for h, g in enumerate(gs)])
            yield s, table
        return

    mod_p = bytes(b % p for b in range(256))
    sub_i, pow_i = spec.sub_i, spec.pow_i
    span = q ** (p - 2) * big_q

    def multiples(pw: list[int], c: int) -> tuple[int, ...]:
        """m*c*pw for m in F_p, in the key layout with each byte reduced;
        m times a digit is at most (p-1)^2 <= 255, so nothing carries."""
        base = sum(digits[mul_i(v, c)] << shift * j
                   for j, v in enumerate(pw[1:n]) if v)
        return tuple(int.from_bytes((m * base).to_bytes(nbytes, "little")
                                    .translate(mod_p), "little")
                     for m in range(p))

    # Per h, once for all the shards of this call: h^p packed, by Frobenius
    # h^p = sum h_i^p x^(ip); its coefficient h_{p-1}^p at x^(p^2-p); the
    # nonzero coefficients of h^(p-1) with their shifts; and for each level
    # 1 <= i < p-1 below the top and each F_p basis element z^k of F_q, the
    # p multiples m*z^k*h^i, m in F_p.
    per_h = []
    for hidx in range(big_q):
        inner = mo_index_to_inner(hidx, q, p)
        hp = sum(digits[pow_i(v, p)] << shift * (p * i - 1)
                 for i, v in enumerate(inner, 1))
        pows = [[0, *inner, 1]]
        for _ in range(p - 2):
            pows.append(_mul_raw(spec, pows[-1], pows[0]))
        top = tuple((shift * j, v) for j, v in enumerate(pows[-1][1:n]) if v)
        basis = tuple(multiples(pw, p ** k) for pw in pows[:-1] for k in range(spec.d))
        per_h.append((hp, pow_i(inner[-1], p), top, basis))

    # Per (s, h), g_{p-1} = s - h_{p-1}^p is fixed and g_1..g_{p-2} run over
    # F_q digit by digit, g_1's lowest digit fastest, so the sums come in g
    # index order.
    for s in range(lo, hi):
        table = {}
        for hidx, (hp, lead, top, basis) in enumerate(per_h):
            c = sub_i(s, lead)
            lows = [hp + sum(digits[mul_i(v, c)] << sh for sh, v in top)]
            for mults in basis:
                lows = [a + m for m in mults for a in lows]
            keys = [v.to_bytes(nbytes, "little").translate(mod_p) for v in lows]
            first = c * span + hidx
            _group(table, keys, range(first, first + span, big_q))
        yield s, table


def _group(table: dict, keys: list, pairs) -> None:
    """Add each pair under its key: bare on the first hit, a list after."""
    setdefault = table.setdefault
    for key, pair in zip(keys, pairs):
        old = setdefault(key, pair)
        if old is not pair:
            if type(old) is int:
                table[key] = [old, pair]
            else:
                old.append(pair)


def _tabulate_shards(p: int, d: int, lo: int, hi: int) -> list[tuple[int, dict]]:
    """Per shard in [lo, hi): its distinct f count and its colliding f.

    A shard's table is dropped once counted, so nothing of a non-colliding
    f outlives its shard.
    """
    out = []
    for _, table in _shard_tables(field_new(p, d), lo, hi):
        out.append((len(table), {key: tuple(pairs) for key, pairs in table.items()
                                 if type(pairs) is list}))
        del table  # before the next shard's table is built
    return out


def run_census(p: int, q: int, threads: int = 1) -> CensusReport:
    """Tabulate the degree-p compositions over F_q and check them.

    Shards 0 and 1 are enumerated and weighted 1 and q - 1, which by the
    scaling symmetry (module docstring) gives the totals over all q^(2p-2)
    pairs.
    """
    d = _log_base(q, p)
    spec = field_new(p, d)
    total_pairs = q ** (2 * p - 2)
    weights = {0: 1, 1: q - 1}
    enumerated = len(weights) * q ** (2 * p - 3)
    if enumerated > PAIR_LIMIT:
        raise TooLarge(f"{enumerated} composition pairs in shards 0 and 1 "
                       f"exceed {PAIR_LIMIT}")

    workers = min(threads, len(weights), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = [part for one in pool.map(partial(_tabulate_shards, p, d),
                                              (0, 1), (1, 2))
                     for part in one]
    else:
        parts = _tabulate_shards(p, d, 0, 2)

    # Shards are key-disjoint; each enumerated f counts for its shard's weight.
    spectrum_observed: dict[int, int] = {}
    class_spectrum: dict[str, dict[int, int]] = {"F": {}, "S": {}, "M": {}}
    mismatches: list[Mismatch] = []
    colliding: dict = {}
    distinct = pairs_enumerated = 0
    for (count, shard_colliding), w in zip(parts, weights.values()):
        distinct += w * count
        singles = count - len(shard_colliding)
        pairs_enumerated += singles
        if singles:
            spectrum_observed[1] = spectrum_observed.get(1, 0) + w * singles
        for key, pairs in shard_colliding.items():
            k = len(pairs)
            pairs_enumerated += k
            spectrum_observed[k] = spectrum_observed.get(k, 0) + w
            f = poly_of_key(spec, key, p)
            cls = classify(f)
            if cls.tag is CollisionTag.NONE:
                mismatches.append(Mismatch("classification", format_poly(f.poly),
                                           "none", "a collision class"))
                continue
            per_k = class_spectrum[cls.tag.value]
            per_k[k] = per_k.get(k, 0) + w
        colliding.update(shard_colliding)

    predicted = counting.spectrum(p, q)
    for k in sorted(set(spectrum_observed) | set(predicted.counts)):
        obs = spectrum_observed.get(k, 0)
        pred = predicted.c(k)
        if obs != pred:
            mismatches.append(Mismatch("spectrum", f"k={k}", obs, pred))

    mass = sum(k * c for k, c in spectrum_observed.items())
    if mass != total_pairs:
        mismatches.append(Mismatch("mass", "sum k*c_k", mass, total_pairs))

    return CensusReport(
        p=p,
        q=q,
        spectrum_observed=spectrum_observed,
        spectrum_predicted=predicted,
        class_counts={t: sum(ks.values()) for t, ks in class_spectrum.items()},
        class_spectrum=class_spectrum,
        decomposable_observed=distinct,
        mismatches=mismatches,
        shard_weights=weights,
        pairs_enumerated=pairs_enumerated,
        field_spec=spec,
        colliding_pairs=colliding,
    )


def verify(report: CensusReport) -> bool:
    """True when the observed census matches every prediction and invariant."""
    if report.mismatches:
        return False
    total = report.q ** (2 * report.p - 2)
    obs = report.spectrum_observed
    if sum(k * c for k, c in obs.items()) != total:
        return False
    if report.decomposable_observed != sum(obs.values()):
        return False
    if report.decomposable_observed != report.spectrum_predicted.d_total:
        return False
    return all(obs.get(k, 0) == report.spectrum_predicted.c(k)
               for k in set(obs) | set(report.spectrum_predicted.counts))


def class_partition_check(report: CensusReport) -> bool:
    """Observed class breakdown equals the three per-family closed forms."""
    p, q = report.p, report.q
    expected: dict[str, dict[int, int]] = {
        "F": {2: q ** (p - 1) - 1},
        "S": {2: counting.count_simply(q, p, 2),
              p + 1: counting.count_simply(q, p, p + 1)},
        "M": {2: counting.count_multiply(q, p)},
    }
    for tag, ks in expected.items():
        got = {k: v for k, v in report.class_spectrum.get(tag, {}).items() if v}
        want = {k: v for k, v in ks.items() if v}
        if got != want:
            return False
    return True
