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
key.  The same layout serves every p and q.

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
from .decomp_core import Decomposition, MonicOriginal
from .gf import FieldSpec, NotPrime, _is_prime, field_new
from .identify import CollisionTag, classify
from .polyring import Poly, _mul_raw, format_poly

# Runs that would enumerate more pairs than this, in shards 0 and 1, are
# refused outright.
PAIR_LIMIT = 1 << 24


class TooLarge(Exception):
    pass


def mo_index_to_inner(idx: int, q: int, p: int) -> tuple[int, ...]:
    out = []
    for _ in range(p - 1):
        idx, c = divmod(idx, q)
        out.append(c)
    return tuple(out)


def mo_index_to_poly(spec: FieldSpec, idx: int, degree: int) -> MonicOriginal:
    inner = mo_index_to_inner(idx, spec.q, degree)
    return MonicOriginal(Poly(spec, (0,) + inner + (1,)))


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
    one F_p digit per byte, so adding a scaled piece g_i*h^i is one integer
    add.  Two digits sum to at most 2p - 2 <= 255, so no byte carries, and
    ``bytes.translate`` reduces every byte mod p.
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
    sub_i = spec.sub_i

    def scaled(pw: list[int]) -> list[int]:
        """The packed c*pw for every c in F_q, indexed by c."""
        out = [0] * q
        for j, v in enumerate(pw[1:n]):
            if v:
                s = shift * j
                out = [acc | digits[mul_i(v, c)] << s for c, acc in enumerate(out)]
        return out

    # Per h, once for all the shards of this call: h^p packed, its
    # coefficient h_{p-1}^p at x^(p^2-p), the nonzero coefficients of
    # h^(p-1) with their shifts, and the scaled pieces c*h^i of the
    # levels 1 <= i < p-1 below the top.
    per_h = []
    for hidx in range(big_q):
        h = [0, *mo_index_to_inner(hidx, q, p), 1]
        pows: list[list[int]] = [[], h]
        for _ in range(p - 1):
            pows.append(_mul_raw(spec, pows[-1], h))
        hp = sum(digits[v] << (shift * j) for j, v in enumerate(pows[p][1:n]))
        top = [(shift * j, v) for j, v in enumerate(pows[p - 1][1:n]) if v]
        pieces_at = [None] + [scaled(pows[level]) for level in range(1, p - 1)]
        per_h.append((hp, pows[p][n - p], top, pieces_at))

    def rec(table: dict, pieces_at: list, hidx: int, level: int, acc: int,
            gpart: int) -> None:
        pieces = pieces_at[level]
        if level > 1:
            for c, piece in enumerate(pieces):
                nxt = (acc + piece).to_bytes(nbytes, "little").translate(mod_p)
                rec(table, pieces_at, hidx, level - 1,
                    int.from_bytes(nxt, "little"), gpart * q + c)
            return
        keys = [(acc + piece).to_bytes(nbytes, "little").translate(mod_p)
                for piece in pieces]
        first = gpart * q * big_q + hidx
        _group(table, keys, range(first, first + q * big_q, big_q))

    for s in range(lo, hi):
        table = {}
        for hidx, (hp, lead, top, pieces_at) in enumerate(per_h):
            c = sub_i(s, lead)
            acc = hp + sum(digits[mul_i(v, c)] << sh for sh, v in top)
            acc = int.from_bytes(acc.to_bytes(nbytes, "little").translate(mod_p),
                                 "little")
            rec(table, pieces_at, hidx, p - 2, acc, c)
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
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    d = _log_base(q, p)
    total_pairs = q ** (2 * p - 2)
    weights = {0: 1, 1: q - 1}
    enumerated = len(weights) * q ** (2 * p - 3)
    if enumerated > PAIR_LIMIT:
        raise TooLarge(f"{enumerated} composition pairs in shards 0 and 1 "
                       f"exceed {PAIR_LIMIT}")
    spec = field_new(p, d)

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
