"""Exhaustive composition census at degree p^2 over F_q.

Enumerates all q^(2p-2) pairs (g, h) of degree-p monic originals, groups
the compositions, and compares the observed maximal-collision spectrum and
class breakdown against the exact closed forms.  This is the ground-truth
oracle for the counting module and for the classifier.

Monic originals of degree p are indexed by the base-q little-endian
encoding of their inner coefficients (c_1, ..., c_{p-1}); a pair (g, h) is
packed as g_index * q^(p-1) + h_index.

A composition f is keyed by the bytes of its inner coefficients
(f_1, ..., f_{p^2-1}), one little-endian slot per coefficient holding its
encoding: one byte each for q <= 256, so the key of f is
``bytes(f.poly.encodings[1:p*p])``, and two bytes each above.  The raw
table built while enumerating maps a key to its bare packed pair while f
has one decomposition, as most f do, and to a list of packed pairs from
the second on.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from . import counting
from .counting import Spectrum, _log_base
from .decomp_core import Decomposition, MonicOriginal
from .gf import FieldSpec, NotPrime, _is_prime, field_new
from .identify import CollisionTag, classify
from .polyring import Poly, _mul_raw, format_poly

# Runs that enumerate more pairs than this are refused outright.  The census
# keys need (2p-1)^d <= 256 for odd p, q = p^d, so that the sum of two
# radix-(2p-1) coefficients fits its byte slot; every odd (p, q) with
# q^(2p-2) <= PAIR_LIMIT meets it.
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


def _slot_bytes(q: int) -> int:
    """Bytes per coefficient slot in a census key."""
    return 1 if q <= 256 else 2


def poly_of_key(spec: FieldSpec, key: bytes, p: int) -> MonicOriginal:
    w = _slot_bytes(spec.q)
    inner = tuple(int.from_bytes(key[i:i + w], "little")
                  for i in range(0, len(key), w))
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
    # raw tables, kept for cross-checks; not part of the serialized report
    field_spec: FieldSpec = field(repr=False)
    pair_counts: dict = field(repr=False)
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
            "mismatches": [m.to_json() for m in self.mismatches],
            "verified": verify(self),
            "class_partition_ok": class_partition_check(self),
        }


def _radix_tables(p: int, d: int) -> tuple[list[int], bytes, bytes]:
    """Digit maps for adding F_{p^d} encodings as plain integers, p odd.

    ``e2r[e]`` rewrites the base-p digits of encoding e in radix 2p-1, so
    the sum of two rewritten values has every digit below 2p-1 and no
    carries.  ``r2e`` and ``r2r`` map such a byte, digit by digit mod p,
    back to an encoding and to its reduced radix-(2p-1) form.
    """
    r = 2 * p - 1
    q = p ** d

    def rebase(v: int, src: int, dst: int) -> int:
        out, scale = 0, 1
        for _ in range(d):
            v, c = divmod(v, src)
            out += (c % p) * scale
            scale *= dst
        return out

    e2r = [rebase(e, p, r) for e in range(q)]
    r2e = bytearray(256)
    r2r = bytearray(256)
    for b in range(r ** d):
        r2e[b] = rebase(b, r, p)
        r2r[b] = e2r[r2e[b]]
    return e2r, bytes(r2e), bytes(r2r)


def _tabulate_range(spec: FieldSpec, lo: int, hi: int) -> dict:
    """Compose every g against h for h indices in [lo, hi); group by f.

    Maps each f key to its packed pair, or to the list of its packed pairs
    once a second pair composes to it.  The inner coefficients
    f_1..f_{p^2-1} are held as one integer with a fixed-width slot each, so
    adding a scaled piece g_i*h^i is one integer operation: XOR for p = 2,
    and for odd p an add of radix-(2p-1) digits reduced mod p bytewise by
    ``bytes.translate``.
    """
    p, q = spec.p, spec.q
    n = p * p
    big_q = q ** (p - 1)
    shift = 8 * _slot_bytes(q)
    nbytes = (n - 1) * shift // 8
    enc: Any = range(q)
    if p != 2:
        enc, r2e, r2r = _radix_tables(p, spec.d)
    mul_i = spec.mul_i

    def scaled(pw: list[int]) -> list[int]:
        """The packed c*pw for every c in F_q, indexed by c."""
        out = [0] * q
        for j, v in enumerate(pw[1:n]):
            if v:
                s = shift * j
                out = [acc | enc[mul_i(v, c)] << s for c, acc in enumerate(out)]
        return out

    table: dict = {}
    setdefault = table.setdefault
    for hidx in range(lo, hi):
        h = [0, *mo_index_to_inner(hidx, q, p), 1]
        pows: list[list[int]] = [[], h]
        for _ in range(p - 1):
            pows.append(_mul_raw(spec, pows[-1], h))
        pieces_at = [None] + [scaled(pows[level]) for level in range(1, p)]

        def rec(level: int, acc: int, gpart: int) -> None:
            pieces = pieces_at[level]
            if level > 1:
                for c, piece in enumerate(pieces):
                    nxt = (acc + piece).to_bytes(nbytes, "little").translate(r2r)
                    rec(level - 1, int.from_bytes(nxt, "little"), gpart * q + c)
                return
            if p == 2:
                keys = [(acc ^ piece).to_bytes(nbytes, "little")
                        for piece in pieces]
            else:
                keys = [(acc + piece).to_bytes(nbytes, "little").translate(r2e)
                        for piece in pieces]
            first = gpart * q * big_q + hidx
            for key, pair in zip(keys, range(first, first + q * big_q, big_q)):
                old = setdefault(key, pair)
                if old is not pair:
                    if type(old) is int:
                        table[key] = [old, pair]
                    else:
                        old.append(pair)

        hp = sum(enc[v] << (shift * j) for j, v in enumerate(pows[p][1:n]))
        rec(p - 1, hp, 0)
    return table


def _census_worker(args: tuple[int, int, int, int]) -> dict:
    p, d, lo, hi = args
    return _tabulate_range(field_new(p, d), lo, hi)


def run_census(p: int, q: int, threads: int = 1) -> CensusReport:
    """Enumerate all degree-p compositions over F_q and tabulate collisions."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    d = _log_base(q, p)
    total_pairs = q ** (2 * p - 2)
    if total_pairs > PAIR_LIMIT:
        raise TooLarge(f"{total_pairs} composition pairs exceed {PAIR_LIMIT}")
    spec = field_new(p, d)
    big_q = q ** (p - 1)

    if threads > 1:
        shards = []
        step = -(-big_q // threads)
        for lo in range(0, big_q, step):
            shards.append((p, d, lo, min(lo + step, big_q)))
        table: dict = {}
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(_census_worker, shards):
                for key, pairs in part.items():
                    old = table.setdefault(key, pairs)
                    if old is not pairs:
                        if type(old) is int:
                            old = table[key] = [old]
                        if type(pairs) is int:
                            old.append(pairs)
                        else:
                            old.extend(pairs)
    else:
        table = _tabulate_range(spec, 0, big_q)

    colliding = {key: tuple(pairs) for key, pairs in table.items()
                 if type(pairs) is list}
    pair_counts = dict.fromkeys(table, 1)
    table.clear()
    spectrum_observed: dict[int, int] = {}
    if len(pair_counts) > len(colliding):
        spectrum_observed[1] = len(pair_counts) - len(colliding)
    for key, pairs in colliding.items():
        k = pair_counts[key] = len(pairs)
        spectrum_observed[k] = spectrum_observed.get(k, 0) + 1

    predicted = counting.spectrum(p, q)
    mismatches: list[Mismatch] = []
    for k in sorted(set(spectrum_observed) | set(predicted.counts)):
        obs = spectrum_observed.get(k, 0)
        pred = predicted.c(k)
        if obs != pred:
            mismatches.append(Mismatch("spectrum", f"k={k}", obs, pred))

    class_spectrum: dict[str, dict[int, int]] = {"F": {}, "S": {}, "M": {}}
    for key, pairs in colliding.items():
        f = poly_of_key(spec, key, p)
        cls = classify(f)
        if cls.tag is CollisionTag.NONE:
            mismatches.append(Mismatch("classification", format_poly(f.poly),
                                       "none", "a collision class"))
            continue
        per_k = class_spectrum[cls.tag.value]
        per_k[len(pairs)] = per_k.get(len(pairs), 0) + 1

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
        decomposable_observed=len(pair_counts),
        mismatches=mismatches,
        field_spec=spec,
        pair_counts=pair_counts,
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
