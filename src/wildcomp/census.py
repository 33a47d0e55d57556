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

For odd p the original shift f -> f(x + w) - f(w) cuts each of the two
shards further, by the following lemma.  For decomposable f of degree p^2,
f_j = 0 for p^2 - p < j < p^2, so the shift keeps s = f_{p^2-p}, since
C(p^2, p) = 0 mod p, and keeps t = f_{p^2-p-1} = (y^p - s) y, where
y = h_{p-1} for any decomposition (g, h) of f.  It maps the decompositions
of f one to one onto those of the shifted f, (g, h) -> (g^(h(w)), h^(w)),
so it keeps each f's number of decompositions and its class.  For p >= 3,
f_{p^2-p-2} = g_{p-1} (-h_{p-2} + C(p-1, 2) y^2), and the shift moves it to
f_{p^2-p-2} - t w.  So for t != 0 the shift group acts freely: each orbit
holds q polynomials and exactly one f with f_{p^2-p-2} = 0.  There
g_{p-1} = s - y^p != 0, so every decomposition of that f has
h_{p-2} = C(p-1, 2) y^2 = y^2, as C(p-1, 2) = 1 mod p.

Five more rules cut the work, for odd p.

(1) Shard 0, t != 0: scaling.  With s = 0, t = y^(p+1), and the scaling
by a sends f_j to a^(j-p^2) f_j: it keeps shard 0, sends t to
a^(-(p+1)) t and keeps f_{p^2-p-2} = 0, so it maps shift-orbit
representatives to representatives.  The t != 0 of shard 0 are the
(p+1)-th powers, (q-1)/e of them with e = gcd(p+1, q-1), and for each
of them the scaling by an a with a^(-(p+1)) = t is a bijection, keeping
k and the class, from the representatives with t = 1 onto those with
that t.  So the representatives with t = 1 stand for every t != 0 at
weight q (q-1)/e, and every decomposition of such an f has y^(p+1) = 1:
the e values of y with y^(p+1) = 1 and h_{p-2} = y^2 hold all of their
pairs.  No Burnside count per f is needed: an orbit whose stabilizer St
(a subgroup of the a with a^(p+1) = 1) has (q-1)/|St| members, e/|St|
of them with t = 1, so each of those stands for (q-1)/e members.

(2) Shard s != 0, t = 0, p >= 5: the shift in the y = 0 slice.  With
y = 0, g_{p-1} = s - y^p = s; with y^p = s, g_{p-1} = 0.  So
u = f_{p^2-p-2} = g_{p-1} (-h_{p-2} + C(p-1, 2) y^2) is -s h_{p-2} in the
first slice and 0 in the second, and an f with t = 0 and u != 0 has all
of its pairs in the y = 0 slice, with h_{p-2} != 0.  There
f_{p^2-p-3} = -s h_{p-3}: h^p has no monomial of that degree, as p does
not divide p^2-p-3, g_{p-1} h^(p-1) contributes s (p-1) h_{p-3} to it
and nothing else, and g_{p-2} h^(p-2) has degree p^2-2p < p^2-p-3.  The
shift keeps s, t = 0 and u, and moves f_{p^2-p-3} by -2 u w: of the
coefficients above it only f_{p^2} = 1, s and u are nonzero, and
C(p^2, p+3) = 0 and C(p^2-p, 3) = 0 mod p, while
C(p^2-p-2, 1) = -2 mod p.  As 2 u != 0 the shift acts freely on these f,
and each orbit holds q of them and exactly one with f_{p^2-p-3} = 0.  So
the y = 0, h_{p-2} != 0, h_{p-3} = 0 pairs are a part of weight q, key-
disjoint from the rest of the t = 0 pairs, which have u = 0 and keep
weight 1.  For p = 3 the rule fails: p^2-p-3 = 3 is a multiple of p,
and C(6, 3) = 20 = 2 mod 3 adds 2 s w^3, so f_3 moves by u w - s w^3,
an additive map of w whose kernel can have 3 elements.  p = 3 keeps
its t = 0 slice whole.

(3) Shard 0, t = 0: scaling cosets.  Here y = 0 and g_{p-1} = 0, so
c = f_{p^2-2p} = h_{p-2}^p + g_{p-2}, as g_i h^i has lower degree for
i < p-2.  The scaling by a maps h_i to a^(i-p) h_i and g_i to
a^(p(i-p)) g_i, so it maps each of this shard's t = 0 parts (below)
onto itself, keeping k and the class, and sends a part's fibre c onto
its fibre a^(-2p) c.  So a part is enumerated as its fibre c = 0 at its
weight and, for each coset of the (2p)-th powers in F_q*, its fibre at
the coset's smallest c at the coset's size, (q-1)/gcd(2p, q-1), times
that weight; there are gcd(2p, q-1) = 2 cosets, as p does not divide
q - 1.  As in (1), the bijection is between fibres, so no Burnside count
is needed.  Per h, g_{p-2} = c - h_{p-2}^p, taken where the slice allows
it: where it has g_{p-2} = 0, h_{p-2}^p = c selects h.

Two more shift sections hold for odd p in the t = 0 slices where
g_{p-1} = 0.  Write v = f_{p^2-2p-1} and w2 = f_{p^2-2p-2}.  With
g_{p-1} = 0, f = h^p + g_{p-2} h^(p-2) + ..., and f_j = 0 for
p^2-2p < j < p^2-p: h^p has no monomial there, as p divides no such j,
and the rest has degree at most p^2-2p.  So u = 0 and t = 0 there, and
g_{p-3} h^(p-3) has degree p^2-3p < p^2-2p-2, so v and w2 come from
g_{p-2} h^(p-2) alone.  The shift keeps these zeros, s and t: C(p^2, j)
and C(p^2-p, j) are 0 mod p for those j, by Lucas, as p does not divide
j.  By Lucas too, C(p^2, 2p+i), C(p^2-p, p+i) and C(p^2-2p, i) are
0 mod p for 0 < i < p.

(4) Shard s != 0, t = 0, the y^p = s slice: the shift, any odd p.  Here
v = (p-2) y g_{p-2} and w2 = g_{p-2} ((p-2) h_{p-2} + C(p-2, 2) y^2).
The shift keeps v, and moves w2 by C(p^2-2p-1, 1) v w = -v w.  No y = 0
pair of the shard has a key with u = 0, f_j = 0 for p^2-2p < j < p^2-p,
and v != 0.  With y = 0, g_{p-1} = s and u = -s h_{p-2} (the lemma
above), so u = 0 forces h_{p-2} = 0.  If then h = x^p, f = g(x^p) has
f_j = 0 unless p divides j, so v = 0.  Otherwise let i be the top index
with h_i != 0, 1 <= i <= p-3; then s h^(p-1) = s x^(p^2-p) +
s (p-1) h_i x^(p^2-2p+i) + lower, and no other term of f reaches that
degree, so f_{p^2-2p+i} = -s h_i != 0.  So every
pair of an f with t = 0, u = 0, those f_j = 0 and v != 0 is in the
y^p = s slice, with g_{p-2} != 0, and the shift acts freely on these f:
each orbit holds q of them and exactly one with w2 = 0, all of whose
pairs have h_{p-2} = -C(p-2, 2) y^2 / (p-2) = (3/2) y^2 (0 for p = 3).
The slice's pairs with g_{p-2} = 0 have v = 0 and stay at weight 1 with
the rest of the shard's t = 0 pairs, whose f have v = 0, u != 0 or
some f_j != 0 for p^2-2p < j < p^2-p.

(5) Shard 0, t = 0, p >= 5: the shift.  Here y = 0 and g_{p-1} = 0, so
v = 0 and w2 = (p-2) g_{p-2} h_{p-2}, and f_{p^2-2p-3} =
(p-2) g_{p-2} h_{p-3}: h^(p-2) with y = 0 has (p-2) h_{p-3} at
x^(p^2-2p-3) and nothing else there, h^p has no monomial there, as p
does not divide 3, and p^2-3p < p^2-2p-3.  The shift keeps w2, as v = 0,
and moves f_{p^2-2p-3} by C(p^2-2p-2, 1) w2 w = -2 w2 w.  So for
w2 != 0, that is g_{p-2} != 0 and h_{p-2} != 0, the shift acts freely
and each orbit holds exactly one f with f_{p^2-2p-3} = 0, all of whose
pairs have h_{p-3} = 0.  The pairs with h_{p-2} = 0 or g_{p-2} = 0 have
w2 = 0 and stay at weight 1.  The scaling multiplies w2 and
f_{p^2-2p-3} by powers of a, and the shift keeps c, as C(p^2, 2p) = 0
mod p and s = 0, so rule (3) cuts both parts.  For p = 3 these f are
additive, x^9 + A x^3 + B x, and the shift fixes each of them.

Each shard s is therefore enumerated in key-disjoint parts through the
same loop.  A part is a list of slices, each a set of h with a range of
allowed g_{p-2}, and each part's weight is multiplied by its shard's.
Shard 0's t = 0 pairs, y = 0, are at weight 1; for p >= 5 they take
every g where h_{p-2} = 0 and g_{p-2} = 0 elsewhere, and the y = 0,
h_{p-2} != 0, h_{p-3} = 0, g_{p-2} != 0 pairs are at weight q.  Rule (3)
cuts each of these into a c = 0 part and a coset part.  Shard 0's t != 0
part, y^(p+1) = 1 and h_{p-2} = y^2, has weight q (q-1)/e.  Shard 1's
t = 0 part at weight 1 takes y = 0 with every g (for p >= 5 only where
h_{p-2} = 0) and y^p = 1 with g_{p-2} = 0; for p >= 5 the y = 0,
h_{p-2} != 0, h_{p-3} = 0 pairs are a part of weight q, and for every
odd p so are the y^p = 1, h_{p-2} = (3/2) y^2, g_{p-2} != 0 pairs.
Shard 1's t != 0 part takes every other y with h_{p-2} = y^2 at weight
q.  So, with G = gcd(2p, q-1) = 2, shard 0 enumerates e q^(2p-5) pairs
plus (1 + G) q for p = 3 and (1 + 2G) q^(2p-6) + (q-1 + G (q-2)) q^(2p-7)
for p >= 5, and shard 1 (q-2) q^(2p-5) + q^(2p-5) + (q-1) q^(2p-6) plus
q^2 for p = 3 and (q^(p-3) + (q-1) q^(p-4)) q^(p-2) for p >= 5.  For p = 2,
where p^2 - p - 2 = 0, there is no such normalization, and each shard
is enumerated whole.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby, islice
from typing import Any, NamedTuple, Optional

from . import counting
from .counting import Spectrum
from .decomp_core import (Decomposition, MonicOriginal, mo_index_to_inner,
                          mo_index_to_poly)
from .gf import FieldSpec, _log_base, field_new
from .identify import CollisionTag, classify
from .polyring import Poly, _mul_raw, format_poly

# Runs that would enumerate more pairs than this (``enumerated_pairs``) are
# refused outright.  Every field it admits has (p-1)(d(p-2)+2) <= 255, so
# the digit sums of a key byte never carry (see ``_shard_tables``).
PAIR_LIMIT = 1 << 24


class TooLarge(Exception):
    pass


class Part(NamedTuple):
    """An enumerated part of shard s, and how many f each of its f stands for.

    ``t_nonzero`` tells the t = 0 parts from the t != 0 part for odd p; it
    is None for p = 2, whose shards are enumerated whole.  ``c_nonzero``
    tells, in shard 0's t = 0 parts, the fibre c = f_{p^2-2p} = 0 from the
    coset fibres of rule (3) (module docstring); it is None elsewhere.
    ``fixed`` is the j of the coefficient f_j that the original shift sets
    to 0 where the part holds one f per shift orbit: p^2-p-2 in the t != 0
    parts, p^2-p-3, p^2-2p-2 and p^2-2p-3 in the t = 0 parts of rules (2),
    (4) and (5).  It is None in the parts that hold every f of their keys.
    """

    s: int
    t_nonzero: Optional[bool]
    weight: int
    fixed: Optional[int] = None
    c_nonzero: Optional[bool] = None

    def to_json(self) -> dict:
        out = {k: v for k, v in self._asdict().items() if v is not None}
        out["weight"] = out.pop("weight")
        return out


def enumerated_pairs(p: int, q: int) -> int:
    """The pairs (g, h) that the census of F_q at degree p^2 enumerates."""
    if p == 2:
        return 2 * q ** (2 * p - 3)
    e = math.gcd(p + 1, q - 1)
    cosets = math.gcd(2 * p, q - 1)
    t_nonzero = (e + q - 2) * q ** (2 * p - 5)
    # shard 1's y^p = 1 slice: g_{p-2} = 0, then g_{p-2} != 0 and one h_{p-2}
    root = q ** (2 * p - 5) + (q - 1) * q ** (2 * p - 6)
    if p == 3:
        # shard 0's y = 0 slice, q pairs, one per h_1, in each kept fibre c;
        # shard 1's y = 0 slice, whole
        return (1 + cosets) * q + q ** 2 + t_nonzero + root
    # shard 0's t = 0 parts per kept fibre c: h_{p-2} = 0, h_{p-2}^p = c, and
    # h_{p-2}^p != 0, c with h_{p-3} = 0; shard 1's y = 0 slice, h_{p-2} = 0
    # or h_{p-3} = 0
    zero = ((1 + 2 * cosets) * q ** (2 * p - 6)
            + (q - 1 + cosets * (q - 2)) * q ** (2 * p - 7))
    y_zero = (q ** (p - 3) + (q - 1) * q ** (p - 4)) * q ** (p - 2)
    return zero + y_zero + t_nonzero + root


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
    # the colliding f that ``classify`` tags none; the count mismatches
    # are derived (``mismatches``)
    unclassified: list[Mismatch]
    # the enumerated parts, in order, with their weights, and the pairs
    # each of them enumerated
    parts: list[Part]
    part_pairs: list[int]
    # colliding f and their packed pairs, kept for cross-checks; not part
    # of the serialized report
    field_spec: FieldSpec = field(repr=False)
    colliding_pairs: dict = field(repr=False)

    @property
    def pairs_enumerated(self) -> int:
        return sum(self.part_pairs)

    @property
    def mismatches(self) -> list[Mismatch]:
        """The unclassified colliding f, then every spectrum, mass and
        decomposable-total mismatch of the counts against the closed forms
        and the q^(2p-2) pairs."""
        obs, pred = self.spectrum_observed, self.spectrum_predicted
        out = list(self.unclassified)
        for k in sorted(set(obs) | set(pred.counts)):
            if obs.get(k, 0) != pred.c(k):
                out.append(Mismatch("spectrum", f"k={k}", obs.get(k, 0), pred.c(k)))
        mass = sum(k * c for k, c in obs.items())
        total = self.q ** (2 * self.p - 2)
        if mass != total:
            out.append(Mismatch("mass", "sum k*c_k", mass, total))
        for where, want in (("sum c_k", sum(obs.values())), ("D", pred.d_total)):
            if self.decomposable_observed != want:
                out.append(Mismatch("decomposable", where,
                                    self.decomposable_observed, want))
        return out

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
            "shards": [{**part.to_json(), "pairs": n}
                       for part, n in zip(self.parts, self.part_pairs)],
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


def _parts(spec: FieldSpec
           ) -> list[tuple[Part, list[tuple[Sequence[int], Optional[range]]]]]:
    """The census's enumerated parts, shard 0's first, each with its slices.

    Shards 0 and 1 have weights 1 and q - 1.  For odd p each splits into
    the parts of ``_part_hs``, whose weights are multiplied by the shard's.
    """
    q = spec.q
    shards = {0: 1, 1: q - 1}
    if spec.p == 2:
        return [(Part(s, None, w), [(range(q), None)]) for s, w in shards.items()]
    return [(part._replace(weight=w * part.weight), slices)
            for s, w in shards.items() for part, slices in _part_hs(spec, s)]


def _part_hs(spec: FieldSpec, s: int
             ) -> list[tuple[Part, list[tuple[Sequence[int], Optional[range]]]]]:
    """Shard s's parts, s in {0, 1}, with their weights within the shard
    and their slices, as the module docstring's last paragraph lists them.

    A slice ``(hs, gs)`` takes the pairs whose h index is in ``hs``, in
    increasing order, and whose g_{p-2} is in the range ``gs``; a part's
    slices come in nondecreasing h order.
    """
    p, q = spec.p, spec.q
    n = p * p
    low = q ** (p - 3)  # indices of h_1..h_{p-3}
    span = q * low      # indices of h_1..h_{p-2}
    any_g, zero_g, nonzero_g = range(q), range(1), range(1, q)
    # y = 0, h_{p-3} = 0 and h_{p-2} = c != 0, for p >= 5
    sub = [c * low + i for c in range(1, q) for i in range(low // q)]
    if s == 0:
        ys = [y for y in range(1, q) if spec.pow_i(y, p + 1) == 1]
        if p == 3:
            zero = [(Part(0, False, 1), [(range(span), any_g)])]
        else:
            zero = [(Part(0, False, 1), [(range(low), any_g), (range(low, span), zero_g)]),
                    (Part(0, False, q, n - 2 * p - 3), [(sub, nonzero_g)])]
        zero = [cut for part, slices in zero for cut in _coset_fibres(spec, part, slices)]
        weight = q * (q - 1) // len(ys)
    else:
        root = spec.pow_i(s, q // p)  # y^p = s, by the inverse Frobenius
        ys = [y for y in range(1, q) if y != root]
        top = range(root * span, (root + 1) * span)
        # h_{p-2} = (3/2) y^2 at y = root; 3/2 mod p is an F_p encoding
        first = top[0] + spec.mul_i(3 * (p + 1) // 2 % p, spec.mul_i(root, root)) * low
        section = (Part(s, False, q, n - 2 * p - 2),
                   [(range(first, first + low), nonzero_g)])
        if p == 3:
            zero = [(Part(s, False, 1), [(range(span), any_g), (top, zero_g)]), section]
        else:
            zero = [(Part(s, False, 1), [(range(low), any_g), (top, zero_g)]),
                    (Part(s, False, q, n - p - 3), [(sub, any_g)]), section]
        weight = q
    nonzero = [y * span + spec.mul_i(y, y) * low + i for y in ys for i in range(low)]
    return zero + [(Part(s, True, weight, n - p - 2), [(nonzero, any_g)])]


def _coset_fibres(spec: FieldSpec, part: Part,
                  slices: list[tuple[Sequence[int], range]]
                  ) -> Iterator[tuple[Part, list[tuple[Sequence[int], range]]]]:
    """A t = 0 part of shard 0 as its c = 0 part and its coset part, rule
    (3) of the module docstring.  c^m, m = (q-1)/gcd(2p, q-1), names c's
    coset, and each slice yields one slice per h_{p-2} and c whose
    g_{p-2} = c - h_{p-2}^p it allows, in increasing (h, g_{p-2}) order."""
    p, q = spec.p, spec.q
    low = q ** (p - 3)
    m = (q - 1) // math.gcd(2 * p, q - 1)
    reps = sorted({spec.pow_i(c, m): c for c in range(q - 1, 0, -1)}.values())
    for c_nonzero, cs, w in ((False, [0], 1), (True, reps, m)):
        cut = []
        for hs, gs in slices:
            for r, group in groupby(hs, lambda hidx: hidx // low % q):
                group, r_p = list(group), spec.pow_i(r, p)
                cut += [(group, range(g, g + 1)) for g in sorted(
                    g for g in {spec.sub_i(c, r_p) for c in cs} if g in gs)]
        yield part._replace(weight=w * part.weight, c_nonzero=c_nonzero), cut


def _shard_tables(spec: FieldSpec,
                  parts: Iterable[tuple[int, Iterable[tuple[Sequence[int],
                                                            Optional[range]]]]]
                  ) -> Iterator[tuple[int, dict]]:
    """Yield ``(s, table)`` for each ``(s, slices)`` in ``parts``, in order.

    The table holds the pairs (g, h) of shard s of each slice ``(hs, gs)``:
    those whose h index is in ``hs`` and whose g_{p-2} is in the range
    ``gs`` (None for p = 2, which has no g_{p-2}).  Shard s holds the pairs
    with h_{p-1}^p + g_{p-1} = s, which is the coefficient f_{p^2-p} of
    f = g o h, so the shards are key-disjoint and each holds q^(2p-3)
    pairs, q^(p-2) per h.  A table maps each f key to its packed pair, or
    to the list of its packed pairs once a second pair composes to it;
    within a key, pairs come in (h, g) order, h in the order of the slices
    and their ``hs``.  The inner coefficients f_1..f_{p^2-1} are held as
    one integer in the key layout, one F_p digit per byte, so adding a
    piece is one integer add.

    For odd p, the keys of one (s, h) come from h^p + g_{p-1} h^(p-1) by
    adding, for each level 1 <= i <= p-2 and each F_p basis element z^k
    of F_q, one of the p reduced multiples m z^k h^i, so they come in g
    index order.  The top level, g_{p-2} h^(p-2), runs over the digits
    that ``gs`` uses, and the keys outside ``gs`` are skipped.  Per h, only
    what its slices use is built, once: h^(p-1) only where some shard s
    has g_{p-1} = s - h_{p-1}^p != 0, and the top level only where some
    slice lets g_{p-2} be nonzero.  A key byte sums at most d(p-2) + 2
    digits of at most p - 1 each, so it needs (p-1)(d(p-2)+2) <= 255,
    which holds for every field ``PAIR_LIMIT`` admits; one
    ``bytes.translate`` per key reduces every byte mod p.
    """
    p, q, d = spec.p, spec.q, spec.d
    n = p * p
    big_q = q ** (p - 1)
    shift = 8 * d
    nbytes = (n - 1) * d
    mul_i = spec.mul_i
    digits = _digit_table(spec)

    if p == 2:
        # g_1 = s - h_1^2 (an XOR of encodings) and f = x^4 + s*x^2 + g_1*h_1*x.
        squares = [mul_i(h, h) for h in range(q)]
        for s, slices in parts:
            hs = [h for part_hs, _ in slices for h in part_hs]
            top = digits[s] << shift
            gs = [s ^ squares[h] for h in hs]
            keys = [(digits[mul_i(g, h)] | top).to_bytes(nbytes, "little")
                    for h, g in zip(hs, gs)]
            table: dict = {}
            _group(table, keys, [g * q + h for h, g in zip(hs, gs)])
            yield s, table
        return

    mod_p = bytes(b % p for b in range(256))
    sub_i, pow_i = spec.sub_i, spec.pow_i
    per_y = q ** (p - 2)  # the h indices, and the g indices, of one h_{p-1}
    span = per_y * big_q
    skip = q ** (p - 3)  # the g indices below g_{p-2}
    lower = (p - 3) * d  # the basis multiples of the levels below the top

    def multiples(pw: list[int], c: int) -> tuple[int, ...]:
        """m*c*pw for m in F_p, in the key layout with each byte reduced;
        m times a digit is at most (p-1)^2 <= 255, so nothing carries."""
        base = sum(digits[mul_i(v, c)] << shift * j
                   for j, v in enumerate(pw[1:n]) if v)
        return tuple(int.from_bytes((m * base).to_bytes(nbytes, "little")
                                    .translate(mod_p), "little")
                     for m in range(p))

    def precompute(hidx: int, levels: int, top: bool) -> tuple:
        """h^p packed, by Frobenius h^p = sum h_i^p x^(ip); its coefficient
        h_{p-1}^p at x^(p^2-p); if ``top``, the nonzero coefficients of
        h^(p-1) with their shifts; and for each level 1 <= i <= ``levels``
        and each F_p basis element z^k of F_q, the p multiples m*z^k*h^i,
        m in F_p."""
        inner = mo_index_to_inner(hidx, q, p)
        hp = sum(digits[pow_i(v, p)] << shift * (p * i - 1)
                 for i, v in enumerate(inner, 1))
        pows = [[0, *inner, 1]]
        for _ in range((p - 1 if top else levels) - 1):
            pows.append(_mul_raw(spec, pows[-1], pows[0]))
        tops = tuple((shift * j, v) for j, v in enumerate(pows[-1][1:n]) if v) \
            if top else ()
        basis = tuple(multiples(pw, p ** k)
                      for pw in pows[:levels] for k in range(spec.d))
        return hp, pow_i(inner[-1], p), tops, basis

    # What each h of this call's parts needs over all of them: its levels,
    # p-3 where every slice has g_{p-2} = 0 and p-2 elsewhere, and whether
    # some shard s has g_{p-1} = s - h_{p-1}^p != 0.  It is built once.
    parts = [(s, list(slices)) for s, slices in parts]
    frobenius = [pow_i(y, p) for y in range(q)]
    need: dict[int, tuple[int, bool]] = {}
    for s, slices in parts:
        for hs, gs in slices:
            levels = p - 2 if any(gs) else p - 3
            for hidx in hs:
                was, top = need.get(hidx, (0, False))
                need[hidx] = (max(was, levels),
                              top or frobenius[hidx // per_y] != s)
    per_h = {hidx: precompute(hidx, *wants) for hidx, wants in need.items()}

    # Per (s, h), g_{p-1} = s - h_{p-1}^p is fixed and g_1..g_{p-2} run over
    # F_q digit by digit, g_1's lowest digit fastest, so the sums come in g
    # index order.
    for s, slices in parts:
        table = {}
        for hs, gs in slices:
            # g_{p-2}'s F_p digits k that are not 0 throughout gs, and the
            # values they take, in increasing order; the range gs is one run
            # of them, and so are its keys
            steps = [(k, ds) for k in range(d)
                     if (ds := sorted({v // p ** k % p for v in gs})) != [0]]
            values = [0]
            for k, ds in steps:
                values = [a + m * p ** k for m in ds for a in values]
            start = values.index(gs.start) * skip
            for hidx in hs:
                hp, lead, top, basis = per_h[hidx]
                c = sub_i(s, lead)
                lows = [hp + sum(digits[mul_i(v, c)] << sh for sh, v in top)
                        if c else hp]
                for mults in basis[:lower]:
                    lows = [a + m for m in mults for a in lows]
                for k, ds in steps:
                    mults = [basis[lower + k][m] for m in ds]
                    lows = [a + m for m in mults for a in lows]
                keys = [v.to_bytes(nbytes, "little").translate(mod_p)
                        for v in islice(lows, start, start + len(gs) * skip)]
                first = c * span + gs.start * skip * big_q + hidx
                _group(table, keys, range(first, first + len(keys) * big_q, big_q))
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


def _tabulate_shards(p: int, d: int,
                     parts: list[tuple[int, list[tuple[Sequence[int], Optional[range]]]]]
                     ) -> list[tuple[int, dict]]:
    """Per ``(s, slices)`` part: its distinct f count and its colliding f.

    A part's table is dropped once counted, so nothing of a non-colliding
    f outlives its part.
    """
    out = []
    for _, table in _shard_tables(field_new(p, d), parts):
        out.append((len(table), {key: tuple(pairs) for key, pairs in table.items()
                                 if type(pairs) is list}))
        del table  # before the next part's table is built
    return out


def run_census(p: int, q: int, threads: int = 1) -> CensusReport:
    """Tabulate the degree-p compositions over F_q and check them.

    The parts of shards 0 and 1 are enumerated and weighted (module
    docstring), which gives the totals over all q^(2p-2) pairs.  Every
    colliding f of every part is classified, and counts for its part's
    weight.
    """
    d = _log_base(q, p)
    spec = field_new(p, d)
    enumerated = enumerated_pairs(p, q)
    if enumerated > PAIR_LIMIT:
        raise TooLarge(f"{enumerated} composition pairs to enumerate in "
                       f"shards 0 and 1 exceed {PAIR_LIMIT}")

    parts = _parts(spec)
    jobs = [(part.s, slices) for part, slices in parts]
    shards = (0, 1)
    workers = min(threads, len(shards), os.cpu_count() or 1)
    if workers > 1:
        # one worker per shard, which builds the per-h data of its parts only
        per_shard = [[job for job in jobs if job[0] == s] for s in shards]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tables = [one for done in pool.map(partial(_tabulate_shards, p, d),
                                               per_shard)
                      for one in done]
    else:
        tables = _tabulate_shards(p, d, jobs)

    # Parts are key-disjoint; each enumerated f counts for its part's weight.
    spectrum_observed: dict[int, int] = {}
    class_spectrum: dict[str, dict[int, int]] = {"F": {}, "S": {}, "M": {}}
    unclassified: list[Mismatch] = []
    colliding: dict = {}
    part_pairs: list[int] = []
    distinct = 0
    for (count, shard_colliding), (part, _) in zip(tables, parts):
        w = part.weight
        distinct += w * count
        singles = count - len(shard_colliding)
        part_pairs.append(singles + sum(map(len, shard_colliding.values())))
        if singles:
            spectrum_observed[1] = spectrum_observed.get(1, 0) + w * singles
        for key, pairs in shard_colliding.items():
            k = len(pairs)
            spectrum_observed[k] = spectrum_observed.get(k, 0) + w
            cls = classify(poly_of_key(spec, key, p))
            if cls.tag is CollisionTag.NONE:
                unclassified.append(Mismatch(
                    "classification", format_poly(poly_of_key(spec, key, p).poly),
                    "none", "a collision class"))
                continue
            per_k = class_spectrum[cls.tag.value]
            per_k[k] = per_k.get(k, 0) + w
        colliding.update(shard_colliding)

    return CensusReport(
        p=p,
        q=q,
        spectrum_observed=spectrum_observed,
        spectrum_predicted=counting.spectrum(p, q),
        class_counts={t: sum(ks.values()) for t, ks in class_spectrum.items()},
        class_spectrum=class_spectrum,
        decomposable_observed=distinct,
        unclassified=unclassified,
        parts=[part for part, _ in parts],
        part_pairs=part_pairs,
        field_spec=spec,
        colliding_pairs=colliding,
    )


def verify(report: CensusReport) -> bool:
    """True when the observed census matches every prediction and invariant."""
    return not report.mismatches


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
