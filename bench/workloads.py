"""The three workloads: a fresh import of the program, seeded inputs, one
batch of work, and the checks applied to each batch's outputs.

Every expected answer is fixed when the inputs are made, by a computation
done here (root counts by evaluation at every field element, the paper's
closed forms, recounts by a loop of ``left_divide``) or by a property the
method must have.  None is a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Optional

MODULES = ("gf", "polyring", "decomp_core", "constructions", "identify",
           "counting", "census", "cli")


class Lib:
    """The program's modules from one fresh import.

    Dropping every ``wildcomp`` module first makes each import start from
    scratch, with an empty field cache, so set-up can be timed repeatedly.
    """

    def __init__(self) -> None:
        for name in list(sys.modules):
            if name == "wildcomp" or name.startswith("wildcomp."):
                del sys.modules[name]
        self.pkg = importlib.import_module("wildcomp")
        for name in MODULES:
            setattr(self, name, importlib.import_module("wildcomp." + name))

    def modules(self) -> list:
        return [self.pkg] + [getattr(self, name) for name in MODULES]


# ---------------------------------------------------------------------------
# Oracles computed apart from the program.
# ---------------------------------------------------------------------------

def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num}/{den} is not an integer")
    return q


def closed_forms(p: int, q: int) -> dict[str, int]:
    """c_2, c_(p+1) and #D_(p^2) over F_q from the paper's closed forms.

    With tau the number of divisors of p-1 and A = tau*q - q + 1:
    c_2 = q^(p-1) - 1 + A (q-1)^2 (p-2) / (2(p-1)) + M,
    c_(p+1) = A (q-1)(q-p) / (p(p^2-1)),
    #D = q^(2p-2) - q^(p-1) + 1 - A (q-1)(qp-p-2) / (2(p+1)) - M,
    where M = q(q-1)(q-2)(p-3)/4 counts the multiply original family
    (empty for p <= 3).
    """
    tau = sum(1 for i in range(1, p) if (p - 1) % i == 0)
    a = tau * q - q + 1
    m_family = _exact(q * (q - 1) * (q - 2) * (p - 3), 4) if p >= 5 else 0
    c2 = q ** (p - 1) - 1 + _exact(a * (q - 1) ** 2 * (p - 2), 2 * (p - 1)) + m_family
    cp1 = _exact(a * (q - 1) * (q - p), p * (p * p - 1))
    d_total = (q ** (2 * p - 2) - q ** (p - 1) + 1
               - _exact(a * (q - 1) * (q * p - p - 2), 2 * (p + 1)) - m_family)
    if p == 2 and 3 * d_total != 2 * q * q + 1:
        raise ArithmeticError(f"#D_4 over F_{q} is not (2q^2+1)/3")
    return {"c2": c2, "cp1": cp1, "D": d_total}


def power_table(spec, e: int) -> list[int]:
    """y^e for every field element y, by the field's own multiplication."""
    return [spec.pow_i(y, e) for y in range(spec.q)]


def count_T(spec, yp1: list[int], u: int, eps: int) -> int:
    """#{y in F_q : y^(p+1) - eps*u*y + u = 0}, by evaluation at every y."""
    add, sub, mul = spec.add_i, spec.sub_i, spec.mul_i
    eu = u if eps else 0
    return sum(1 for y in range(spec.q) if add(sub(yp1[y], mul(eu, y)), u) == 0)


def count_cubic_roots(spec, cubes: list[int], f2: int, f1: int) -> int:
    """#{a in F_q : a^3 + f2*a + f1 = 0} in characteristic 2.

    The degree-2 decompositions of x^4 + f2 x^2 + f1 x are
    (x^2 + (f2 + a^2) x) o (x^2 + a x), one for each such root a.
    """
    add, mul = spec.add_i, spec.mul_i
    return sum(1 for a in range(spec.q) if add(add(cubes[a], mul(f2, a)), f1) == 0)


def recount(lib: Lib, f) -> int:
    """Decompositions of f, by left division by every monic original h of degree p."""
    spec = f.spec
    mo, poly = lib.decomp_core.MonicOriginal, lib.polyring.Poly
    left_divide = lib.decomp_core.left_divide
    n = 0
    for inner in itertools.product(range(spec.q), repeat=spec.p - 1):
        g = left_divide(f, mo(poly(spec, (0, *inner, 1))))
        if g is not None and g.degree >= 2:
            n += 1
    return n


def in_frobenius_image(f) -> bool:
    """f in F_q[x^p] and f != x^(p^2): the Frobenius class, read off the exponents."""
    enc = f.poly.encodings
    p = f.spec.p
    return len(enc) - 1 == p * p and any(enc[:-1]) and all(
        c == 0 for i, c in enumerate(enc) if i % p)


# ---------------------------------------------------------------------------
# Query workloads.
# ---------------------------------------------------------------------------

CLASSIFY, ENUMERATE = "classify", "enumerate"


@dataclass
class Item:
    """One query of a batch, with what its answer must be."""

    kind: str                  # S, M, F, random, planted
    field: str                 # "p^d"
    op: str                    # CLASSIFY or ENUMERATE
    f: Any                     # MonicOriginal
    pair: Optional[tuple] = None       # planted (g, h)
    params: Optional[tuple] = None     # S: (u, eps); p = 2 random, planted: (f2, f1)
    twin: Optional[int] = None         # index of the item this shifts
    expect: Optional[tuple] = None     # (tag, k) for CLASSIFY
    expect_pairs: Optional[int] = None  # pair count for ENUMERATE


@dataclass(frozen=True)
class QueryMix:
    """Which inputs one batch holds, field by field.

    ``s_m`` and ``m_m`` fix the m of the S and M members per p, so that a
    batch costs nearly the same whatever the seed: M identification
    cost depends strongly on m.
    """

    fields: tuple[tuple[int, int], ...]
    s_m: dict
    m_m: dict
    frobenius: int
    random: int
    shifted: tuple[str, ...]
    enumerate_fields: tuple[tuple[int, int], ...] = ()


TABLED_MIX = QueryMix(
    fields=((2, 9), (2, 8), (3, 5), (5, 3), (7, 2), (11, 1), (13, 1)),
    s_m={2: (1,), 3: (1, 2), 5: (1, 2, 4), 7: (1, 2, 3, 6), 11: (1, 2, 10),
         13: (1, 2, 12)},
    m_m={5: (2, 3), 7: (2, 5), 11: (9,), 13: (2,)},
    frobenius=2,
    random=2,
    shifted=("F", "random", "planted"),
    # q <= 81 and q^(p-1) <= 2^13: enumerate_decompositions brute-forces here
    enumerate_fields=((2, 6), (3, 3)),
)

UNTABLED_MIX = QueryMix(
    fields=((2, 10), (3, 7), (5, 5), (7, 4)),
    s_m={2: (1,), 3: (1, 2), 5: (1, 2), 7: (1, 2)},
    m_m={5: (3,), 7: (4,)},
    frobenius=2,
    random=1,
    shifted=("F", "planted"),
)


# Batch n uses input set n mod INPUT_SETS.  Every set holds the same mix;
# a cost that hinges on one random parameter (which of two candidate a
# rebuilds first in M identification, say) then averages over the sets
# instead of moving a whole run's figures with the seed.
INPUT_SETS = 8


class QueryWorkload:
    """classify (and enumerate_decompositions) on a fixed, seeded input mix."""

    def __init__(self, name: str, mix: QueryMix) -> None:
        self.name = name
        self.mix = mix

    # -- set-up (timed as setup_s) -------------------------------------------

    def generate(self, lib: Lib, rng: random.Random) -> list[list[Item]]:
        fields = [(p, d, lib.gf.field_new(p, d))
                  for p, d in self.mix.fields + self.mix.enumerate_fields]
        return [self._input_set(lib, rng, fields) for _ in range(INPUT_SETS)]

    def _input_set(self, lib: Lib, rng: random.Random, fields: list) -> list[Item]:
        pkg = lib.pkg
        items: list[Item] = []
        for p, d, spec in fields[:len(self.mix.fields)]:
            start = len(items)
            for it in self._field_items(lib, rng, p, d, spec):
                if it.twin is not None:
                    it.twin += start
                items.append(it)
        for p, d, spec in fields[len(self.mix.fields):]:
            label = f"{p}^{d}"
            g, h = _rand_mo(lib, rng, spec, p), _rand_mo(lib, rng, spec, p)
            f = pkg.MonicOriginal(pkg.compose(g.poly, h.poly))
            items.append(Item("planted", label, ENUMERATE, f,
                              pair=pkg.Decomposition(g, h), params=_p2_params(f)))
            f = _rand_original(lib, rng, spec)
            items.append(Item("random", label, ENUMERATE, f,
                              params=_p2_params(f)))
        return items

    def _field_items(self, lib, rng, p, d, spec) -> list[Item]:
        pkg = lib.pkg
        label = f"{p}^{d}"
        out: list[Item] = []

        def nonzero() -> Any:
            return spec.elem(rng.randrange(1, spec.q))

        def anyelem() -> Any:
            return spec.elem(rng.randrange(spec.q))

        for m in self.mix.s_m[p]:
            for eps in (0, 1):
                u = nonzero()
                params = pkg.SimplyParams(u, nonzero(), eps, m, p)
                f = pkg.original_shift(pkg.build_S(params), anyelem())
                out.append(Item("S", label, CLASSIFY, f, params=(u.val, eps)))
        for m in self.mix.m_m.get(p, ()):
            b = nonzero()
            a = nonzero()
            while a == b ** p:
                a = nonzero()
            f, col = pkg.build_M(pkg.MultiplyParams(a, b, m, p))
            if col.k != 2:
                raise AssertionError(f"M member over {label} has k = {col.k}")
            out.append(Item("M", label, CLASSIFY, pkg.original_shift(f, anyelem())))
        xp = pkg.Poly.monomial(spec, p)
        for _ in range(self.mix.frobenius):
            h = _rand_mo(lib, rng, spec, p)
            while h.poly == xp:
                h = _rand_mo(lib, rng, spec, p)
            out.append(Item("F", label, CLASSIFY,
                            pkg.MonicOriginal(pkg.compose(xp, h.poly))))
        for _ in range(self.mix.random):
            f = _rand_original(lib, rng, spec)
            out.append(Item("random", label, CLASSIFY, f, params=_p2_params(f)))
        g, h = _rand_mo(lib, rng, spec, p), _rand_mo(lib, rng, spec, p)
        f = pkg.MonicOriginal(pkg.compose(g.poly, h.poly))
        out.append(Item("planted", label, CLASSIFY, f,
                        pair=pkg.Decomposition(g, h), params=_p2_params(f)))
        # Shifted copies for the invariance check, of kinds whose answer is
        # not already a shift of a construction.
        for kind in self.mix.shifted:
            i = next(j for j, it in enumerate(out) if it.kind == kind)
            src = out[i]
            w = nonzero()
            out.append(Item(src.kind, label, CLASSIFY,
                            pkg.original_shift(src.f, w),
                            params=src.params, twin=i))
        return out

    # -- expected answers (untimed, once per run) ------------------------------

    def expect(self, lib: Lib, sets: list[list[Item]]) -> None:
        tables: dict = {}
        for it in itertools.chain.from_iterable(sets):
            spec = it.f.spec
            p = spec.p
            if spec not in tables:
                tables[spec] = power_table(spec, p + 1)
            yp1 = tables[spec]
            if it.op == ENUMERATE:
                it.expect_pairs = (count_cubic_roots(spec, yp1, *it.params)
                                   if p == 2 else recount(lib, it.f))
                continue
            if it.kind == "S":
                k = count_T(spec, yp1, *it.params)
                it.expect = ("S", k) if k >= 2 else ("none", None)
            elif it.kind == "M":
                it.expect = ("M", None)
            elif it.kind == "F":
                it.expect = ("F", None)
            elif p == 2:
                f2, f1 = it.params
                k = count_cubic_roots(spec, yp1, f2, f1)
                if k < 2:
                    it.expect = ("none", None)
                else:
                    it.expect = ("F", None) if f1 == 0 else ("S", k)
            elif it.kind == "random":
                # Decomposables number at most q^(2p-2) among the
                # q^(p^2-1) monic originals: at most 243^-4 of them over
                # the fields used here, so a random f has no collision.
                it.expect = ("none", None)
            elif in_frobenius_image(it.f):
                it.expect = ("F", None)
            # else: a planted g o h with p odd; checked by its properties

    # -- one batch (timed) -----------------------------------------------------

    def batch(self, lib: Lib, sets: list[list[Item]], n: int) -> list:
        items = sets[n % len(sets)]
        classify = lib.pkg.classify
        enumerate_decompositions = lib.pkg.enumerate_decompositions
        return [classify(it.f) if it.op == CLASSIFY else enumerate_decompositions(it.f)
                for it in items]

    def units(self, sets: list[list[Item]]) -> int:
        return len(sets[0])

    # -- checks (untimed) ------------------------------------------------------

    def check(self, lib: Lib, sets: list[list[Item]], n: int, outs: list,
              rng: random.Random) -> list[str]:
        items = sets[n % len(sets)]
        problems: list[str] = []
        for idx, (it, out) in enumerate(zip(items, outs)):
            where = f"{it.op} {it.kind} over {it.field} (item {idx})"
            if it.op == ENUMERATE:
                pairs = out.collision.decomps
                if not out.complete:
                    problems.append(f"{where}: complete is False")
                if len(pairs) != it.expect_pairs:
                    problems.append(f"{where}: {len(pairs)} pairs, expected {it.expect_pairs}")
                if it.pair is not None and it.pair not in pairs:
                    problems.append(f"{where}: planted pair missing")
                continue
            got = _answer(out)
            if it.expect is not None and got != it.expect:
                problems.append(f"{where}: got {got}, expected {it.expect}")
            if it.twin is not None and got != _answer(outs[it.twin]):
                problems.append(f"{where}: answer changed under an original shift")
            if it.expect is None and got[0] != "none":
                problems.extend(self._check_planted(lib, it, got, where))
        return problems

    @staticmethod
    def _check_planted(lib: Lib, it: Item, got: tuple, where: str) -> list[str]:
        """A classified planted g o h: the class's pairs include (g, h).

        Shifted copies carry no pair; for them only the count is checked.
        """
        if got[0] == "F":
            return [f"{where}: tagged F but f is not in F_q[x^p]"]
        res = lib.pkg.enumerate_decompositions(it.f)
        want = got[1] if got[0] == "S" else 2
        out = []
        if len(res.collision) != want:
            out.append(f"{where}: {len(res.collision)} pairs for class {got}")
        if it.pair is not None and it.pair not in res.collision.decomps:
            out.append(f"{where}: planted pair not among the class's pairs")
        return out


def _answer(cls) -> tuple:
    tag = cls.tag.value
    return (tag, cls.simply.k if tag == "S" else None)


def _rand_mo(lib: Lib, rng: random.Random, spec, degree: int):
    inner = [rng.randrange(spec.q) for _ in range(degree - 1)]
    return lib.pkg.MonicOriginal(lib.pkg.Poly(spec, (0, *inner, 1)))


def _rand_original(lib: Lib, rng: random.Random, spec):
    """A uniform monic original of degree p^2; for p = 2, x^4 + f2 x^2 + f1 x.

    With p = 2 a nonzero x^3 coefficient rules out every decomposition, so
    the x^3 term is left out to give the cubic oracle something to decide.
    """
    p = spec.p
    if p == 2:
        return lib.pkg.MonicOriginal(lib.pkg.Poly(
            spec, (0, rng.randrange(spec.q), rng.randrange(spec.q), 0, 1)))
    return _rand_mo(lib, rng, spec, p * p)


def _p2_params(f) -> Optional[tuple]:
    if f.spec.p != 2:
        return None
    enc = f.poly.encodings
    if enc[3]:
        raise AssertionError("p = 2 input with a nonzero x^3 coefficient")
    return (enc[2], enc[1])


# ---------------------------------------------------------------------------
# Census workload.
# ---------------------------------------------------------------------------

CENSUS_FIELDS = ((5, 5), (3, 27))
RECOUNT_SAMPLE = 2  # colliding f per field and batch, recounted by left_divide


@dataclass
class CensusRun:
    """What one batch keeps of each census report for its checks."""

    p: int
    q: int
    spec: Any
    colliding_pairs: dict
    decomposable: int


class CensusWorkload:
    """``wildcomp --json census`` for F_5 and for F_27 with p = 3, through cli.main."""

    name = "census-tab"

    def __init__(self) -> None:
        self.runs: list[CensusRun] = []

    def generate(self, lib: Lib, rng: random.Random) -> tuple:
        for p, q in CENSUS_FIELDS:
            d = 0
            while p ** d < q:
                d += 1
            lib.gf.field_new(p, d)
        census = lib.census

        def run_census(*args, **kwargs):
            # Looked up at call time, so a traced run_census is the one called.
            rep = census.run_census(*args, **kwargs)
            self.runs.append(CensusRun(rep.p, rep.q, rep.field_spec,
                                       rep.colliding_pairs,
                                       rep.decomposable_observed))
            return rep

        lib.cli.run_census = run_census
        return CENSUS_FIELDS

    def expect(self, lib: Lib, inputs: tuple) -> None:
        self.closed = {(p, q): closed_forms(p, q) for p, q in inputs}

    def batch(self, lib: Lib, inputs: tuple, n: int) -> list:
        main = lib.cli.main
        self.runs = []
        outs = []
        for p, q in inputs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(["--json", "census", "--p", str(p), "--q", str(q)])
            outs.append((rc, buf.getvalue()))
        return outs

    def units(self, inputs: tuple) -> int:
        return sum(q ** (2 * p - 2) for p, q in inputs)

    def check(self, lib: Lib, inputs: tuple, n: int, outs: list,
              rng: random.Random) -> list[str]:
        runs = self.runs
        problems: list[str] = []
        if len(runs) != len(inputs):
            return [f"{len(runs)} census reports for {len(inputs)} fields"]
        for (p, q), (rc, text), run in zip(inputs, outs, runs):
            where = f"census p={p} q={q}"
            if rc != 0:
                problems.append(f"{where}: exit code {rc}")
                continue
            problems.extend(f"{where}: {msg}" for msg in
                            self._check_one(lib, p, q, json.loads(text), run, rng))
        return problems

    def _check_one(self, lib, p, q, payload, run, rng) -> list[str]:
        out = []
        obs = {int(k): v for k, v in payload["spectrum_observed"].items()}
        total = q ** (2 * p - 2)
        if sum(k * c for k, c in obs.items()) != total:
            out.append("sum k*c_k differs from q^(2p-2)")
        stray = {k: c for k, c in obs.items() if c and k not in (1, 2, p + 1)}
        if stray:
            out.append(f"c_k nonzero outside {{1, 2, p+1}}: {stray}")
        if payload["class_counts"]["F"] != q ** (p - 1) - 1:
            out.append(f"F class count {payload['class_counts']['F']}")
        want = self.closed[(p, q)]
        if obs.get(2, 0) != want["c2"]:
            out.append(f"c_2 = {obs.get(2, 0)}, closed form {want['c2']}")
        if obs.get(p + 1, 0) != want["cp1"]:
            out.append(f"c_(p+1) = {obs.get(p + 1, 0)}, closed form {want['cp1']}")
        if payload["decomposable_observed"] != want["D"] or run.decomposable != want["D"]:
            out.append(f"#D = {payload['decomposable_observed']}, closed form {want['D']}")
        if not (payload["verified"] and payload["class_partition_ok"]):
            out.append("report not verified")
        keys = list(run.colliding_pairs)
        for key in rng.sample(keys, min(RECOUNT_SAMPLE, len(keys))):
            f = lib.census.poly_of_key(run.spec, key, p)
            k = len(run.colliding_pairs[key])
            n = recount(lib, f)
            if n != k:
                out.append(f"{f.poly}: census has {k} pairs, left_divide finds {n}")
        return out


WORKLOADS = {
    "census-tab": CensusWorkload,
    "query-tabled": lambda: QueryWorkload("query-tabled", TABLED_MIX),
    "query-untabled": lambda: QueryWorkload("query-untabled", UNTABLED_MIX),
}
