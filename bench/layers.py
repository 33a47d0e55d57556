"""Per-layer measurement: spans around the program's public functions, the
metrics read from them, and micro-measures of field and polynomial kernels.

Spans are recorded by wrapping functions from the outside; the program's
sources are not changed.  Each public function of the eight modules is
wrapped under every name through which a module calls it (``census.classify``
is the same wrapper as ``identify.classify``).  Field operations, and the two
helpers below that run once per field element or per constructor, are left
unwrapped: they are called millions of times and a span would cost more than
the work it measures.
"""

from __future__ import annotations

import gzip
import inspect
import json
import random
import statistics
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

from workloads import MODULES, Lib

UNWRAPPED = {"polyring.evaluate", "constructions.prime_power_exponent"}

TAGS = ("F", "S", "M", "none")


def _found(result) -> int:
    return int(result is not None)


OUTCOME: dict[str, Callable] = {
    "decomp_core.left_divide": _found,
    "identify.identify_simply": _found,
    "identify.identify_multiply": _found,
    "identify.classify": lambda cls: TAGS.index(cls.tag.value),
}

POLYRING_FNS = ("count_roots_in_field", "modexp_x_to_q", "gcd", "exact_div",
                "compose", "derivative", "poly_pth_root", "taylor_expansion")


def public_functions(lib: Lib):
    """(span name, function) for every public function the modules define."""
    for modname in MODULES:
        mod = getattr(lib, modname)
        for attr, val in vars(mod).items():
            name = f"{modname}.{attr}"
            if (not attr.startswith("_") and inspect.isfunction(val)
                    and val.__module__ == mod.__name__ and name not in UNWRAPPED):
                yield name, val


class Tracer:
    """Spans kept in flat arrays: name id, parent index, start, end, outcome.

    ``install`` swaps the wrappers in, ``remove`` puts the originals back,
    so the checks between batches run untraced.
    """

    def __init__(self, lib: Lib) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.outcome = array("b")
        self.stack = [-1]
        self.patches: list[tuple] = []
        for name, fn in public_functions(lib):
            wrapper = self._wrap(len(self.names), fn, OUTCOME.get(name))
            self.names.append(name)
            for mod in lib.modules():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self.patches.append((mod, attr, fn, wrapper))
        self.batch_id = len(self.names)
        self.names.append("bench.batch")

    def install(self) -> None:
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, fn, _ in self.patches:
            setattr(mod, attr, fn)

    def _wrap(self, nid: int, fn: Callable, outcome: Optional[Callable]) -> Callable:
        name_a, parent_a, t0_a, t1_a, out_a = (self.name, self.parent, self.t0,
                                                self.t1, self.outcome)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            out_a.append(-1)
            t1_a.append(0.0)
            stack.append(idx)
            t0_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1_a[idx] = clock()
                stack.pop()
            if outcome is not None:
                out_a[idx] = outcome(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, fn: Callable, *args):
        """Run one batch under a root span, which every span of it descends from."""
        return self._wrap(self.batch_id, fn, None)(*args)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "t0": self.t0.tolist(),
                       "t1": self.t1.tolist(), "outcome": self.outcome.tolist()}, fh)


class Summary:
    """Totals read from the spans: per name, and per (parent name, name)."""

    def __init__(self, tr: Tracer) -> None:
        n = len(tr.name)
        dur = [tr.t1[i] - tr.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = tr.parent[i]
            if par >= 0:
                child[par] += dur[i]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        self.under_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.by_tag: dict[str, list[float]] = {t: [] for t in TAGS}
        names = tr.names
        for i in range(n):
            name = names[tr.name[i]]
            self.calls[name] += 1
            self.total[name] += dur[i]
            self.self_time[name] += dur[i] - child[i]
            out = tr.outcome[i]
            if out >= 0:
                if name == "identify.classify":
                    self.by_tag[TAGS[out]].append(dur[i])
                else:
                    self.hits[name] += out
            par = tr.parent[i]
            if par >= 0:
                key = (names[tr.name[par]], name)
                self.under[key] += dur[i]
                self.under_calls[key] += 1
        self.batches = self.calls["bench.batch"]

    def per_batch(self, value: float) -> float:
        return value / self.batches

    def ratio(self, name: str) -> float:
        calls = self.calls[name]
        return self.hits[name] / calls if calls else 0.0


def layer_metrics(s: Summary, census_counts: Optional[dict],
                  pairs_per_batch: int) -> tuple[dict, dict]:
    """The per-layer metrics of one traced phase, per batch where a count or
    time, and the census stages that add up to the traced batch time."""
    ms = 1e3
    m: dict[str, float] = {}
    for fn in POLYRING_FNS:
        name = f"polyring.{fn}"
        m[f"{name}.calls"] = s.per_batch(s.calls[name])
        m[f"{name}.self_ms"] = s.per_batch(s.self_time[name]) * ms
    ld = "decomp_core.left_divide"
    m[f"{ld}.calls"] = s.per_batch(s.calls[ld])
    m[f"{ld}.self_ms"] = s.per_batch(s.self_time[ld]) * ms
    m[f"{ld}.hit_ratio"] = s.ratio(ld)
    m["decomp_core.original_shift.self_ms"] = s.per_batch(
        s.self_time["decomp_core.original_shift"]) * ms
    for fn in ("build_S", "build_M"):
        m[f"constructions.{fn}.self_ms"] = s.per_batch(
            s.self_time[f"constructions.{fn}"]) * ms
    for tag in TAGS:
        durs = s.by_tag[tag]
        m[f"identify.classify_ms.{tag}"] = statistics.median(durs) * ms if durs else 0.0
    for fn in ("identify_simply", "identify_multiply"):
        m[f"identify.{fn}.hit_ratio"] = s.ratio(f"identify.{fn}")
    bf = "identify.brute_force_decompositions"
    m["identify.brute_force.calls"] = s.per_batch(s.calls[bf])
    m["identify.brute_force.self_ms"] = s.per_batch(s.self_time[bf]) * ms

    rc = "census.run_census"
    classify_in = s.under[(rc, "identify.classify")]
    classify_calls = s.under_calls[(rc, "identify.classify")]
    spectrum_in = s.under[(rc, "counting.spectrum")]
    tabulate = s.total[rc] - classify_in - spectrum_in
    m["census.tabulate_us_per_pair"] = (
        s.per_batch(tabulate) / pairs_per_batch * 1e6 if s.calls[rc] else 0.0)
    m["census.classify_ms_per_f"] = classify_in / classify_calls * ms if classify_calls else 0.0
    verify = s.total["census.verify"] + s.total["census.class_partition_check"]
    m["census.verify_ms"] = s.per_batch(verify) * ms
    m["census.distinct_f"] = census_counts["distinct"] if census_counts else 0
    m["census.colliding_f"] = census_counts["colliding"] if census_counts else 0
    m["counting.spectrum_ms"] = s.per_batch(s.total["counting.spectrum"]) * ms
    main = "cli.main"
    cli_overhead = s.total[main] - sum(
        s.under[(main, child)] for child in
        (rc, "census.verify", "census.class_partition_check"))
    m["cli.census_overhead_ms"] = s.per_batch(cli_overhead) * ms
    m["trace.unaccounted_ms"] = s.per_batch(s.self_time["bench.batch"]) * ms
    stages = {
        "tabulate": s.per_batch(tabulate) * ms,
        "classify": s.per_batch(classify_in) * ms,
        "spectrum": s.per_batch(spectrum_in) * ms,
        "verify": m["census.verify_ms"],
        "cli_overhead": m["cli.census_overhead_ms"],
    }
    return m, stages


# ---------------------------------------------------------------------------
# Micro-measures of single layers, outside the batches.
# ---------------------------------------------------------------------------

def _median_time(fn: Callable, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _op_ns(op: Callable, args: list[tuple], reps: int = 5) -> float:
    """Median time of one call, loop included, over ``args``."""

    def loop() -> None:
        for a, b in args:
            op(a, b)

    return _median_time(loop, reps) / len(args) * 1e9


def micro_metrics(lib: Lib, rng: random.Random) -> dict:
    gf, poly = lib.gf, lib.polyring.Poly
    m: dict[str, float] = {}
    mod9 = gf.field_new(2, 9).modulus
    m["gf.build_ms.q512"] = _median_time(lambda: gf.FieldSpec(2, 9, mod9), 3) * 1e3
    for label, (p, d), n in (("tabled", (3, 5), 20000), ("untabled", (3, 7), 2000)):
        spec = gf.field_new(p, d)
        q = spec.q
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(n)]
        m[f"gf.mul_ns.{label}"] = _op_ns(spec.mul_i, pairs)
        m[f"gf.add_ns.{label}"] = _op_ns(spec.add_i, pairs)
        inv = spec.inv_i
        m[f"gf.inv_ns.{label}"] = _op_ns(lambda a, b: inv(b), pairs[:n // 10])
    spec = gf.field_new(3, 5)
    for deg in (32, 64, 128):
        a = poly(spec, [rng.randrange(spec.q) for _ in range(deg)] + [1])
        b = poly(spec, [rng.randrange(spec.q) for _ in range(deg)] + [1])
        m[f"polyring.mul_us.d{deg}"] = _median_time(lambda: a * b, 7) * 1e6
    return m
