"""Reference figures for bench/README.md, measured with the benchmark's own code.

    python3 bench/run.py --reference

Prints, and writes to ``bench/out/reference.json``: each input kind's share
of a query batch, census stages per field, the per-query cost of untabled
against tabled fields, schoolbook against Karatsuba multiplication, and the
census with one process against two.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from collections import defaultdict

from layers import Summary, Tracer
from workloads import CLASSIFY, WORKLOADS, Lib

SEED = 1


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def batch_makeup(name: str, batches: int = 5) -> dict:
    """Mean time per batch of each (op, kind) and (op, field), and its share."""
    wl = WORKLOADS[name]()
    lib = Lib()
    sets = wl.generate(lib, random.Random(SEED))
    wl.batch(lib, sets, 0)
    items = [it for items in sets for it in items]
    classify = lib.pkg.classify
    enumerate_decompositions = lib.pkg.enumerate_decompositions
    by_kind: dict[str, float] = defaultdict(float)
    by_field: dict[str, list[float]] = defaultdict(list)
    for _ in range(batches):
        for it in items:  # every set once: each kind's mean over the sets
            fn = classify if it.op == CLASSIFY else enumerate_decompositions
            dt = _timed(fn, it.f)
            by_kind[f"{it.op} {it.kind}"] += dt / (batches * len(sets))
            if it.op == CLASSIFY:
                by_field[it.field].append(dt)
    total = sum(by_kind.values())
    return {
        "batch_ms": total * 1e3,
        "kinds": {k: {"ms": v * 1e3, "share": v / total,
                      "count": sum(1 for it in sets[0] if f"{it.op} {it.kind}" == k)}
                  for k, v in sorted(by_kind.items(), key=lambda kv: -kv[1])},
        "classify_ms_per_query_by_field": {
            f: statistics.fmean(v) * 1e3 for f, v in by_field.items()},
    }


def census_stages(p: int, q: int) -> dict:
    """One traced CLI census of F_q: tabulation per pair, classify per f, root-count share."""
    lib = Lib()
    tracer = Tracer(lib)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            total = _timed(tracer.root, lib.cli.main,
                           ["--json", "census", "--p", str(p), "--q", str(q)])
    finally:
        tracer.remove()
    s = Summary(tracer)
    rc = "census.run_census"
    classify = s.under[(rc, "identify.classify")]
    n_f = s.under_calls[(rc, "identify.classify")]
    tabulate = s.total[rc] - classify - s.under[(rc, "counting.spectrum")]
    roots = s.total["polyring.count_roots_in_field"]
    return {
        "pairs": q ** (2 * p - 2),
        "traced_total_s": total,
        "tabulate_us_per_pair": tabulate / q ** (2 * p - 2) * 1e6,
        "colliding_f": n_f,
        "classify_ms_per_f": classify / n_f * 1e3,
        "root_count_share_of_classify": roots / classify,
        "root_count_self_share_of_classify":
            s.self_time["polyring.count_roots_in_field"] / classify,
    }


def multiply(rng: random.Random) -> dict:
    """Schoolbook and Karatsuba on dense degree-d products, tabled and untabled."""
    lib = Lib()
    pr = lib.polyring
    out = {}
    for p, d in ((3, 5), (3, 7)):
        spec = lib.gf.field_new(p, d)
        for deg in (32, 64, 128):
            a = [rng.randrange(spec.q) for _ in range(deg)] + [1]
            b = [rng.randrange(spec.q) for _ in range(deg)] + [1]
            reps = 5 if spec.q <= 512 else 1
            school = statistics.median(_timed(pr._mul_school, spec, a, b) for _ in range(reps))
            kara = statistics.median(_timed(pr._mul_karatsuba, spec, a, b) for _ in range(reps))
            out[f"{p}^{d} d{deg}"] = {"schoolbook_ms": school * 1e3,
                                      "karatsuba_ms": kara * 1e3,
                                      "karatsuba_over_schoolbook": kara / school}
    return out


def threads() -> dict:
    lib = Lib()
    out = {}
    for p, q in ((5, 5), (3, 27)):
        lib.census.run_census(p, q)  # fills the field tables first
        one = statistics.median(_timed(lib.census.run_census, p, q) for _ in range(2))
        two = statistics.median(_timed(lib.census.run_census, p, q, 2) for _ in range(2))
        out[f"({p},{q})"] = {"threads1_s": one, "threads2_s": two}
    return out


def reference(out_dir) -> int:
    rng = random.Random(SEED)
    ref: dict = {"makeup": {}, "census": {}}
    for name in ("query-tabled", "query-untabled"):
        ref["makeup"][name] = batch_makeup(name)
    tab = ref["makeup"]["query-tabled"]["classify_ms_per_query_by_field"]
    untab = ref["makeup"]["query-untabled"]["classify_ms_per_query_by_field"]
    ref["untabled_over_tabled"] = {
        f"{u} / {t}": untab[u] / tab[t]
        for t, u in (("2^9", "2^10"), ("3^5", "3^7"), ("5^3", "5^5"), ("7^2", "7^4"))}
    for p, q in ((5, 5), (3, 27), (2, 256)):
        ref["census"][f"({p},{q})"] = census_stages(p, q)
    ref["multiply"] = multiply(rng)
    ref["threads"] = threads()
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps(ref, indent=1))
    return 0
