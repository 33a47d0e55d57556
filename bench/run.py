"""Benchmark of wildcomp: census tabulation and collision queries.

One process, one thread, a closed loop: each batch starts when the previous
one has ended.  An operation is one batch, and every batch of a workload
does the same work on inputs made from ``--seed``.  Set-up, the expected
answers and the checks of each batch stay outside the timed part.

    python3 bench/run.py --workload query-tabled --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload census-tab --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --steadiness --runs 10 --first-seed 1
    python3 bench/run.py --reference

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes its
results, with provenance, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up is repeated and its median reported; each repeat imports afresh.
SETUP_REPEATS = 3
# batch_tail_ms is the batch time with ten batches beyond it; below this
# many batches that is no tail, and the median stands in for it.
TAIL_MIN_BATCHES = 40


@dataclass
class Phase:
    """The batches of one timed loop and what their checks found."""

    times: list[float] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)


def measure(wl, lib, inputs, seconds: float, rng: random.Random,
            tracer=None) -> Phase:
    """Run whole batches until their summed time reaches ``seconds``."""
    ph = Phase()
    clock = time.perf_counter
    while sum(ph.times) < seconds:
        if tracer is not None:
            tracer.install()
        error = None
        t0 = clock()
        try:
            n = len(ph.times)
            outs = (tracer.root(wl.batch, lib, inputs, n) if tracer
                    else wl.batch(lib, inputs, n))
        except Exception:  # a batch that raises is a failed operation
            error = traceback.format_exc()
        ph.times.append(clock() - t0)
        if tracer is not None:
            tracer.remove()
        if error is not None:
            ph.failed += 1
            ph.problems.append(error)
            continue
        bad = wl.check(lib, inputs, n, outs, rng)
        if bad:
            ph.failed += 1
            ph.wrong += 1
            ph.problems.extend(bad[:5])
    return ph


def setup(wl, seed: int):
    """Import, make every field and the inputs, and run one warm-up batch; timed."""
    from workloads import Lib

    times = []
    lib = inputs = None
    for _ in range(SETUP_REPEATS):
        lib = inputs = None
        # The modules hold reference cycles: without a collection here the
        # previous repeat's import lives on for a while, and the peak RSS
        # depends on when the collector happens to run.
        gc.collect()
        t0 = time.perf_counter()
        lib = Lib()
        inputs = wl.generate(lib, random.Random(seed))
        wl.batch(lib, inputs, 0)
        times.append(time.perf_counter() - t0)
    return times, lib, inputs


def batch_tail(times: list[float]) -> float:
    if len(times) < TAIL_MIN_BATCHES:
        return statistics.median(times)
    return sorted(times)[len(times) - 11]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(setups: list[float], ph: Phase, units: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": units * len(ph.times) / sum(ph.times),
        "batch_p50_ms": statistics.median(ph.times) * 1e3,
        "batch_tail_ms": batch_tail(ph.times) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def revision() -> str:
    """The commit the sources came from, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {"revision": revision(), "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "optimize": sys.flags.optimize,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def pick(values: dict, specs: list[dict]) -> dict:
    """The declared metrics, by name and unit; a declared metric left unmeasured is a bug."""
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    setups, lib, inputs = setup(wl, seed)
    wl.expect(lib, inputs)
    rng = random.Random(f"checks-{seed}")
    units = wl.units(inputs)
    decl = declared()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              **provenance(), "setup_s": setups, "units_per_batch": units}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if not trace:
        ph = measure(wl, lib, inputs, seconds, rng)
        values = end_to_end(setups, ph, units)
        metrics = pick(values, decl["end_to_end"])
        phases = [ph]
    else:
        from layers import Summary, Tracer, layer_metrics, micro_metrics

        plain = measure(wl, lib, inputs, seconds / 2, rng)
        tracer = Tracer(lib)
        traced = measure(wl, lib, inputs, seconds / 2, rng, tracer)
        census_counts = None
        if hasattr(wl, "runs"):
            census_counts = {"distinct": sum(r.decomposable for r in wl.runs),
                             "colliding": sum(len(r.colliding_pairs) for r in wl.runs)}
        values, stages = layer_metrics(Summary(tracer), census_counts,
                                       units if census_counts else 0)
        values.update(micro_metrics(lib, random.Random(seed)))
        untraced_p50 = statistics.median(plain.times)
        traced_p50 = statistics.median(traced.times)
        values["trace.overhead_ms"] = (traced_p50 - untraced_p50) * 1e3
        values["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
        record["untraced"] = end_to_end(setups, plain, units)
        record["traced"] = end_to_end(setups, traced, units)
        record["census_stages_ms"] = stages
        metrics = pick(values, decl["per_layer"])
        phases = [plain, traced]
        tracer.write(stem.with_suffix(".spans.json.gz"))
    attempted = sum(len(ph.times) for ph in phases)
    failed = sum(ph.failed for ph in phases)
    result = {"correct": not any(ph.wrong for ph in phases), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result)
    record["batch_s"] = [ph.times for ph in phases]
    record["problems"] = [p for ph in phases for p in ph.problems][:50]
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    report(record)
    return result


def report(rec: dict) -> None:
    """A readable summary ahead of the JSON line."""
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"rev={rec['revision'][:12]} python={rec['python']} nproc={rec['nproc']}")
    print(f"  batches attempted={rec['attempted']} failed={rec['failed']} "
          f"units/batch={rec['units_per_batch']}")
    for prob in rec["problems"][:5]:
        print(f"  problem: {prob.strip()}")
    for name, mv in rec["metrics"].items():
        print(f"  {name:42s} {mv['value']:14.4f} {mv['unit']}")
    if rec["trace"]:
        un, tr = rec["untraced"], rec["traced"]
        print(f"  untraced batch p50 {un['batch_p50_ms']:.2f} ms, traced "
              f"{tr['batch_p50_ms']:.2f} ms")
        stages = rec["census_stages_ms"]
        if any(stages.values()):
            total = sum(stages.values())
            print("  census stages per batch (ms): " + ", ".join(
                f"{k} {v:.1f}" for k, v in stages.items())
                + f"; sum {total:.1f} of traced batch mean "
                f"{statistics.fmean(rec['batch_s'][1]) * 1e3:.1f}")


# ---------------------------------------------------------------------------
# Steadiness: repeated runs, each in its own process.
# ---------------------------------------------------------------------------

def steadiness(workloads: list[str], runs: int, first_seed: int, seconds: float) -> int:
    decl = declared()
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    summary: dict = {"runs": runs, "first_seed": first_seed, "seconds": seconds,
                     **provenance(), "workloads": {}}
    for wname in workloads:
        values: dict[str, list[float]] = {}
        shares = []
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", wname,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            cp = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                timeout=900, check=False)
            if cp.returncode != 0:
                print(cp.stderr, file=sys.stderr)
                return 1
            res = json.loads(cp.stdout.strip().splitlines()[-1])
            shares.append(res["failed"] / res["attempted"])
            for mname, mv in res["metrics"].items():
                values.setdefault(mname, []).append(mv["value"])
            print(f"{wname} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + f" attempted={res['attempted']} failed={res['failed']}", flush=True)
        rows = {}
        for mname, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[mname] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "bound": bounds.get(mname),
                           "values": vals}
        summary["workloads"][wname] = {"metrics": rows, "failed_shares": shares}
        print(f"{wname}: metric, median, q1, q3, spread, bound")
        for mname, row in rows.items():
            print(f"  {mname:18s} {row['median']:12.4f} {row['q1']:12.4f} "
                  f"{row['q3']:12.4f} {row['spread']:8.4f} {row['bound']}")
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(OUT / f"steadiness-{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    sources = ROOT / "src" / "wildcomp" / "__init__.py"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="census-tab, query-tabled or query-untabled")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run each workload --runs times, one process per run")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--reference", action="store_true",
                        help="measure the reference figures quoted in bench/README.md")
    args = parser.parse_args(argv)
    if not sources.is_file():
        print(f"error: {sources.relative_to(ROOT)} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]}")
    if args.steadiness:
        return steadiness(names, args.runs, args.first_seed, args.seconds)
    if args.reference:
        from reference import reference
        return reference(OUT)
    if len(names) != 1:
        parser.error("give one --workload")
    result = run_once(names[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
