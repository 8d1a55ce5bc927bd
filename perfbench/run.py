#!/usr/bin/env python3
"""z2persist benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload rips-clouds --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
One client runs one job at a time in this process.  Every job's output is
checked against ``perfbench/refs``.  With ``--trace 0`` the run reports
the end-to-end metrics of BENCHMARK.json, measured untraced after a
warm-up: each job's latency is the median, over every run of its input
(the job list repeats each input, and is run REPEATS times), of the
run's time at reference speed (speed.py).  With
``--trace 1`` it alternates untraced passes with traced ones (spans
around the public functions of each module), ends with a counting pass
(work counters), and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (seed, per-job sizes and
latencies, machine) goes to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Passes over the job list.  Every input is in the list two to eight
# times, so a job's latency is the median of 8 to 32 runs spread over
# the whole run.
REPEATS = 4
TRACED_REPEATS = 2
# Seconds one pass over each workload's 112 jobs took on a 2-core x86-64
# machine (Python 3.11, numpy 2.4) at the commit that defined the
# benchmark.  A run holds whole multiples of the job list, enough for
# its untraced passes to last about --seconds there; it is then a fixed
# amount of work, and a faster library finishes sooner.
PASS_SECONDS = {"rips-clouds": 6.5, "surface-cli": 6.5, "bottleneck-pairs": 6.5}
# Cold imports timed before each untraced pass and after the last one.
SETUP_SAMPLES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cold_import_seconds(samples: int, discard_first: bool = False) -> list[float]:
    """Time for a fresh interpreter to import z2persist.cli, per start, at
    reference speed (speed.py): scaled by the speed loop timed around it.

    The very first start of a run is discarded: in a fresh checkout it
    also writes the bytecode cache.
    """
    code = ("import time; t = time.perf_counter(); import z2persist.cli; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    times = []
    for _ in range(samples + discard_first):
        loops = [speed.loop_seconds() for _ in range(speed.WINDOW)]
        r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60, check=True)
        loops += [speed.loop_seconds() for _ in range(speed.WINDOW)]
        times.append(float(r.stdout) * speed.scale(loops, speed.WINDOW - 1))
    return times[int(discard_first):]


def latency_metrics(seconds: list[float]) -> dict:
    return {"wall_s": sum(seconds), "job_p50_s": statistics.median(seconds),
            "job_p90_s": statistics.quantiles(seconds, n=10)[-1]}


def run_pass(jobs, refs, tracer=None, counts=None, timed=False) -> dict:
    """Run the jobs back to back; time each one and check its output.

    A timed pass also times the speed loop before the first job and after
    each one, and gives every job's scale to reference speed and its time
    at reference speed as well.
    """
    seconds, failures, bars, cells = [], [], [], []
    loops = [speed.loop_seconds()] if timed else []
    for i, job in enumerate(jobs):
        run = job.run
        if tracer is not None:
            tracer.job = i
            run = tracer.wrap("job", job.run)
        cells_before = counts.c["cells"] if counts is not None else 0
        gc.collect()
        start = time.perf_counter()
        try:
            out = run()
        except Exception:  # a failing job is counted and the run goes on
            seconds.append(time.perf_counter() - start)
            if timed:
                loops.append(speed.loop_seconds())
            failures.append({"i": i, "job": job.key,
                             "problems": [traceback.format_exc(limit=3)]})
            bars.append(None)
            cells.append(None)
            continue
        seconds.append(time.perf_counter() - start)
        if timed:
            loops.append(speed.loop_seconds())
        bad = checks.problems(job, out, refs[job.key])
        if bad:
            failures.append({"i": i, "job": job.key, "problems": bad})
        kind = job.spec.kind
        if kind == "rips":
            bars.append(len(out))
        elif kind in ("extended", "persist"):
            bars.append(out[1].count("\n"))
        else:
            bars.append(job.size.get("bars"))
        cells.append(counts.c["cells"] - cells_before if counts is not None else None)
    out = {"seconds": seconds, "failures": failures, "bars": bars, "cells": cells}
    if timed:
        out["loops"] = loops
        out["scales"] = [speed.scale(loops, i) for i in range(len(seconds))]
        out["ref_seconds"] = [t * s for t, s in zip(seconds, out["scales"])]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "z2persist" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: run from a z2persist checkout; {SRC} or {spec_file} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads(spec_file.read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    refs = json.loads((BENCH / "refs" / f"{args.workload}.json").read_text())["jobs"]

    setup = []
    scale = max(1, round(args.seconds / (REPEATS * PASS_SECONDS[args.workload])))
    drawn = workloads.job_list(args.workload, args.seed, scale)
    passes = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        prepared = {}
        for spec, variant in drawn:
            if (spec.name, variant) not in prepared:
                prepared[spec.name, variant] = workloads.prepare(spec, variant, Path(tmp))
        jobs = [prepared[spec.name, variant] for spec, variant in drawn]
        # Warm-up: the first (smallest) spec of each job kind, once.
        first = {}
        for spec in workloads.WORKLOADS[args.workload]:
            first.setdefault(spec.kind, spec)
        warm = [workloads.prepare(s, 0, Path(tmp)) for s in first.values()]
        # Objects made so far belong to the benchmark; keep them out of
        # the collector's way while jobs run.
        gc.collect()
        gc.freeze()
        passes["warmup"] = run_pass(warm, refs)
        # Traced passes alternate with untraced ones, so both see the
        # same drift of the machine's speed.
        tracers = []
        for k in range(TRACED_REPEATS if args.trace else REPEATS):
            if not args.trace:
                setup += cold_import_seconds(SETUP_SAMPLES, discard_first=k == 0)
            passes[f"untraced{k}"] = run_pass(jobs, refs, timed=True)
            if args.trace:
                tracers.append(tracing.Tracer())
                with tracing.wrapped(tracing.SPAN_TARGETS, tracers[-1].wrap):
                    passes[f"traced{k}"] = run_pass(jobs, refs, tracer=tracers[-1], timed=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            counts = tracing.Counts()
            with tracing.wrapped(tracing.COUNT_TARGETS, counts.wrap):
                passes["counted"] = run_pass(jobs, refs, counts=counts)
        else:
            setup += cold_import_seconds(SETUP_SAMPLES)

    def per_input(prefix, key="seconds", stat=min):
        """Each job's `stat` over every run of its input in the passes."""
        runs = [p[key] for name, p in passes.items() if name.startswith(prefix)]
        pooled = {}
        for job, ts in zip(jobs, zip(*runs)):
            pooled.setdefault(job.key, []).extend(ts)
        return [stat(pooled[job.key]) for job in jobs]

    untraced = [p for name, p in passes.items() if name.startswith("untraced")]
    raw_best = per_input("untraced")
    best = per_input("untraced", "ref_seconds", statistics.median)
    measured = [p for name, p in passes.items() if name.startswith("traced")] or untraced
    attempted = len(jobs) * len(measured)
    failed = sum(len(p["failures"]) for p in measured)
    if args.trace:
        traced = [p for name, p in passes.items() if name.startswith("traced")]
        per_pass = [t.layer_metrics(p["scales"]) for t, p in zip(tracers, traced)]
        metrics = {m: min(pm[m] for pm in per_pass) for m in per_pass[0]}
        metrics.update(counts.layer_metrics())
        metrics["tracing_overhead_s"] = (
            sum(per_input("traced", "ref_seconds", statistics.median)) - sum(best))
        metrics["failed_frac"] = failed / attempted
    else:
        metrics = {**latency_metrics(best), "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(setup)}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in wanted}

    per_job = []
    for i, job in enumerate(jobs):
        row = {"i": i, "job": job.key, "spec": job.spec.name, "variant": job.variant,
               "size": job.size, "bars": untraced[0]["bars"][i], "seconds": best[i],
               "pass_seconds": [p["seconds"][i] for p in untraced]}
        row["raw_seconds"] = raw_best[i]
        if job.spec.baseline:
            row["baseline"] = job.spec.baseline
        if args.trace:
            row["cells"] = passes["counted"]["cells"][i]
        per_job.append(row)
    all_failures = {name: p["failures"] for name, p in passes.items() if p["failures"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": scale, "jobs": len(jobs),
        "passes": len(measured), "attempted": attempted,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "setup_samples_s": setup, "metrics": metrics, "failures": all_failures,
        "per_job": per_job,
    }
    record["raw_metrics"] = latency_metrics(raw_best)
    record["loop_s"] = [p["loops"] for p in untraced]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"],
             "passes": [t.spans for t in tracers]}) + "\n")

    print(f"workload {args.workload} seed {args.seed} jobs {len(jobs)} passes {len(measured)} "
          f"nproc {record['nproc']} python {record['python']} numpy {record['numpy']}")
    for name, fails in all_failures.items():
        for f in fails[:5]:
            print(f"FAILED ({name}) job {f['i']} {f['job']}: {f['problems']}")
    print(f"record: {OUT / (stem + '.json')}")
    correct = not all_failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
