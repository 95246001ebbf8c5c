"""Run one benchmark workload, or all four, and print its metrics.

    python3 perfbench/run.py --workload closure-d3 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run from the root of a checkout; the library is imported from src/.
A run sets the workload up several times in fresh processes (setup_s is
their median), then runs jobs in a closed loop, one at a time on one
thread, until the next job would end past --seconds (at least one job).
Every job's outputs are checked outside the timed interval.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1
the run alternates untraced and traced jobs, and the metrics are the
per-layer ones read from the traced jobs, plus the tracing overhead
(traced job time minus untraced job time) and the median query latency
of the untraced jobs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted counts operations
(decisions, oracle sweep pairs, validator checks, morphisms) and
failed those whose verdict is Unknown, contradicts its reference, or
is a violation.  The full record, with seed, Python version, CPU count
and, for traced runs, every span, goes to perfbench/out/.
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
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import CONTRACTION_STAGES, FAMILIES, SRC, WORKLOADS, LibraryMissing, Tally

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "decide_us.p90": "us",
}

# each span name also names a per-layer metric: its self time, with "_s"
SPANS = (
    "term.enumerate",
    "congruence.instantiate",
    "congruence.session_init",
    "congruence.saturate",
    "congruence.decide",
    "congruence.audit",
    "strict.validate_strict",
    "strict.validate_involutive",
    "strict.factorization",
    "strict.eval",
    "models.build_product",
    "models.oracle_compare",
    "presentation.validate",
    "contraction.build",
    "contraction.validate",
    "contraction.morphism",
)

# per-layer metric -> (unit, better)
PER_LAYER = {
    **{f"{s}_s": ("s", "lower") for s in SPANS},
    "decide_us.p50": ("us", "lower"),
    "term.universe_terms": ("count", "higher"),
    "term.arena_nodes": ("count", "lower"),
    "term.arena_outside_universe": ("count", "lower"),
    "congruence.instances": ("count", "lower"),
    **{f"congruence.instances.{f}": ("count", "lower") for f in FAMILIES},
    "congruence.processed": ("count", "lower"),
    "congruence.merges": ("count", "lower"),
    "congruence.budget_used_frac": ("frac", "lower"),
    "congruence.classes": ("count", "lower"),
    "congruence.universe_classes": ("count", "lower"),
    "congruence.nodes_per_class": ("nodes/class", "lower"),
    "congruence.verdicts.equal": ("count", "higher"),
    "congruence.verdicts.not_equal": ("count", "higher"),
    "congruence.verdicts.unknown": ("count", "lower"),
    "congruence.trace_steps_mean": ("steps", "lower"),
    "congruence.audit_checked": ("count", "higher"),
    "strict.checked": ("count", "higher"),
    "strict.violations": ("count", "lower"),
    "strict.evals": ("count", "higher"),
    "models.product_cells": ("count", "higher"),
    "models.oracle_pairs": ("count", "higher"),
    "models.oracle_equal_pairs": ("count", "higher"),
    "presentation.checked": ("count", "higher"),
    **{f"contraction.stage_{k}.{n}": ("count", "lower")
       for k in ("nodes", "processed", "universe") for n in CONTRACTION_STAGES},
    "contraction.kappa_cells": ("count", "higher"),
    "contraction.validate_checked": ("count", "higher"),
    "contraction.morphisms_checked": ("count", "higher"),
    "runtime.gc_s": ("s", "lower"),
    "runtime.gc_collections": ("count", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "ops": ("count", "higher"),
    "ops_failed_frac": ("frac", "lower"),
}


@dataclass
class Run:
    """What the measuring loop saw: job times, query latencies, checks."""

    tally: Tally = field(default_factory=Tally)
    tracer: Tracer = field(default_factory=Tracer)
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    traced_jobs: list[int] = field(default_factory=list)
    latency_ns: array = field(default_factory=lambda: array("q"))
    counters: dict = field(default_factory=dict)


def measure(wl, seconds: float, trace: bool) -> Run:
    run = Run()
    start = perf_counter()
    job = 0
    while True:
        traced = trace and job % 2 == 1
        run.tracer.enabled = traced
        gc.collect()  # start every job from the same heap, outside the timing
        t0 = perf_counter()
        with run.tracer.job(job):
            out = wl.job(run.tracer, job)
        elapsed = perf_counter() - t0
        run.tracer.enabled = False
        wl.check(out, run.tally)
        if traced:
            run.traced_s.append(elapsed)
            run.traced_jobs.append(job)
            run.counters = wl.counters(out)
        else:
            run.untraced_s.append(elapsed)
            run.latency_ns.extend(out["queries"].latency_ns)
        del out
        job += 1
        if trace and not run.traced_s:
            continue
        typical = statistics.median(run.untraced_s + run.traced_s)
        if perf_counter() - start + typical > seconds:
            return run


def latency_cuts(run: Run) -> list[float]:
    """The 99 percentile cut points of the query latencies, in ns."""
    return statistics.quantiles(run.latency_ns, n=100, method="inclusive")


def end_to_end_metrics(run: Run, setup_samples: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup_samples),
        "job_s": statistics.median(run.untraced_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decide_us.p90": latency_cuts(run)[89] / 1000,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(run: Run) -> dict:
    values = dict.fromkeys(PER_LAYER, 0)
    selfs = [run.tracer.self_times(j) for j in run.traced_jobs]
    for span in SPANS:
        values[f"{span}_s"] = statistics.median(s.get(span, 0.0) for s in selfs)
    unknown = set(run.counters) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"counters outside the metric catalogue: {sorted(unknown)}")
    values.update(run.counters)
    values["decide_us.p50"] = latency_cuts(run)[49] / 1000
    last = run.traced_jobs[-1]
    values["runtime.gc_s"] = statistics.median(sum(run.tracer.gc[j]) for j in run.traced_jobs)
    values["runtime.gc_collections"] = len(run.tracer.gc[last])
    values["trace.job_s"] = statistics.median(run.traced_s)
    values["trace.overhead_s"] = values["trace.job_s"] - statistics.median(run.untraced_s)
    values["trace.spans"] = run.tracer.job_spans(last)
    values["ops"] = run.tally.attempted
    values["ops_failed_frac"] = failed_frac(run.tally)
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}


def failed_frac(tally: Tally) -> float:
    return tally.failed / tally.attempted if tally.attempted else 1.0


def result_line(run: Run, metrics: dict) -> dict:
    return {
        "correct": run.tally.failed == 0 and run.tally.attempted > 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Time import plus set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setup_samples = [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    t0 = perf_counter()
    wl = WORKLOADS[workload](seed)
    setup_samples.append(perf_counter() - t0)
    run = measure(wl, seconds, trace)
    metrics = per_layer_metrics(run) if trace else end_to_end_metrics(run, setup_samples)
    line = result_line(run, metrics)
    cuts = latency_cuts(run)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_s_samples": setup_samples,
        "untraced_job_s": run.untraced_s,
        "traced_job_s": run.traced_s,
        "decide_samples": len(run.latency_ns),
        "decide_us": {f"p{k}": cuts[k - 1] / 1000 for k in (10, 50, 90, 99)},
        "ops": run.tally.attempted,
        "ops_failed": run.tally.failed,
        "ops_failed_frac": failed_frac(run.tally),
        "failures": run.tally.notes,
        "result": line,
        "spans": run.tracer.spans,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    print(
        f"# {workload} seed={seed} python={record['python']} nproc={record['nproc']} "
        f"jobs={len(run.untraced_s)}+{len(run.traced_s)} traced "
        f"decide_samples={record['decide_samples']} ops={record['ops']} "
        f"ops_failed_frac={record['ops_failed_frac']:.6g} record={path.relative_to(HERE.parent)}"
    )
    for note in run.tally.notes:
        print(f"# FAILED {note}")
    return line


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own fresh process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, check=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        rows = dict(line["metrics"])
        if not trace:
            rows["ops"] = {"value": line["attempted"], "unit": "count"}
            rows["ops_failed_frac"] = {
                "value": line["failed"] / line["attempted"], "unit": "frac"}
        for name, m in rows.items():
            value = m["value"]
            text = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
            print(f"{workload:17s} {name:40s} {text:>16} {m['unit']}")
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            t0 = perf_counter()
            WORKLOADS[args.workload](args.seed)
            print(json.dumps({"setup_s": perf_counter() - t0}))
            return 0
        if not (SRC / "omegacube").is_dir():
            raise LibraryMissing(f"no omegacube package under {SRC}")
        if args.workload == "all":
            line = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"run.py: {exc}; run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
