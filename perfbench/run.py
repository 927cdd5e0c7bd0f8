#!/usr/bin/env python3
"""The dfblang benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload typecheck --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout that holds ``src/dfblang``; it
imports the package from there, so nothing needs installing. With
``--trace 0`` it sets the workload up four times, runs operations one
after another (one closed-loop client, no threads) for ``--seconds``,
sets up three times more and reports the end-to-end metrics over the
whole run. With ``--trace 1`` it
runs a fixed, seed-determined batch under the per-layer tracer and
reports per-layer metrics; counts in that batch repeat exactly for a
given seed. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_BEFORE, SETUP_AFTER = 4, 3  # set-ups timed before and after the measurement
WORKLOADS = ("typecheck", "cli", "poset", "real")

perf_counter = time.perf_counter


def run_op(load, op, failures: list) -> float | None:
    """Time one operation and check its result against the known answer.

    Returns the latency, or None for an operation killed at the time
    limit: it counts as attempted and failed but never completed, so its
    time stays out of the latency and throughput figures.
    """
    start = perf_counter()
    killed = False
    try:
        result = load.run(op)
    except Exception as exc:  # an operation that raises has failed
        elapsed = perf_counter() - start
        reason = f"raised {type(exc).__name__}: {exc}"
    else:
        elapsed = perf_counter() - start
        killed = load.killed(result)
        reason = load.check(op, result)
        if reason is None and elapsed > load.op_limit_s:
            reason = f"took {elapsed:.3f} s, over the {load.op_limit_s} s limit"
    if reason:
        failures.append({"defect": load.defect(op), "reason": reason[:300]})
    return None if killed else elapsed


def set_up(cls, seed: int, tmp: Path, repeats: int):
    times, load = [], None
    for _ in range(repeats):
        load = None
        gc.collect()
        start = perf_counter()
        load = cls(seed, tmp)
        times.append(perf_counter() - start)
    return load, times


def measure(load, seconds: float):
    """Latency of every operation attempted, in order (None: killed)."""
    latencies: list[float | None] = []
    failures: list[dict] = []
    gc.collect()
    start = perf_counter()
    while len(latencies) % load.cycle_len or perf_counter() - start < seconds:
        latencies.append(run_op(load, load.next_op(), failures))
    return latencies, failures


def nearest_rank(sorted_xs: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile and the number of samples above it."""
    index = min(len(sorted_xs) - 1, max(0, math.ceil(len(sorted_xs) * pct / 100) - 1))
    return sorted_xs[index], len(sorted_xs) - index - 1


def completed(latencies: list) -> list[float]:
    return [x for x in latencies if x is not None]


def end_to_end(cls, setups, latencies, failures):
    # Every figure is taken over the whole run: on a shared machine whose
    # speed drifts over minutes, that reads steadier from run to run than
    # picking the faster moments of a run (see README.md, Baseline).
    lat = sorted(completed(latencies))
    tail, beyond = nearest_rank(lat, cls.tail_pct)
    who = resource.RUSAGE_SELF if cls.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "success_ratio": ((len(latencies) - len(failures)) / len(latencies), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    notes = {"tail_pct": cls.tail_pct, "tail_samples_beyond": beyond,
             "samples": len(lat), "killed": len(latencies) - len(lat),
             "setup_s_each": setups,
             "fail_ratio": len(failures) / len(latencies)}
    return metrics, notes


def traced(cls, seed: int, seconds: float, tmp: Path, failures: list):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    if cls.in_process:
        tracer.install()  # the set-up is traced too
    try:
        load = cls(seed, tmp)
    finally:
        tracer.uninstall()
    batch = [load.next_op() for _ in range(cls.trace_batch)]
    latencies = []
    with load.traced(tracer):
        for op in batch:
            latencies.append(run_op(load, op, failures))
    metrics = layer_metrics(tracer, getattr(load, "cli_times", {}))

    # Tracing overhead: alternate plain and traced passes over the batch.
    rates: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    while not rates[True] or perf_counter() - start < seconds:
        for on in (False, True):
            with load.traced(Tracer() if on else None):
                lat = [run_op(load, op, failures) for op in batch]
            latencies += lat
            done = completed(lat)
            rates[on].append(len(done) / sum(done))
    metrics["trace.overhead_ratio"] = (
        statistics.median(rates[True]) / statistics.median(rates[False]), "ratio")
    notes = {"batch": len(batch), "absent": sorted(tracer.absent),
             "unreadable": sorted(tracer.unreadable),
             "overhead_passes": len(rates[True])}
    return metrics, notes, len(latencies)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dfblang").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dfblang" / "__init__.py").is_file():
        print(f"error: no dfblang sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cli_load
    import workloads

    cls = {"typecheck": workloads.Typecheck, "poset": workloads.Poset,
           "real": workloads.Real, "cli": cli_load.Cli}[args.workload]
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    failures: list[dict] = []
    try:
        if args.trace:
            metrics, notes, attempted = traced(cls, args.seed, args.seconds, tmp, failures)
            load = None
        else:
            # Set-ups on both sides of the measurement, so that one slow
            # spell of a shared machine cannot move their median alone.
            load, setups = set_up(cls, args.seed, tmp, SETUP_BEFORE)
            latencies, failures = measure(load, args.seconds)
            setups += set_up(cls, args.seed, tmp, SETUP_AFTER)[1]
            metrics, notes = end_to_end(cls, setups, latencies, failures)
            attempted = len(latencies)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    undocumented = [f for f in failures if f["defect"] is None]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": " ".join(cls.__doc__.split("\n\n")[1].split()),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": commit(),
        "source_sha256": source_digest(),
        "inputs": load.record() if load is not None else None,
        "defects_failed": sorted({f["defect"] for f in failures if f["defect"]}),
        "undocumented_failures": undocumented[:5],
        **notes,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not undocumented,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
