"""Run one workload in a fresh interpreter and print its raw result as JSON.

run.py starts this once per workload, so generator caches, the lazy numpy
import and the peak RSS belong to that workload alone:

    python3 perfbench/worker.py --workload words-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload words-warm --setup-only

Untraced, operations run back to back (a closed loop, one caller) until
--seconds of wall time have passed.  Each operation is timed alone;
gc.collect() and the output check run between operations, outside the timed
interval.  Objects made during set-up are frozen (gc.freeze), so a collection
walks only what operations made.  Untraced times and set-up times are scaled
to the reference host speed (hostspeed.py); the raw ones are kept.  Traced, a fixed number of operations runs
twice, once plain and once under the tracer, so counts repeat exactly for a
seed and the ratio of the two timings is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "generator_matrices.json"
OUT = Path(__file__).resolve().parent / "out"


def host_calib() -> float:
    """Median of three runs of a fixed pure-Python loop: host speed, not braidhom's."""
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times)


def attempt(workload, op, run) -> tuple[float, str | None]:
    """Time one operation, then check it; returns (seconds, error or None)."""
    gc.collect()
    start = perf_counter()
    try:
        output = run(op)
    except Exception as error:  # a failing operation is counted; the run goes on
        return perf_counter() - start, f"{type(error).__name__}: {error}"
    elapsed = perf_counter() - start
    try:
        ok = workload.check(op, output)
    except Exception as error:  # an unreadable output is a wrong output
        return elapsed, f"unreadable output: {type(error).__name__}: {error}"
    return elapsed, None if ok else f"wrong output for {workload.name} operation {op[0]!r}"


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "rep-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload, ops, seconds: float) -> dict:
    times, raw_times, errors = [], [], []
    clock = hostspeed.HostClock()
    start = perf_counter()
    while perf_counter() - start < seconds:
        before = clock.refresh()
        elapsed, error = attempt(workload, next(ops), workload.run)
        # A long operation spans more of the host's drift than one probe does.
        factor = (before + clock.refresh()) / 2
        times.append(elapsed * factor)
        raw_times.append(elapsed)
        if error:
            errors.append(error)
    return {"times": times, "raw_times": raw_times, "errors": errors,
            "host_factor": statistics.median(clock.factors),
            "peak_rss_mib": peak_rss_mib(workload)}


def scaled_setup(workload) -> tuple[float, float]:
    """(set-up seconds at the reference host speed, raw set-up seconds)."""
    before = hostspeed.HostClock().refresh()
    raw = workload.setup()
    after = hostspeed.HostClock().refresh()
    return raw * (before + after) / 2, raw


def traced(workload, ops, seed: int) -> dict:
    fixed = [next(ops) for _ in range(workload.traced_ops)]
    plain = [attempt(workload, op, workload.run) for op in fixed]
    tracer = tracing.Tracer()
    tracer.install()
    records = []

    def run(op):
        record = tracer.begin("op")
        records.append(record)
        try:
            return workload.run_traced(op, tracer)
        finally:
            tracer.end(record)

    try:
        results = []
        for index, op in enumerate(fixed):
            tracer.op = index
            results.append(attempt(workload, op, run))
    finally:
        tracer.uninstall()
    export = tracer.export()
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(export))
    layers = tracing.aggregate(export["spans"], export["counters"])
    layers.update(tracer.extra)
    plain_s = sum(t for t, _ in plain)
    traced_s = sum(end - start for _, _, _, _, start, end, _ in records)
    layers["trace.overhead_ratio"] = traced_s / plain_s
    return {"times": [t for t, _ in plain] + [t for t, _ in results],
            "errors": [e for _, e in plain + results if e],
            "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        setup_s, setup_raw_s = scaled_setup(workload)
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0
    calib_s = host_calib()
    golden = oracle.golden_mismatches(GOLDEN)
    setup_s, setup_raw_s = scaled_setup(workload)
    gc.collect()
    gc.freeze()
    ops = workload.inputs(args.seed)
    if args.trace:
        result = traced(workload, ops, args.seed)
        result["layers"]["host.calib_s"] = calib_s
    else:
        result = measure(workload, ops, args.seconds)
    result.update(setup_s=setup_s, setup_raw_s=setup_raw_s, calib_s=calib_s, golden_mismatches=golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
