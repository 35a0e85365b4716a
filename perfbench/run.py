"""braidhom benchmark: one workload per call, or all three.

From the repository root (braidhom is imported from src/, nothing is installed):

    python3 perfbench/run.py --workload words-warm --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  Every
workload runs in its own interpreter (worker.py); set-up is repeated in
further fresh interpreters and reported as the median.  Times are scaled to
a reference host speed (hostspeed.py).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rep-cold", "words-warm", "membership-ranks")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def spawn(script: str, args: list[str], deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line is JSON.

    The child leads its own process group, so on a timeout everything it
    started is killed and reaped with it.
    """
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise RunError(f"out of time before {script}")
    proc = subprocess.Popen([sys.executable, str(HERE / script), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{script} {' '.join(args)} timed out")
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"{script} {' '.join(args)} failed:\n{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple:
    """(metrics, operation times, operation errors, other problems, note)."""
    common = ["--workload", name, "--seed", str(seed)]
    result = spawn("worker.py", common + ["--seconds", str(seconds), "--trace", "0"], deadline)
    runs = [result] + [spawn("worker.py", common + ["--setup-only"], deadline)
                       for _ in range(SETUP_REPEATS - 1)]
    times = result["times"]
    failed = len(result["errors"])
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0],
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mib": result["peak_rss_mib"],
        "ok_ratio": (len(times) - failed) / len(times),
    }
    beyond = sum(t > metrics["op_p90_s"] for t in times)
    note = (f"{len(times)} operations, {sum(times):.2f} s busy, {beyond} beyond op_p90_s,"
            f" error_ratio {failed / len(times):.4f}, host.calib_s {result['calib_s']:.4f};"
            f" host factor {result['host_factor']:.3f}, raw op_p50_s"
            f" {statistics.median(result['raw_times']):.4g}, raw setup_s"
            f" {statistics.median(r['setup_raw_s'] for r in runs):.4g}")
    return metrics, times, result["errors"], _golden(result), note


def per_layer(name: str, seed: int, deadline: float) -> tuple:
    result = spawn("worker.py", ["--workload", name, "--seed", str(seed), "--trace", "1"], deadline)
    probes = spawn("probes.py", ["--seed", str(seed)], deadline)
    metrics = dict(result["layers"], **probes["metrics"])
    problems = _golden(result)
    if not probes["correct"]:
        problems.append("probe word result disagrees with the reference")
    count = len(result["times"])
    note = f"{count} operations ({count // 2} plain, then the same traced); spans in perfbench/out/"
    return metrics, result["times"], result["errors"], problems, note


def _golden(result: dict) -> list[str]:
    return [f"golden file disagrees with the reference: {g}" for g in result["golden_mismatches"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "braidhom").is_dir():
        print(f"error: no braidhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + DEADLINE_S * len(names)

    attempted, failures, problems, reported = 0, [], [], {}
    for name in names:
        try:
            if args.trace:
                metrics, times, errs, probs, note = per_layer(name, args.seed, deadline)
            else:
                metrics, times, errs, probs, note = end_to_end(name, args.seed, args.seconds, deadline)
        except RunError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        attempted += len(times)
        failures += errs
        problems += probs
        print(f"{name} seed {args.seed}: {note}")
        for metric in declared:
            value = metrics.get(metric["name"], 0)
            print(f"  {metric['name']:<34} {value:>14.6g} {metric['unit']}")
            key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
            reported[key] = {"value": value, "unit": metric["unit"]}
    for error in (problems + failures)[:20]:
        print(f"FAILED: {error}")
    print(json.dumps({"correct": not (problems or failures), "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
