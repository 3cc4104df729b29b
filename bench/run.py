"""The qcartan benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload check-all|confluence-l4|expand-session|all
                         --seed N --seconds S --trace 0|1

Each unit of work runs in a fresh worker process (bench/worker.py), one
after another (closed loop, one caller), until S seconds have passed; at
least one unit always runs.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; failed / attempted
is the failed ratio (failed checks, divergences, wrong answers and
exceptions over the checks, words or queries attempted).

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced unit on the same inputs and reports the per-layer metrics of
the traced one, plus bench.trace_overhead_s, the traced minus the
untraced wall time of the unit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

WORKLOADS = ("check-all", "confluence-l4", "expand-session")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# A run must end within 180 s; a worker still busy at this point is killed.
RUN_LIMIT_S = 170


def percentile(samples, p):
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(samples)
    k = (len(ordered) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def run_unit(workload, seed, trace, extra=(), deadline=None):
    """One worker process; its result dict, or None if it produced none."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *extra]
    if deadline is None:
        deadline = perf_counter() + RUN_LIMIT_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(workload, seed, seconds, deadline):
    """Units until `seconds` have passed; the end-to-end metrics."""
    units, attempted, failed = [], 0, 0
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        unit = run_unit(workload, seed * 1000 + len(units), 0,
                        deadline=deadline)
        if unit is None:
            return False, attempted + 1, failed + 1, {}
        units.append(unit)
        attempted += unit["attempted"]
        failed += unit["failed"]
    latencies = [ms for u in units for ms in u["latencies_ms"]]
    metrics = {
        "setup_s": (median(u["setup_s"] for u in units), "s"),
        "verdict_s": (median(u["verdict_s"] for u in units), "s"),
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "query_p99_ms": (percentile(latencies, 99), "ms"),
        "queries_per_s":
            (len(latencies) / sum(u["verdict_s"] for u in units), "1/s"),
        "peak_rss_mb": (median(u["peak_rss_mb"] for u in units), "MB"),
    }
    print(f"{workload}: {len(units)} units, {len(latencies)} query samples",
          file=sys.stderr)
    return failed == 0, attempted, failed, metrics


def measure_traced(workload, seed, _seconds, deadline):
    """One untraced and one traced unit on the same inputs."""
    plain = run_unit(workload, seed * 1000, 0, deadline=deadline)
    traced = run_unit(workload, seed * 1000, 1, deadline=deadline)
    if plain is None or traced is None:
        return False, 1, 1, {}
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["bench.trace_overhead_s"] = (
        traced["verdict_s"] - plain["verdict_s"], "s")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qcartan", "__init__.py")):
        print("error: run from the root of a qcartan checkout "
              "(src/qcartan not found)", file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join("src", "qcartan"), quiet=1):
        print("error: src/qcartan does not compile", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    run = measure_traced if args.trace else measure
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        deadline = perf_counter() + RUN_LIMIT_S
        ok, n, bad, values = run(workload, args.seed, args.seconds, deadline)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        print(f"{workload}: failed_ratio {bad / n:.6g} ({bad} of {n})")
        for name, (value, unit) in values.items():
            print(f"{workload}: {name} {value:.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
