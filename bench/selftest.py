"""Self-test of the benchmark at a tiny size.

Usage, from the root of a checkout: python3 bench/selftest.py

Checks that each workload passes its gates on the builtin table, that a
deliberately wrong rule table (worker --corrupt 1) makes the failed ratio
nonzero on each workload, that the traced run reports exactly the
per-layer metrics BENCHMARK.json names and restores every binding it
replaced, and that run.py refuses to run where there is no qcartan
source.  Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import run
import spans

FAILURES = []


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny(workload, corrupt=0, trace=0):
    return run.run_unit(workload, 1, trace,
                        ("--size", "tiny", "--corrupt", str(corrupt)))


def bindings():
    """Every module-level and class-level function the tracer may replace."""
    import qcartan
    owners = spans._modules() + [qcartan.scalars.QScalar,
                                 qcartan.relations.RelationTable]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()
            if callable(value)}


def main() -> int:
    with open("BENCHMARK.json") as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}

    for workload in run.WORKLOADS:
        unit = tiny(workload)
        check(unit is not None and unit["failed"] == 0
              and unit["attempted"] > 0,
              f"{workload}: tiny run passes its gates")
        unit = tiny(workload, corrupt=1)
        check(unit is not None and unit["failed"] > 0,
              f"{workload}: a wrong rule table gives a nonzero failed ratio"
              + (f" ({unit['failed']} of {unit['attempted']})" if unit else ""))
        unit = tiny(workload, trace=1)
        names = set(unit["layers"]) | {"bench.trace_overhead_s"} if unit else set()
        check(names == per_layer,
              f"{workload}: traced run reports the per-layer metrics "
              f"(missing {sorted(per_layer - names)}, "
              f"extra {sorted(names - per_layer)})")

    sys.path.insert(0, os.path.abspath("src"))
    import qcartan.cli
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    replaced = bindings() != before
    with redirect_stdout(io.StringIO()):
        qcartan.cli.main(["check", "d2", "--max-degree", "1"])
    tracer.uninstall()
    after = bindings()
    check(replaced and after == before,
          "the tracer replaces bindings and restores every one")

    empty = os.path.join(".bench_build", "selftest-empty")
    os.makedirs(empty, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(run.__file__), "--workload",
         "check-all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py exits nonzero without a result where src/qcartan is absent")

    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
