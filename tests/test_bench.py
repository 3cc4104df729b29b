"""The benchmark harness runs and passes its correctness gates at the
tiny size, so a change that breaks a workload fails here rather than in
a timed run.  Each worker runs with -B and without --corrupt, so nothing
is written under bench/ or .bench_build/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, attempted", [
    ("check-all", 98), ("confluence-l4", 5529), ("expand-session", 12),
])
def test_tiny_workload_passes(workload, attempted):
    done = subprocess.run(
        [sys.executable, "-B", "bench/worker.py", "--workload", workload,
         "--seed", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["failed"], result["attempted"]) == (0, attempted)
