"""One benchmark unit in a fresh process.

Usage: python3 bench/worker.py --workload W --seed N [--trace 0|1]
       [--size full|tiny] [--corrupt 0|1]

Run from the root of a checkout: qcartan is imported from ./src.  The
worker times set-up (import plus builtin_presentation()), runs the
workload once, checks every answer outside the timed span and prints one
JSON object as its last line.  A fresh process per unit matters: the
builtin table is a process-wide singleton whose normal-form cache would
otherwise be warm from the previous unit.

--corrupt 1 swaps one coefficient of the rule table (x . dy -> 2q dy . x
instead of q dy . x), so the program gives wrong answers; the benchmark
must then report failures.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

import queries
import spans

# Exact results the program must reproduce, per workload and size.
SPECS = {
    "check-all": {
        "full": {"argv": ["check", "all", "--max-degree", "3"],
                 "checks": 14431, "suites": 13},
        "tiny": {"argv": ["check", "d2", "--max-degree", "2"],
                 "checks": 98, "suites": 1},
    },
    "confluence-l4": {
        "full": {"max_len": 4, "words": 78996, "skipped": 259016},
        "tiny": {"max_len": 3, "words": 5529, "skipped": 8518},
    },
    "expand-session": {
        "full": {"queries": 96},
        "tiny": {"queries": 12},
    },
}
SEEDS = (1, 2, 3, 4, 5)
GOOD_RULE = "x . dy -> (q) dy . x"
BAD_RULE = "x . dy -> (2*q) dy . x"
SUITE_LINE = re.compile(r"^(PASS|FAIL) (\S+): (\d+) checks, (\d+) failures$")


def corrupt_table(relations):
    text = relations.format_presentation(relations.builtin_presentation())
    if GOOD_RULE not in text:
        raise RuntimeError(f"rule {GOOD_RULE!r} not in the builtin table")
    path = os.path.join(".bench_build", "corrupt.rel")
    os.makedirs(".bench_build", exist_ok=True)
    with open(path, "w") as f:
        f.write(text.replace(GOOD_RULE, BAD_RULE))
    return relations.load_presentation_file(path), path


# Each workload is a pair: run(qc, table, spec, table_path, seed) does the
# timed work and returns (verdict_s, latencies_ms, answer);
# check(qc, table, spec, answer) returns (attempted, failed) and runs after
# the tracer, if any, has been removed.

def run_check_all(qc, table, spec, table_path, _seed):
    argv = spec["argv"] + (["--table", table_path] if table_path else [])
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        rc = qc.cli.main(argv)
    verdict_s = perf_counter() - start
    return verdict_s, [verdict_s * 1e3], (rc, out.getvalue().splitlines())


def check_check_all(_qc, _table, spec, answer):
    rc, lines = answer
    suites = [m for m in map(SUITE_LINE.match, lines) if m]
    checks = sum(int(m[3]) for m in suites)
    failures = sum(int(m[4]) for m in suites)
    gates = (rc == 0, checks == spec["checks"],
             len(suites) == spec["suites"],
             bool(lines) and lines[-1] == "PASS all suites")
    return spec["checks"], failures + gates.count(False)


def run_confluence(qc, table, spec, _table_path, _seed):
    start = perf_counter()
    report = qc.normalizer.check_local_confluence(
        table, spec["max_len"], seeds=SEEDS)
    verdict_s = perf_counter() - start
    return verdict_s, [verdict_s * 1e3], report


def check_confluence(_qc, _table, spec, report):
    gates = (report.words_checked == spec["words"],
             report.words_skipped == spec["skipped"])
    return spec["words"], len(report.divergences) + gates.count(False)


def _query(qc, q, table):
    f = qc.normalizer.normalize(qc.parser.parse_element(q["f"]), table)
    kind = q["kind"]
    if kind == "d":
        return f, qc.calculus.exterior_d(f, table)
    if kind == "act":
        return f, qc.calculus.act(qc.parser.parse_element(q["op"]), f, table)
    if kind == "lapply":
        return f, qc.cartan.lie_apply(q["a"], f, table)
    if kind == "iapply":
        return f, qc.cartan.inner_apply(q["a"], f, table)
    return f, qc.duality.pair(qc.parser.parse_element(q["op"]), f, table)


def run_session(qc, table, spec, _table_path, seed):
    stream = queries.make_stream(seed, spec["queries"])
    answers, latencies = [], []
    start = perf_counter()
    for q in stream:
        t = perf_counter()
        try:
            answers.append(_query(qc, q, table))
        except Exception:
            traceback.print_exc()
            answers.append(None)
        latencies.append((perf_counter() - t) * 1e3)
    verdict_s = perf_counter() - start
    return verdict_s, latencies, list(zip(stream, answers))


def check_session(qc, table, _spec, answers):
    failed = sum(answer is None or not _session_answer_ok(qc, q, answer, table)
                 for q, answer in answers)
    return len(answers), failed


def _session_answer_ok(qc, q, answer, table) -> bool:
    f, result = answer
    try:
        ok = (queries.input_at_q1(q, f)
              and queries.answer_at_q1(q, result) == queries.expected(q))
        if ok and q["kind"] == "d":
            ok = qc.calculus.exterior_d(result, table).is_zero()
    except (ValueError, qc.normalizer.MissingRuleError):
        traceback.print_exc()
        return False
    if not ok:
        print(f"wrong answer to {q['kind']} {q.get('op', q.get('a', ''))} "
              f"{q['f']}", file=sys.stderr)
    return ok


WORKLOADS = {
    "check-all": (run_check_all, check_check_all),
    "confluence-l4": (run_confluence, check_confluence),
    "expand-session": (run_session, check_session),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = os.path.abspath("src")

    start = perf_counter()
    sys.path.insert(0, src)
    import qcartan
    import qcartan.cli
    if not os.path.abspath(qcartan.__file__).startswith(src + os.sep):
        raise RuntimeError(f"qcartan imported from {qcartan.__file__}, "
                           f"not from {src}")
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    table = qcartan.relations.builtin_presentation()
    setup_s = perf_counter() - start

    table_path = None
    if args.corrupt:
        table, table_path = corrupt_table(qcartan.relations)
    spec = SPECS[args.workload][args.size]
    run, check = WORKLOADS[args.workload]
    result = {}
    try:
        verdict_s, latencies, answer = run(qcartan, table, spec, table_path,
                                           args.seed)
    except Exception:
        traceback.print_exc()
        verdict_s, latencies, answer = perf_counter() - start, [], None
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics(table)
    attempted, failed = (1, 1) if answer is None else check(
        qcartan, table, spec, answer)
    result.update(verdict_s=verdict_s, latencies_ms=latencies,
                  attempted=attempted, failed=failed, setup_s=setup_s)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
