"""Command-line front end.

Values print in a fixed canonical form (terms in normal order, scalars
with ascending q exponents), so identical invocations are byte-identical.
Check suites emit one verdict per line in json-lines mode and per-suite
summaries in text mode; the exit code is 0 exactly when everything
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import calculus, cartan, duality, hopf
from .normalizer import MissingRuleError, check_local_confluence, multiply, normalize
from .parser import ParseError, parse_element
from .relations import RelationError, builtin_presentation, load_presentation_file
from .words import Element

DEFAULT_SEEDS = (1, 2, 3, 4, 5)

SUITES = (
    "d2", "leibniz", "confluence", "d-expansion", "omega", "t-real",
    "cartan-tables", "l-real", "hopf-A", "hopf-U", "dual-relations",
    "dual-hopf", "identification", "all",
)


def _resolve_table(args):
    path = getattr(args, "table", None) or os.environ.get("QCARTAN_TABLE")
    if path:
        return load_presentation_file(path)
    return builtin_presentation()


def _specialize(e: Element, q_value: Fraction) -> str:
    values = e.evaluate(q_value)
    if not values:
        return "0"
    parts = []
    for w in sorted(values, key=lambda w: w.sort_key()):
        c = values[w]
        if w.is_empty():
            parts.append(str(c))
        elif c == 1:
            parts.append(str(w))
        else:
            parts.append(f"({c}) {w}")
    return " + ".join(parts)


def _print_element(e: Element, args):
    if args.q is not None:
        print(_specialize(e, args.q))
    else:
        print(e)


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    return value


def _nonzero_rational(text: str) -> Fraction:
    value = _rational(text)
    if value == 0:
        raise argparse.ArgumentTypeError("q must be nonzero")
    return value


def _max_degree(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("max_degree must be at least 1")
    return value


# --- check suites ----------------------------------------------------------

def _suite_d2(max_degree: int, table):
    rows = []
    for w in calculus.basis_forms(max_degree, max_form_degree=2,
                                  min_x=-max_degree):
        target = Element.from_word(w)
        dd = calculus.exterior_d(calculus.exterior_d(target, table), table)
        rows.append((f"d^2 {w}", dd.is_zero(), "" if dd.is_zero() else str(dd)))
    return rows


def _suite_leibniz(max_degree: int, table):
    rows = []
    forms = [
        w for w in calculus.basis_forms(max_degree, min_x=-max_degree)
        if 1 <= len(w) <= max_degree - 1
    ]
    for a in forms:
        for b in forms:
            if len(a) + len(b) > max_degree:
                continue
            ea, eb = Element.from_word(a), Element.from_word(b)
            product = multiply(ea, eb, table)
            lhs = calculus.exterior_d(product, table)
            sign = (-1) ** a.form_degree()
            rhs = multiply(calculus.exterior_d(ea, table), eb, table) + \
                sign * multiply(ea, calculus.exterior_d(eb, table), table)
            ok = lhs == rhs
            rows.append((f"leibniz {a} | {b}", ok,
                         "" if ok else f"{lhs} != {rhs}"))
    return rows


def _suite_confluence(max_degree: int, seeds, table):
    report = check_local_confluence(table, max_degree, seeds=seeds)
    rows = [(
        f"confluence length<={report.max_len} "
        f"strategies={','.join(report.strategies)}",
        report.passed,
        f"{report.words_checked} words checked, "
        f"{report.words_skipped} sequences skipped",
    )]
    for word, sa, sb in report.divergences:
        rows.append((f"divergence {word}", False, f"{sa} != {sb}"))
    return rows


def _suite_cartan_tables(max_degree: int, table):
    rows = []
    for table_id in cartan.VERIFIABLE_TABLES:
        report = cartan.verify_table(table_id, max_degree, table)
        rows.append((
            f"table {table_id}", report.passed,
            f"{report.relations_checked} relations",
        ))
        for relation, witness, lhs, rhs in report.failures:
            rows.append((f"table {table_id} {relation} on {witness}",
                         False, f"{lhs} != {rhs}"))
    return rows


def _suite_l_real(max_degree: int, table):
    report = cartan.check_l_realization(max_degree, table)
    rows = [(f"l-realization ({report.relations_checked} cases)",
             report.passed, "")]
    for relation, witness, lhs, rhs in report.failures:
        rows.append((f"l-realization {relation} on {witness}", False,
                     f"{lhs} != {rhs}"))
    return rows


def run_suite(name: str, max_degree: int, seeds, table):
    """Rows (check name, passed, detail) for one suite."""
    if name == "d2":
        return _suite_d2(max_degree, table)
    if name == "leibniz":
        return _suite_leibniz(max_degree, table)
    if name == "confluence":
        return _suite_confluence(max(max_degree, 3), seeds, table)
    if name == "d-expansion":
        return calculus.check_d_expansion(None, max_degree, table).results
    if name == "omega":
        return calculus.check_omega_tables(max_degree, table).results
    if name == "t-real":
        return calculus.check_t_realization(max_degree, table).results
    if name == "cartan-tables":
        return _suite_cartan_tables(max_degree, table)
    if name == "l-real":
        return _suite_l_real(max_degree, table)
    if name == "hopf-A":
        return hopf.check_hopf_axioms("A", min(max_degree, 3), table).results
    if name == "hopf-U":
        return hopf.check_hopf_axioms("U", min(max_degree, 3), table).results
    if name == "dual-relations":
        return duality.check_dual_relations(max(max_degree, 2), table).results
    if name == "dual-hopf":
        return duality.check_dual_hopf(min(max_degree, 3), table).results
    if name == "identification":
        return duality.check_identification(table).results
    raise ValueError(f"unknown suite {name!r}")


def _cmd_check(args) -> int:
    table = _resolve_table(args)
    suites = list(SUITES[:-1]) if args.suite == "all" else [args.suite]
    seeds = (args.seed,) if args.seed is not None else DEFAULT_SEEDS
    all_ok = True
    for suite in suites:
        rows = sorted(run_suite(suite, args.max_degree, seeds, table))
        failures = [r for r in rows if not r[1]]
        if failures:
            all_ok = False
        if args.format == "json-lines":
            for name, ok, detail in rows:
                print(json.dumps(
                    {"suite": suite, "check": name,
                     "status": "pass" if ok else "fail", "detail": detail},
                    sort_keys=True))
        else:
            verdict = "PASS" if not failures else "FAIL"
            print(f"{verdict} {suite}: {len(rows)} checks, "
                  f"{len(failures)} failures")
            for name, _, detail in failures:
                print(f"  FAIL {name}" + (f": {detail}" if detail else ""))
    if args.format != "json-lines":
        print("PASS all suites" if all_ok else "FAIL: see above")
    return 0 if all_ok else 1


def _cmd_normalize(args) -> int:
    table = _resolve_table(args)
    _print_element(normalize(parse_element(args.expr), table), args)
    return 0


def _cmd_d(args) -> int:
    table = _resolve_table(args)
    e = normalize(parse_element(args.expr), table)
    _print_element(calculus.exterior_d(e, table), args)
    return 0


def _cmd_act(args) -> int:
    table = _resolve_table(args)
    operator = parse_element(args.operator)
    target = normalize(parse_element(args.expr), table)
    _print_element(calculus.act(operator, target, table), args)
    return 0


def _cmd_iapply(args) -> int:
    table = _resolve_table(args)
    target = normalize(parse_element(args.expr), table)
    _print_element(cartan.inner_apply(args.direction, target, table), args)
    return 0


def _cmd_lapply(args) -> int:
    table = _resolve_table(args)
    target = normalize(parse_element(args.expr), table)
    _print_element(cartan.lie_apply(args.direction, target, table), args)
    return 0


def _cmd_pair(args) -> int:
    table = _resolve_table(args)
    u = parse_element(args.operator)
    f = parse_element(args.expr)
    value = duality.pair(u, f, table)
    if args.q is not None:
        print(value.evaluate(args.q))
    else:
        print(value)
    return 0


def _add_common(sub, with_q=True):
    sub.add_argument("--table", help="relation file overriding the builtin "
                     "presentation (also via QCARTAN_TABLE)")
    if with_q:
        sub.add_argument("--q", type=_nonzero_rational, default=None,
                         help="specialize printed coefficients at this "
                         "rational value of q")


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcartan",
        description="Exact Cartan calculus on the extended quantum 3d space",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the normal form of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("d", help="exterior derivative")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=_cmd_d)

    p = sub.add_parser("act", help="apply an operator element from the left")
    p.add_argument("operator")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=_cmd_act)

    p = sub.add_parser("iapply", help="contract with an inner derivation")
    p.add_argument("direction", choices=("x", "y", "z"))
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=_cmd_iapply)

    p = sub.add_parser("lapply", help="Lie derivative via the Cartan formula")
    p.add_argument("direction", choices=("x", "y", "z"))
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=_cmd_lapply)

    p = sub.add_parser("pair", help="duality pairing <u, monomial>")
    p.add_argument("operator", help="dual-algebra element (X, Y, Z, K)")
    p.add_argument("expr", help="coordinate monomial, e.g. 'x^2*y'")
    _add_common(p)
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max-degree", type=_max_degree, default=3)
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized confluence strategy")
    p.add_argument("--format", choices=("text", "json-lines"), default="text")
    _add_common(p, with_q=False)
    p.set_defaults(fn=_cmd_check)

    return ap


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    try:
        return args.fn(args)
    except MissingRuleError as exc:
        print(f"error: missing rule for the pair "
              f"({exc.left.name}, {exc.right.name}); expand derived "
              f"generators first (omega_expand, realizations)",
              file=sys.stderr)
        return 2
    except (ParseError, RelationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
