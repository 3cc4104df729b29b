"""Command-line front end.

Values print in a fixed canonical form (terms in normal order, scalars
with ascending q exponents), so identical invocations are byte-identical.
Each check suite is one entry of a name -> check-function table; every
check returns a :class:`~qcartan.report.CheckReport`.  The rows of a
suite are sorted, then printed one JSON record per row in json-lines
mode, or as ``str(CheckReport(suite, rows))`` in text mode.  The exit
code is 0 exactly when everything passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import calculus, cartan, duality, hopf
from .normalizer import MissingRuleError, check_local_confluence, normalize
from .parser import ParseError, parse_element
from .relations import RelationError, builtin_presentation, load_presentation_file
from .report import CheckReport
from .scalars import QScalar
from .words import Element

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def _resolve_table(args):
    path = getattr(args, "table", None) or os.environ.get("QCARTAN_TABLE")
    if path:
        return load_presentation_file(path)
    return builtin_presentation()


def _print_element(e: Element, args):
    if args.q is not None:
        e = Element({w: QScalar.rational(v)
                     for w, v in e.evaluate(args.q).items()})
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

# suite name -> check(max_degree, seeds, table) returning a CheckReport;
# the Hopf and dual-transposition product lengths are capped at 3
_CHECKS = {
    "d2": lambda n, s, t: calculus.check_d2(n, t),
    "leibniz": lambda n, s, t: calculus.check_leibniz(n, t),
    "confluence": lambda n, s, t: check_local_confluence(t, max(n, 3), s),
    "d-expansion": lambda n, s, t: calculus.check_d_expansion(None, n, t),
    "omega": lambda n, s, t: calculus.check_omega_tables(n, t),
    "t-real": lambda n, s, t: calculus.check_t_realization(n, t),
    "cartan-tables": lambda n, s, t: cartan.check_cartan_tables(n, t),
    "l-real": lambda n, s, t: cartan.check_l_realization(n, t),
    "hopf-A": lambda n, s, t: hopf.check_hopf_axioms("A", min(n, 3), t),
    "hopf-U": lambda n, s, t: hopf.check_hopf_axioms("U", min(n, 3), t),
    "dual-relations": lambda n, s, t: duality.check_dual_relations(
        max(n, 2), t),
    "dual-hopf": lambda n, s, t: duality.check_dual_hopf(min(n, 3), t),
    "identification": lambda n, s, t: duality.check_identification(t),
}

SUITES = (*_CHECKS, "all")


def run_suite(name: str, max_degree: int, seeds, table):
    """The CheckResult rows of one suite."""
    check = _CHECKS.get(name)
    if check is None:
        raise ValueError(f"unknown suite {name!r}")
    return check(max_degree, seeds, table).results


def _cmd_check(args) -> int:
    table = _resolve_table(args)
    suites = list(SUITES[:-1]) if args.suite == "all" else [args.suite]
    seeds = (args.seed,) if args.seed is not None else DEFAULT_SEEDS
    all_ok = True
    for suite in suites:
        report = CheckReport(suite, tuple(sorted(
            run_suite(suite, args.max_degree, seeds, table))))
        all_ok = all_ok and report.passed
        if args.format == "json-lines":
            for name, ok, detail in report.results:
                print(json.dumps(
                    {"suite": suite, "check": name,
                     "status": "pass" if ok else "fail", "detail": detail},
                    sort_keys=True))
        else:
            print(report)
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
