"""Acceptance suite: every identity the calculus asserts, re-derived at
desk scale with exact Laurent coefficients (zero tolerance throughout).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time

from qcartan import calculus, cartan, duality, hopf
from qcartan.cli import main, run_suite
from qcartan.normalizer import check_local_confluence, multiply, normalize
from qcartan.parser import parse_element
from qcartan.relations import builtin_presentation
from qcartan.words import Element


TABLE = builtin_presentation()


def report(criterion, passed, detail, elapsed=None):
    verdict = "PASS" if passed else "FAIL"
    tail = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {verdict} ({detail}){tail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_nilpotency():
    """d^2 = 0 on all basis words over x^±, y, z and the differentials,
    coordinate degree <= 4 and form degree <= 2."""
    start = time.perf_counter()
    words = calculus.basis_forms(4, max_form_degree=2, min_x=-4)
    failures = [
        w for w in words
        if not calculus.exterior_d(
            calculus.exterior_d(Element.from_word(w), TABLE), TABLE
        ).is_zero()
    ]
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (d^2 = 0, degree <= 4)",
        not failures and elapsed < 10.0,
        f"{len(words)} basis words, {len(failures)} failures",
        elapsed,
    )


def test_criterion_2_graded_leibniz():
    """d(ab) = (da)b + (-1)^deg(a) a(db) on homogeneous pairs, total
    degree <= 3."""
    start = time.perf_counter()
    rows = run_suite("leibniz", 3, (), TABLE)
    failures = [r for r in rows if not r[1]]
    report(
        "criterion 2 (graded Leibniz, total degree <= 3)",
        not failures,
        f"{len(rows)} pairs, {len(failures)} failures",
        time.perf_counter() - start,
    )


def test_criterion_3_cartan_tables_as_theorems():
    """Every inner-derivation and Lie-derivative relation re-derived as an
    operator identity, contraction and Cartan formula only."""
    start = time.perf_counter()
    reports = cartan.verify_all_tables(4, TABLE)
    elapsed = time.perf_counter() - start
    relations = sum(r.relations_checked for r in reports)
    failures = [f for r in reports for f in r.failures]
    report(
        "criterion 3 (cartan tables, degree <= 4)",
        not failures and relations >= 45 and elapsed < 60.0,
        f"{relations} relations across {len(reports)} tables, "
        f"{len(failures)} failures",
        elapsed,
    )


def test_criterion_4_realizations():
    """Lie generators from coordinates and partials; Lie derivatives from
    x^-1 and the generators, against the Cartan-formula action."""
    start = time.perf_counter()
    t_report = calculus.check_t_realization(3, TABLE)
    l_report = cartan.check_l_realization(3, TABLE)
    report(
        "criterion 4 (T and L realizations, degree <= 3)",
        t_report.passed and l_report.passed,
        f"{len(t_report.results)} generator checks, "
        f"{l_report.relations_checked} Lie-derivative cases",
        time.perf_counter() - start,
    )


def test_criterion_5_d_decompositions():
    """d f = dx px f + dy py f + dz pz f and d f = wx Tx f + wy Ty f +
    wz Tz f on all monomials of degree <= 4, after one-form expansion."""
    start = time.perf_counter()
    partial = calculus.check_d_expansion(4, TABLE)
    ok_omega = True
    ts = [parse_element(n) for n in ("Tx", "Ty", "Tz")]
    ws = [calculus.omega_images()[n] for n in ("wx", "wy", "wz")]
    count = 0
    for mono in calculus.coordinate_monomials(4):
        target = Element.from_word(mono)
        total = Element.zero()
        for w_img, t in zip(ws, ts):
            total = total + multiply(w_img, calculus.act(t, target, TABLE), TABLE)
        count += 1
        if total != calculus.exterior_d(target, TABLE):
            ok_omega = False
    report(
        "criterion 5 (d decompositions, degree <= 4)",
        partial.passed and ok_omega,
        f"{len(partial.results)} partial checks, {count} one-form checks",
        time.perf_counter() - start,
    )


def test_criterion_6_hopf_axioms():
    """Coassociativity, counit, antipode and coproduct homomorphism on all
    generator products of length <= 3, both presentations."""
    start = time.perf_counter()
    a = hopf.check_hopf_axioms("A", 3, TABLE)
    u = hopf.check_hopf_axioms("U", 3, TABLE)
    report(
        "criterion 6 (Hopf axioms, length <= 3)",
        a.passed and u.passed,
        f"{len(a.results)} coordinate checks, {len(u.results)} Lie checks",
        time.perf_counter() - start,
    )


def test_criterion_7_duality():
    """Dual commutation relations on 125 monomials, product/coproduct
    transposition at exponents <= 3, and the half-power identification."""
    start = time.perf_counter()
    rel = duality.check_dual_relations(4, TABLE)
    dh = duality.check_dual_hopf(3, TABLE)
    ident = duality.check_identification(TABLE)
    monomial_count = len(duality.monomials(4))
    report(
        "criterion 7 (duality)",
        rel.passed and dh.passed and ident.passed and monomial_count == 125,
        f"{monomial_count} monomials, {len(rel.results)} relation checks, "
        f"{len(dh.results)} transposition checks, "
        f"{len(ident.results)} identification checks",
        time.perf_counter() - start,
    )


def test_criterion_8_confluence(capsys):
    """No strategy-dependent normal forms among words of length <= 4,
    leftmost vs rightmost vs five seeded randomized strategies."""
    start = time.perf_counter()
    result = check_local_confluence(TABLE, 4, seeds=(1, 2, 3, 4, 5))
    code = main(["check", "confluence", "--max-degree", "4", "--seed", "1"])
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            "criterion 8 (confluence, length <= 4, seeds 1..5)",
            result.passed and code == 0 and elapsed < 120.0,
            f"{result.words_checked} words, "
            f"{len(result.divergences)} divergences",
            elapsed,
        )


def test_criterion_9_classical_limit():
    """Witness identities stay identities at q = 1, and the coordinate
    commutator normalizes to something that vanishes classically."""
    start = time.perf_counter()
    comm = normalize(parse_element("y*x - x*y"), TABLE)
    ok = not comm.is_zero() and comm.evaluate(1) == {}

    witnesses = 0
    # graded Leibniz witnesses
    for ta, tb in (("x", "y"), ("dx*y", "dy"), ("x^-1", "dz*z")):
        a = normalize(parse_element(ta), TABLE)
        b = normalize(parse_element(tb), TABLE)
        lhs = calculus.exterior_d(multiply(a, b, TABLE), TABLE)
        sign = (-1) ** a.form_degree()
        rhs = multiply(calculus.exterior_d(a, TABLE), b, TABLE) + \
            sign * multiply(a, calculus.exterior_d(b, TABLE), TABLE)
        ok = ok and lhs.evaluate(1) == rhs.evaluate(1)
        witnesses += 1
    # operator-identity witnesses from the derivative tables
    for table_id in ("lie_coord", "inner_diff", "t_omega"):
        rule = TABLE.for_table(table_id, origin="paper")[0]
        expand = table_id == "t_omega"
        for text in ("1", "y", "dx*z"):
            target = normalize(parse_element(text), TABLE)
            lhs = cartan.apply_operator_word(rule.lhs_word(), target, TABLE, expand)
            rhs = cartan.apply_operator(rule.rhs, target, TABLE, expand)
            ok = ok and lhs.evaluate(1) == rhs.evaluate(1)
            witnesses += 1
    # pairing witnesses
    xy = duality.pair(parse_element("X*Y"), duality.Monomial(1, 1, 0), TABLE)
    yx = duality.pair(parse_element("Y*X"), duality.Monomial(1, 1, 0), TABLE)
    ok = ok and xy.evaluate(1) == yx.evaluate(1)
    k2 = duality.pair(parse_element("K^2"), duality.Monomial(2, 0, 0), TABLE)
    ok = ok and k2.evaluate(1) == 1  # group-like factors trivialize classically
    witnesses += 3
    report(
        "criterion 9 (classical limit q = 1)",
        ok,
        f"coordinate commutator vanishes at q = 1; "
        f"{witnesses} witness identities specialized",
        time.perf_counter() - start,
    )
