import itertools

import pytest

from qcartan.calculus import (
    act,
    basis_forms,
    check_d2,
    check_d_expansion,
    check_leibniz,
    check_omega_tables,
    check_t_realization,
    coordinate_monomials,
    exterior_d,
    maurer_substitute,
    omega_expand,
)
from qcartan.normalizer import multiply, normalize
from qcartan.parser import parse_element
from qcartan.relations import (
    builtin_presentation,
    format_presentation,
    load_presentation,
)
from qcartan.scalars import Q
from qcartan.words import Element


def ne(text, table):
    return normalize(parse_element(text), table)


def test_d_of_unit_vanishes(table):
    assert exterior_d(Element.one(), table).is_zero()
    assert exterior_d(Element.zero(), table).is_zero()


def test_d_of_coordinates(table):
    assert exterior_d(parse_element("x"), table) == parse_element("dx")
    assert exterior_d(parse_element("z^2"), table) == 2 * ne("dz*z", table)


def test_d_of_product_picks_up_q(table):
    # Leibniz then the coordinate/differential table
    assert exterior_d(ne("x*y", table), table) == parse_element("dx*y") + Q * parse_element("dy*x")


def test_d_of_inverse_coordinate(table):
    assert exterior_d(parse_element("xinv"), table) == -parse_element("dx*x^-2")


@pytest.mark.parametrize("text, expected", [
    ("x^-2", "(-2) dx*x^-3"),
    ("y^3", "(3) dy*y^2"),
    ("x^-1*y*dz", "(-q^-1) dx*dz*x^-2*y + (q^-2) dy*dz*x^-1"),
    ("dx*y^2", "(-2) dx*dy*y"),
    ("x^3*y*x^-4", "(-q^4) dx*x^-2*y + (q^3) dy*x^-1"),
])
def test_d_of_powers_pinned(table, text, expected):
    assert str(exterior_d(parse_element(text), table)) == expected


def test_d_of_long_x_powers(table):
    # a run of x or x^-1 letters gives one term, so this stays linear
    assert str(exterior_d(parse_element("x^100000"), table)) == \
        "(100000) dx*x^99999"
    assert str(exterior_d(parse_element("x^-100000"), table)) == \
        "(-100000) dx*x^-100001"


def test_d_reads_the_run_rule_from_the_table():
    # with x . dx -> (q) dx . x the Leibniz terms of x^2 differ, so d
    # takes one term per letter: dx x + x dx = (1 + q) dx x
    text = format_presentation(builtin_presentation()).replace(
        "x . dx -> dx . x", "x . dx -> (q) dx . x")
    table = load_presentation(text)
    x, dx = parse_element("x"), parse_element("dx")
    leibniz = multiply(dx, x, table) + multiply(x, dx, table)
    assert exterior_d(parse_element("x^2"), table) == leibniz
    assert str(leibniz) == "(1 + q) dx*x"


def test_d_of_a_y_run_is_one_term():
    table = load_presentation(format_presentation(builtin_presentation()))
    before = table.cache_info().get("normal_form.leftmost", 0)
    assert str(exterior_d(parse_element("y^300"), table)) == "(300) dy*y^299"
    assert table.cache_info()["normal_form.leftmost"] - before <= 2


def test_substitution_splices_long_runs(table):
    # the letters without an image are concatenated as one run
    assert omega_expand(parse_element("dx*x^100000"), table) == \
        parse_element("dx*x^100000")
    assert omega_expand(parse_element("wx*x^100000"), table) == \
        parse_element("dx*x^99999")


def test_d_kills_differentials(table):
    assert exterior_d(parse_element("dx"), table).is_zero()
    assert exterior_d(ne("dx*dy", table), table).is_zero()


def test_d_refuses_one_forms(table):
    with pytest.raises(ValueError, match="one-form"):
        exterior_d(parse_element("wx"), table)


def test_d_squared_vanishes_on_samples(table):
    for text in ("x*y*z", "x^-2*y", "dx*y^2", "y*dz*x", "x^3*z^2"):
        e = ne(text, table)
        assert exterior_d(exterior_d(e, table), table).is_zero(), text
    report = check_d2(1, table)
    assert report.passed, report
    assert len(report.results) == 35


def test_graded_leibniz_on_samples(table):
    pairs = [("x", "y"), ("dx", "y"), ("dx*y", "dy"), ("x^-1", "dz*z")]
    for ta, tb in pairs:
        a, b = ne(ta, table), ne(tb, table)
        lhs = exterior_d(multiply(a, b, table), table)
        sign = (-1) ** a.form_degree()
        rhs = multiply(exterior_d(a, table), b, table) + \
            sign * multiply(a, exterior_d(b, table), table)
        assert lhs == rhs, (ta, tb)
    report = check_leibniz(2, table)
    assert report.passed, report
    assert len(report.results) == 49
    assert report.results[0] == ("leibniz x^-1 | x^-1", True, "")


def test_act_partial_powers(table):
    assert act(parse_element("py"), ne("y^2", table), table) == 2 * parse_element("y")
    assert act(parse_element("px"), ne("x*y", table), table) == parse_element("y")


def test_act_lie_generator(table):
    assert act(parse_element("Ty"), parse_element("y"), table) == parse_element("x")
    assert act(parse_element("Tx"), parse_element("x"), table) == parse_element("x")
    assert act(parse_element("Tz"), parse_element("z"), table) == Element.one()


def test_act_is_linear(table):
    a, b = ne("x*y", table), ne("z^2", table)
    op = parse_element("px")
    assert act(op, a + Q * b, table) == act(op, a, table) + Q * act(op, b, table)


def test_act_rejects_operator_targets(table):
    with pytest.raises(ValueError, match="function/form"):
        act(parse_element("px"), parse_element("py"), table)


def test_t_actions_commute(table):
    ts = [parse_element(n) for n in ("Tx", "Ty", "Tz")]
    for w in basis_forms(3):
        target = Element.from_word(w)
        for a, b in itertools.combinations(ts, 2):
            ab = act(a, act(b, target, table), table)
            ba = act(b, act(a, target, table), table)
            assert ab == ba, str(w)


def test_act_degree_bookkeeping(table):
    target = ne("dx*y", table)
    assert act(parse_element("py"), target, table).form_degree() == 1
    assert act(parse_element("Ty"), target, table).form_degree() == 1


def test_omega_z_is_dz(table):
    assert omega_expand(parse_element("wz"), table) == parse_element("dz")


def test_omega_combination_reproduces_dy(table):
    assert omega_expand(ne("wx*y + wy*x", table), table) == parse_element("dy")


def test_omega_round_trips(table):
    for text in ("dx", "dy", "dz"):
        e = parse_element(text)
        assert omega_expand(maurer_substitute(e, table), table) == e
    for text in ("wx", "wy", "wz"):
        e = parse_element(text)
        assert maurer_substitute(omega_expand(e, table), table) == e


def test_omega_rules_reprove_by_expansion(table):
    lhs = omega_expand(ne("x*wx", table), table)
    rhs = omega_expand(ne("wx*x", table), table)
    assert lhs == rhs
    assert omega_expand(ne("wx*wy", table) + ne("wy*wx", table), table).is_zero()
    assert omega_expand(ne("z*wy", table) - ne("wy*z", table), table).is_zero()


def test_check_omega_tables_passes(table):
    report = check_omega_tables(3, table)
    assert report.passed, report


def test_d_expansion_on_generator(table):
    rows = {r.name: r for r in check_d_expansion(1, table).results}
    assert rows["d-expansion x"].passed


def test_d_expansion_sweep(table):
    report = check_d_expansion(4, table)
    assert report.passed, report
    assert len(report.results) == len(coordinate_monomials(4))


def test_t_realization_action_example(table):
    # Tx = x px + y py reproduces the table action on x
    got = act(parse_element("x*px + y*py"), parse_element("x"), table)
    assert got == parse_element("x")


def test_t_realization_matches_table_action(table):
    # both pipelines give 2 x y on y^2 (x py acts as x times d/dy there)
    target = ne("y^2", table)
    via_real = act(parse_element("x*py"), target, table)
    via_table = act(parse_element("Ty"), target, table)
    assert via_real == via_table == 2 * ne("x*y", table)


def test_check_t_realization_passes(table):
    report = check_t_realization(3, table)
    assert report.passed, report


def test_check_t_realization_fails_on_a_wrong_t_rule():
    text = format_presentation(builtin_presentation())
    good = "Ty . y -> x + (q) y . Ty"
    assert good in text
    table = load_presentation(text.replace(good, "Ty . y -> x + (q^2) y . Ty"))
    report = check_t_realization(2, table)
    assert not report.passed
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert failed["t_coord Ty*y"].startswith("realized sides differ:")


def test_d_decomposes_through_omegas(table):
    # d y = wx y + wy x after expansion
    y = parse_element("y")
    ts = [parse_element(n) for n in ("Tx", "Ty", "Tz")]
    ws = ["wx", "wy", "wz"]
    total = Element.zero()
    for wname, t in zip(ws, ts):
        total = total + multiply(omega_expand(parse_element(wname), table),
                                 act(t, y, table), table)
    assert total == exterior_d(y, table)
    assert act(ts[0], y, table) == y
    assert act(ts[1], y, table) == parse_element("x")
    assert act(ts[2], y, table).is_zero()
