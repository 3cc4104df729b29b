import itertools

import pytest

from qcartan import cartan
from qcartan.calculus import act, basis_forms, exterior_d
from qcartan.cartan import (
    VERIFIABLE_TABLES,
    check_l_realization,
    inner_apply,
    l_realization,
    lie_apply,
    verify_table,
)
from qcartan.normalizer import MissingRuleError, multiply, normalize
from qcartan.parser import parse_element
from qcartan.relations import (
    RelationTable,
    format_presentation,
    load_presentation,
)
from qcartan.report import CheckResult
from qcartan.scalars import Q
from qcartan.words import Element, linear_image

GOOD_RULE = "x . dy -> (q) dy . x"
BAD_RULE = "x . dy -> (2*q) dy . x"


def ne(text, table):
    return normalize(parse_element(text), table)


def test_contraction_of_matching_differential(table):
    assert inner_apply("x", parse_element("dx"), table) == Element.one()
    assert inner_apply("z", parse_element("dz"), table) == Element.one()


def test_contraction_kills_zero_forms(table):
    assert inner_apply("x", parse_element("y"), table).is_zero()
    assert inner_apply("y", ne("x^2*z", table), table).is_zero()


def test_contraction_on_wedge(table):
    got = inner_apply("y", ne("dx*dy", table), table)
    assert got == -Q * parse_element("dx")


def test_contraction_lowers_degree(table):
    target = ne("dx*dy*x", table)
    assert inner_apply("x", target, table).form_degree() == 1


def test_inner_rejects_bad_direction(table):
    with pytest.raises(ValueError):
        inner_apply("w", parse_element("dx"), table)


def test_inner_rejects_one_forms(table):
    with pytest.raises(ValueError, match="one-form"):
        inner_apply("x", parse_element("wx"), table)


def test_lie_of_coordinates(table):
    assert lie_apply("x", parse_element("x"), table) == Element.one()
    assert lie_apply("z", parse_element("z"), table) == Element.one()
    assert lie_apply("x", parse_element("y"), table).is_zero()


def test_lie_of_differential(table):
    assert lie_apply("x", parse_element("dy"), table).is_zero()
    # L_x(x dy) = dy: the inhomogeneity of L_x x = 1 + x L_x at work
    assert lie_apply("x", ne("x*dy", table), table) == parse_element("dy")


def test_lie_preserves_degree(table):
    target = ne("dx*y^2", table)
    got = lie_apply("y", target, table)
    assert got.form_degree() in (1, 0)  # 0 only for the zero element
    assert lie_apply("y", ne("x*z", table), table).form_degree() == 0


def test_lie_commutes_with_d(table):
    # L d = d L (both equal d i d)
    for text in ("x", "y*z", "x^2*y", "dx*y"):
        target = ne(text, table)
        for a in ("x", "y", "z"):
            lhs = lie_apply(a, exterior_d(target, table), table)
            rhs = exterior_d(lie_apply(a, target, table), table)
            assert lhs == rhs, (a, text)


def test_degree_bookkeeping_of_the_three_operators(table):
    target = ne("dx*x*y", table)
    assert exterior_d(target, table).form_degree() == 2
    assert inner_apply("x", target, table).form_degree() == 0
    assert lie_apply("x", target, table).form_degree() == 1


def test_twisted_antiderivation_is_classical_at_q_one(table):
    # the contraction satisfies the antiderivation law only at q = 1;
    # at generic q the crossing factors are the inner_diff table itself
    diffs = [parse_element(n) for n in ("dx", "dy", "dz")]
    for a in ("x", "y", "z"):
        for u, v in itertools.product(diffs, repeat=2):
            uv = multiply(u, v, table)
            lhs = inner_apply(a, uv, table)
            rhs = multiply(inner_apply(a, u, table), v, table) - \
                multiply(u, inner_apply(a, v, table), table)
            assert lhs.evaluate(1) == rhs.evaluate(1), (a, str(u), str(v))
    # one genuinely twisted instance, exact in q
    got = inner_apply("y", ne("dx*dy", table), table)
    classical = -parse_element("dx")
    assert got == Q * classical


@pytest.mark.parametrize("table_id", VERIFIABLE_TABLES)
def test_tables_are_operator_identities(table_id, table):
    report = verify_table(table_id, 2, table)
    assert report.passed, report
    expected = 3 if table_id in ("inner_inner", "lie_lie") else 9
    assert report.relations_checked == expected
    assert report.results[0] == (f"table {table_id}", True,
                                 f"{expected} relations")


def test_verify_table_rejects_unknown_id(table):
    with pytest.raises(ValueError):
        verify_table("coord", 2, table)
    with pytest.raises(ValueError):
        verify_table("lie_coord", 0, table)


def test_l_realization_examples(table):
    images = l_realization()
    # Lz = Tz = pz: both give 1 on z
    assert act(images["z"], parse_element("z"), table) == Element.one()
    assert lie_apply("z", parse_element("z"), table) == Element.one()
    # Ly = x^-1 Ty: both give 1 on y
    assert act(images["y"], parse_element("y"), table) == Element.one()
    assert lie_apply("y", parse_element("y"), table) == Element.one()
    # Lx on y: both vanish
    assert act(images["x"], parse_element("y"), table).is_zero()
    assert lie_apply("x", parse_element("y"), table).is_zero()


def test_check_l_realization_passes(table):
    report = check_l_realization(3, table)
    assert report.passed, report
    assert report.relations_checked > 0
    assert report.results[0].name == \
        f"l-realization ({report.relations_checked} cases)"


# ---------------------------------------------------------------------------
# verify_table against a per-target reference


def reference_apply_word(word, target, table, expand_omega):
    """An operator word applied to one target Element, a letter at a time."""
    out = target
    for g in reversed(word.letters()):
        memo, tag, image = cartan._letter_step(g, expand_omega, table)
        out = Element._raw(linear_image(out._terms, memo, image, tag))
    return out


def reference_rows(table_id, max_degree, table):
    """verify_table's rows, each side folded per basis form as Elements."""
    expand = table_id == "t_omega"
    rules = table.for_table(table_id, origin="paper")
    failures = []
    for rule in rules:
        for w in basis_forms(max_degree):
            target = Element.from_word(w)
            lhs = reference_apply_word(rule.lhs_word(), target, table, expand)
            rhs = Element.zero()
            for word, coeff in rule.rhs.terms():
                rhs = rhs + coeff * reference_apply_word(word, target, table,
                                                         expand)
            if lhs != rhs:
                failures.append(CheckResult(
                    f"table {table_id} {rule.left.name}*{rule.right.name} "
                    f"on {w}", False, f"{lhs} != {rhs}"))
                break
    summary = CheckResult(f"table {table_id}", not failures,
                          f"{len(rules)} relations")
    return (summary, *failures)


def fresh_copies(table):
    """Two tables with the rules of table and every memo empty."""
    return RelationTable(table.rules), RelationTable(table.rules)


@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_table_matches_the_per_target_reference(corrupt, table):
    text = format_presentation(table)
    if corrupt:
        text = text.replace(GOOD_RULE, BAD_RULE)
    mine, ref = fresh_copies(load_presentation(text))
    failing = 0
    for table_id in VERIFIABLE_TABLES:
        rows = verify_table(table_id, 2, mine).results
        assert rows == reference_rows(table_id, 2, ref), table_id
        failing += len(rows) - 1
    assert (failing > 0) == corrupt


def test_missing_rule_surfaces_where_the_reference_raises(table):
    rules = [r for r in table.rules
             if (r.left.name, r.right.name) != ("y", "dz")]
    mine, ref = fresh_copies(RelationTable(rules))
    with pytest.raises(MissingRuleError) as got:
        verify_table("inner_coord", 2, mine)
    with pytest.raises(MissingRuleError) as expected:
        reference_rows("inner_coord", 2, ref)
    assert str(got.value) == str(expected.value)
    # both stop after computing the same images
    assert set(mine.memo("act")) == set(ref.memo("act"))
    assert set(mine.normal_form_cache("leftmost")) == \
        set(ref.normal_form_cache("leftmost"))


def test_verify_table_resolves_each_rule_side_once(table, monkeypatch):
    calls = []
    step = cartan._letter_step

    def counted(g, expand_omega, tbl):
        calls.append(g)
        return step(g, expand_omega, tbl)

    monkeypatch.setattr(cartan, "_letter_step", counted)
    for table_id in VERIFIABLE_TABLES:
        rules = table.for_table(table_id, origin="paper")
        letters = sum(len(r.lhs_word()) + sum(len(w) for w, _ in r.rhs.terms())
                      for r in rules)
        for max_degree in (1, 2):
            calls.clear()
            assert verify_table(table_id, max_degree, table).passed
            assert len(calls) == letters, (table_id, max_degree)
