from pathlib import Path

import pytest

from qcartan.parser import parse_element
from qcartan.relations import (
    RelationError,
    _derive_inverse_rules,
    format_presentation,
    load_presentation,
)
from qcartan.scalars import Q, Q_INV

REL_FILE = Path(__file__).resolve().parents[1] / "src" / "qcartan" / "rq3.rel"


def test_builtin_rule_counts(table):
    paper = [r for r in table.rules if r.origin == "paper"]
    derived = [r for r in table.rules if r.origin == "derived"]
    assert len(paper) == 147
    assert len(derived) == 26  # 20 inverse rules + 6 group-like rules
    assert len(table) == 173


def test_builtin_table_ids(table):
    three_by_three = [
        "coord_diff", "coord_partial", "partial_diff", "omega_coord",
        "t_coord", "t_diff", "t_omega", "inner_coord", "inner_partial",
        "inner_diff", "lie_coord", "lie_diff", "lie_partial", "lie_inner",
    ]
    for tid in three_by_three:
        assert len(table.for_table(tid, origin="paper")) == 9, tid
    for tid in ["coord", "diff_diff", "partial_partial", "omega_omega",
                "t_t", "inner_inner", "lie_lie"]:
        assert len(table.for_table(tid, origin="paper")) == 3, tid
    assert len(table.for_table("grouplike")) == 6


def test_coordinate_swap_rule(table):
    rule = table.rule("y", "x")
    assert rule.rhs == Q_INV * parse_element("x*y")


def test_partial_coordinate_rule_is_inhomogeneous(table):
    rule = table.rule("px", "x")
    assert rule.rhs == parse_element("1 + x*px")


def test_contraction_rule(table):
    rule = table.rule("ix", "dx")
    assert rule.rhs == parse_element("1 - dx*ix")


def test_derived_inverse_rules(table):
    assert table.rule("y", "xinv").rhs == Q * parse_element("xinv*y")
    assert table.rule("px", "xinv").rhs == parse_element("xinv*px - x^-2")
    assert table.rule("Tx", "xinv").rhs == parse_element("xinv*Tx - xinv")
    assert table.rule("Lx", "xinv").rhs == parse_element("xinv*Lx - x^-2")
    assert table.rule("xinv", "dy").rhs == Q_INV * parse_element("dy*xinv")
    assert table.rule("xinv", "wx").rhs == parse_element("wx*xinv")
    assert table.rule("y", "xinv").origin == "derived"


def test_no_rule_for_unprinted_pairs(table):
    from qcartan.words import generator

    assert table.rewrite(generator("wx"), generator("dx")) is None
    assert table.rewrite(generator("Tx"), generator("px")) is None
    assert table.rewrite(generator("ix"), generator("Tx")) is None
    assert table.rewrite(generator("Lx"), generator("Tx")) is None
    assert table.rewrite(generator("K"), generator("x")) is None


def test_round_trip(table):
    assert load_presentation(format_presentation(table)) == table


def test_round_trip_preserves_provenance(table):
    reloaded = load_presentation(format_presentation(table))
    for a, b in zip(reloaded.rules, table.rules):
        assert (a.table_id, a.origin) == (b.table_id, b.origin)


def test_shipped_file_in_sync(table):
    # the builtin is loaded from this file; it must stay in canonical form
    text = REL_FILE.read_text(encoding="utf-8")
    assert text == format_presentation(table)
    assert load_presentation(text) == table


def _derived_inverse_mismatches(text):
    """Pairs whose `derived` x**-1 rule in a relation file differs from
    the derivation out of the file's `paper` rules."""
    t = load_presentation(text)

    def by_pair(rules):
        return {(r.left.name, r.right.name): (r.rhs, r.table_id) for r in rules}

    expected = by_pair(_derive_inverse_rules(
        [r for r in t.rules if r.origin == "paper"]))
    actual = by_pair(
        r for r in t.rules
        if r.origin == "derived" and "xinv" in (r.left.name, r.right.name)
    )
    assert len(actual) == 20
    return sorted(k for k in expected.keys() | actual.keys()
                  if expected.get(k) != actual.get(k))


def test_shipped_derived_rules_match_derivation():
    text = REL_FILE.read_text(encoding="utf-8")
    assert _derived_inverse_mismatches(text) == []


def test_derived_rule_check_catches_flipped_coefficient():
    text = REL_FILE.read_text(encoding="utf-8")
    line = "y . xinv -> (q) x^-1 . y  # coord derived"
    assert line in text
    flipped = text.replace(line, line.replace("(q)", "(q^-1)"))
    assert _derived_inverse_mismatches(flipped) == [("y", "xinv")]


def test_load_single_rule():
    t = load_presentation("y . x -> (q^-1) x . y")
    assert len(t) == 1
    assert t.rule("y", "x").rhs == Q_INV * parse_element("x*y")


def test_load_inhomogeneous_rule():
    t = load_presentation("px . x -> 1 + x . px")
    assert t.rule("px", "x").rhs == parse_element("1 + x*px")


def test_rule_in_expression_grammar_matches_builtin(table):
    # the right side is read by the command-line expression parser
    t = load_presentation("y . x -> q^-1*x*y\npx . x -> 1 + x*px\n")
    assert t.rule("y", "x").rhs == table.rule("y", "x").rhs
    assert t.rule("px", "x").rhs == table.rule("px", "x").rhs
    t = load_presentation("y . xinv -> q*x⁻¹*y")
    assert t.rule("y", "xinv").rhs == table.rule("y", "xinv").rhs


@pytest.mark.parametrize("rhs, message", [
    ("y . z + (x + y)^16", "exceeds the limit of 50000 terms"),
    ("y . z + " + "(" * 51 + "x" + ")" * 51, "nested deeper than 50"),
], ids=["expansion", "nesting"])
def test_rule_expression_bounds_carry_line_number(rhs, message):
    text = f"# header\ny . x -> (q^-1) x . y\nz . y -> {rhs}\n"
    with pytest.raises(RelationError, match=f"^line 3: .*{message}"):
        load_presentation(text)


def test_left_side_must_be_letter_names():
    for bad in ("x^-1 . y -> y . x^-1", "y . x^-1 -> (q) x^-1 . y",
                "y . x . z -> x . y", "y -> y", "x . xinv -> 1"):
        text = f"# header\n{bad}\n"
        with pytest.raises(RelationError, match="^line 2: "):
            load_presentation(text)
    t = load_presentation("y . xinv -> (q) x^-1 . y")
    assert t.rule("y", "xinv").rhs == Q * parse_element("xinv*y")


def test_degree_mismatch_rejected():
    with pytest.raises(RelationError, match="form degree"):
        load_presentation("y . x -> x . dy")


def test_duplicate_pair_rejected():
    text = "y . x -> (q^-1) x . y\ny . x -> x . y\n"
    with pytest.raises(RelationError, match="duplicate"):
        load_presentation(text)


def test_wrong_orientation_rejected():
    with pytest.raises(RelationError, match="normal order"):
        load_presentation("x . y -> (q) y . x")


def test_non_decreasing_rule_rejected():
    # remainder term equal to the left side cannot terminate
    with pytest.raises(RelationError, match="measure|leading"):
        load_presentation("y . x -> x . y + y . x")


def test_parse_error_carries_line_number():
    text = "# header\ny . x -> (q^-1) x . y\nbogus line\n"
    with pytest.raises(RelationError, match="line 3"):
        load_presentation(text)
    for bad in ("z . y -> (1/0) y . z", "px . x -> x . px + 1/0"):
        text = f"# header\ny . x -> (q^-1) x . y\n{bad}\n"
        with pytest.raises(RelationError, match="line 3: zero denominator"):
            load_presentation(text)
    for bad in ("z . y -> y . z^300000000", "z . y -> (q) y^-100001 . z"):
        text = f"# header\ny . x -> (q^-1) x . y\n{bad}\n"
        with pytest.raises(RelationError,
                           match="line 3: exponent .* exceeds the limit"):
            load_presentation(text)
    # table invariants are checked after parsing and still name the line
    for bad, message in (
        ("z . y -> x^0 . y", "leading term"),
        ("y . x -> x . y", "duplicate rule for pair y . x"),
        ("z . y -> y . z + dx", "form degree 1 of term dx"),
        ("z . y -> y . z + x . y . z", "does not decrease the rewrite measure"),
    ):
        text = f"# header\ny . x -> (q^-1) x . y\n{bad}\n"
        with pytest.raises(RelationError, match=f"^line 3: .*{message}"):
            load_presentation(text)


def test_parse_error_position_counts_from_the_start_of_the_line():
    with pytest.raises(RelationError) as info:
        load_presentation("# h\ny . x -> (q^-1) x*y + ")
    assert str(info.value) == \
        "line 2: unexpected end of input (at position 21)"
    # each error points at the offending token of the line
    for line, token in (("z . y -> y . z + ?", "?"),
                        ("  z . y -> (q) y . z + x . bogus", "bogus"),
                        ("z . y -> y^1/2 . z  # coordinates", "1/2")):
        with pytest.raises(RelationError) as info:
            load_presentation(line)
        assert str(info.value).endswith(
            f"(at position {line.index(token)})")


def test_bad_powers_in_a_rule_name_the_line():
    with pytest.raises(RelationError) as info:
        load_presentation("# h\ny . x -> 0^-1 x*y\n")
    assert str(info.value) == \
        "line 2: 0 to the power -1 is not defined (at position 12)"
    with pytest.raises(RelationError) as info:
        load_presentation("# h\ny . x -> (q^1/2)^1/2 x*y\n")
    assert str(info.value) == \
        "line 2: exponent 1/4 of q is not a half-integer (at position 17)"
    table = load_presentation("# h\ny . x -> (q^2)^1/2 x*y\n")
    assert table.rule("y", "x").rhs == Q * parse_element("x*y")


def test_missing_swap_term_rejected():
    with pytest.raises(RelationError, match="leading term"):
        load_presentation("y . x -> 1")


def test_zero_coefficient_rule_rejected():
    with pytest.raises(RelationError, match="empty right-hand side"):
        load_presentation("y . x -> (0*q) x . y")
    with pytest.raises(RelationError, match="leading term"):
        load_presentation("px . x -> 1 + (0) x . px")


def test_comments_and_blank_lines_ignored():
    text = """
    # a comment

    y . x -> (q^-1) x . y   # coord paper
    """
    t = load_presentation(text)
    assert len(t) == 1
    assert t.rule("y", "x").table_id == "coord"
    assert t.rule("y", "x").origin == "paper"


def test_rules_have_equal_degrees_and_normal_rhs(table):
    from qcartan.relations import _has_inversion

    for rule in table.rules:
        lhs_degree = rule.left.form_degree + rule.right.form_degree
        for w in rule.rhs._terms:
            assert w.form_degree() == lhs_degree
            assert not _has_inversion(w)
