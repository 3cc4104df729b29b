from fractions import Fraction

import pytest

from qcartan.duality import (
    EPS_CONVENTION_NOTE,
    Monomial,
    check_dual_hopf,
    check_dual_relations,
    check_identification,
    matrix_rank_at,
    pair,
    pairing_matrix,
)
from qcartan.normalizer import multiply, normalize
from qcartan.parser import parse_element
from qcartan.scalars import ONE, Q_INV, QScalar
from qcartan.words import Element


def test_monomial_invariants():
    with pytest.raises(ValueError, match="must be non-negative"):
        Monomial(-1, 0, 0)
    with pytest.raises(ValueError):
        Monomial(0, 0, -2)
    assert str(Monomial(2, 1, 0)) == "x^2*y"
    # a value: equal and hashed by its exponents, never equal to a tuple
    assert Monomial(2, 1, 0) == Monomial(k=2, l=1, m=0)
    assert hash(Monomial(2, 1, 0)) == hash(Monomial(2, 1, 0))
    assert Monomial(2, 1, 0) != Monomial(1, 2, 0)
    assert Monomial(2, 1, 0) != (2, 1, 0)


def test_tangent_pairings():
    table = __import__("qcartan").builtin_presentation()
    assert pair(parse_element("X"), Monomial(3, 0, 0), table) == QScalar.rational(3)
    assert pair(parse_element("Y"), Monomial(1, 1, 0), table) == ONE
    assert pair(parse_element("Z"), Monomial(0, 0, 1), table) == ONE
    assert pair(parse_element("X"), Monomial(1, 1, 0), table).is_zero()


def test_long_dual_word_pairs_without_recursion(table):
    # the letters are peeled off in a loop, not one stack frame each
    assert pair(parse_element("X^3000"), parse_element("x^2"), table) == \
        QScalar.rational(2 ** 3000)


def test_pairing_is_representation_independent(table):
    # y x and its normal form q^-1 x y pair equally
    raw = parse_element("y*x")
    assert pair(parse_element("Y"), raw, table) == Q_INV
    assert pair(parse_element("Y"), normalize(raw, table), table) == Q_INV


def test_pairing_against_half_power_grouplike(table):
    # K = q^(X/2): <K^2, x^k> = q^k
    assert pair(parse_element("K^2"), Monomial(3, 0, 0), table) == QScalar.q_power(3)
    assert pair(parse_element("K"), Monomial(1, 0, 0), table) == QScalar.q_power(Fraction(1, 2))
    assert pair(parse_element("Kinv"), Monomial(0, 1, 0), table).is_zero()


def test_word_pairing_through_coproduct(table):
    assert pair(parse_element("X*Y"), Monomial(0, 1, 0), table) == ONE
    assert pair(parse_element("Y*X"), Monomial(0, 1, 0), table) == ONE
    # the value grows with the x degree: forced by the coproduct
    assert pair(parse_element("X*Y"), Monomial(1, 1, 0), table) == QScalar.rational(2)


def test_unit_pairing_follows_counit(table):
    assert pair(Element.one(), Monomial(2, 0, 0), table) == ONE
    assert pair(Element.one(), Monomial(0, 1, 0), table).is_zero()


def test_pairing_rejects_non_coordinates(table):
    with pytest.raises(ValueError):
        pair(parse_element("X"), parse_element("dx"), table)


def test_dual_relations_sweep(table):
    report = check_dual_relations(2, table)
    assert report.passed, report
    # 27 monomials, three commutators and one support check each
    assert len(report.results) == 27 * 4


def test_dual_relations_requires_degree_two(table):
    with pytest.raises(ValueError):
        check_dual_relations(1, table)


def test_dual_hopf_examples(table):
    # <Y, y x> = <Y, y><q^-X, x> = q^-1
    f, g = Monomial(0, 1, 0), Monomial(1, 0, 0)
    lhs = pair(parse_element("Y"), multiply(f.element(), g.element(), table), table)
    assert lhs == Q_INV
    # <X, x^2> = 2 via the primitive coproduct
    lhs = pair(parse_element("X"), Monomial(2, 0, 0), table)
    assert lhs == QScalar.rational(2)


def test_dual_hopf_sweep_flags_convention(table):
    report = check_dual_hopf(2, table)
    assert report.passed, report
    assert any(EPS_CONVENTION_NOTE in r.detail for r in report.results)


def test_antipode_transposition_example(table):
    from qcartan.duality import dual_presentation
    from qcartan.hopf import antipode

    dual = dual_presentation()
    lhs = pair(antipode(dual, parse_element("Y"), table), parse_element("y"), table)
    rhs = pair(parse_element("Y"), antipode("A", parse_element("y"), table), table)
    assert lhs == rhs


def test_dual_presentation_is_a_hopf_algebra(table):
    from qcartan.duality import dual_presentation
    from qcartan.hopf import check_hopf_axioms

    report = check_hopf_axioms(dual_presentation(), 2, table)
    assert report.passed, "\n".join(str(r) for r in report.failures[:5])


def test_identification(table):
    report = check_identification(table)
    assert report.passed, report


def test_nondegeneracy_at_small_degree(table):
    rows, cols, matrix = pairing_matrix(2, 2, table)
    assert len(cols) == 10
    assert len(rows) == 10
    for q_value in (2, 3, Fraction(5, 2)):
        assert matrix_rank_at(matrix, q_value) == 10
