from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qcartan.scalars import (ONE, Q, Q_HALF, Q_INV, ZERO, QScalar, monomial,
                             parse_scalar)


def test_inverse_pair_multiplies_to_one():
    assert Q * Q_INV == ONE


def test_half_exponents_add():
    assert Q_HALF * Q_HALF == Q


def test_addition_cancels():
    assert (ONE + Q) + (-Q) == ONE


def test_zero_is_empty_map():
    assert (Q - Q).is_zero()
    assert QScalar.rational(0) == QScalar.zero()
    assert not QScalar.zero()
    for text in ("0", "0*q", "q - q"):
        assert parse_scalar(text) == QScalar.zero(), text
        assert parse_scalar(text)._terms == {}, text


def test_rational_coefficients():
    s = QScalar.rational(Fraction(3, 4)) * QScalar.rational(Fraction(2, 3))
    assert s == QScalar.rational(Fraction(1, 2))


def test_q_power_constructor_rejects_thirds():
    with pytest.raises(ValueError):
        QScalar.q_power(Fraction(1, 3))


def test_pow():
    assert Q ** 3 == QScalar.q_power(3)
    assert Q ** -2 == QScalar.q_power(-2)
    assert (ONE + Q) ** 2 == ONE + 2 * Q + Q * Q


def test_inverse_of_monomial():
    s = QScalar.q_power(Fraction(-3, 2), Fraction(2, 5))
    assert s * s.inverse() == ONE
    with pytest.raises(ValueError):
        (ONE + Q).inverse()


def test_evaluate_classical_limit():
    assert Q_INV.evaluate(1) == 1


def test_evaluate_integer_point():
    assert (ONE + Q).evaluate(2) == 3


def test_evaluate_half_power_at_perfect_square():
    assert Q_HALF.evaluate(4) == 2
    assert QScalar.q_power(Fraction(-1, 2)).evaluate(Fraction(9, 4)) == Fraction(2, 3)


def test_evaluate_errors():
    with pytest.raises(ValueError):
        Q.evaluate(0)
    with pytest.raises(ValueError):
        Q_HALF.evaluate(2)


def test_str_forms():
    assert str(QScalar.zero()) == "0"
    assert str(ONE + Q) == "1 + q"
    assert str(-Q_INV) == "-q^-1"
    assert str(QScalar.q_power(Fraction(1, 2), Fraction(3, 2))) == "3/2*q^1/2"
    assert str(ONE - Q ** 2) == "1 - q^2"


@pytest.mark.parametrize("text", ["1", "q", "-q^-1", "3/2*q^1/2", "1 + q", "q^-3/2 - 2"])
def test_parse_format_round_trip(text):
    s = parse_scalar(text)
    assert parse_scalar(str(s)) == s


def test_parse_reads_the_expression_grammar():
    assert parse_scalar("(q - 1)^2") == ONE - 2 * Q + Q ** 2
    assert parse_scalar("q^1/2 * q^1/2") == Q


def test_parse_rejects_bad_powers():
    from qcartan.parser import ParseError

    with pytest.raises(ParseError, match="0 to the power -1 is not defined"):
        parse_scalar("0^-1")
    with pytest.raises(ParseError, match="exponent 1/4 of q is not a half"):
        parse_scalar("(q^1/2)^1/2")
    assert parse_scalar("(q^2)^1/2") == Q
    assert parse_scalar("(q^1/2)^3") == Q * Q_HALF


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("z")
    with pytest.raises(ValueError):
        parse_scalar("")


scalars = st.builds(
    QScalar,
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        max_size=4,
    ),
)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QScalar.zero() == a
    assert a * ONE == a


def _stored_exactly(s: QScalar) -> bool:
    """Integral coefficients stored as int, the rest as Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in s._terms.values()
    )


@given(scalars, scalars, st.integers(min_value=-2, max_value=3))
def test_coefficients_stay_exact(a, b, n):
    results = [a, b, a + b, a - b, -a, a * b, (a + b) * (a - b), a + 1,
               2 * b, a * Fraction(1, 2), a + Fraction(3, 2)]
    for s in (a, b):
        if s.is_monomial():
            results += [s.inverse(), s ** n, s * s.inverse()]
    for s in results:
        assert _stored_exactly(s), s._terms


def test_inverse_goes_through_fraction():
    inv = QScalar.rational(2).inverse()
    assert inv._terms == {0: Fraction(1, 2)}
    assert type(inv._terms[0]) is Fraction
    assert QScalar.rational(Fraction(1, 2)).inverse()._terms == {0: 2}
    assert type(QScalar.rational(Fraction(1, 2)).inverse()._terms[0]) is int


def test_int_and_fraction_scalars_are_equal():
    a, b = QScalar.rational(2), QScalar.rational(Fraction(2))
    assert a == b and hash(a) == hash(b)
    assert type(b._terms[0]) is int
    c = QScalar({3: Fraction(4, 2)})
    assert c == QScalar.q_power(Fraction(3, 2), 2) and type(c._terms[3]) is int
    assert QScalar.rational(Fraction(1, 2)) * 2 == ONE


@pytest.mark.parametrize("value", [0, 1, 2, -3, Fraction(1, 2)], ids=str)
def test_constant_scalar_hashes_as_its_rational(value):
    s = QScalar.rational(value)
    assert s == value and hash(s) == hash(value)
    assert len({s, value}) == 1


def test_specializations_return_fractions():
    assert type((ONE + Q).evaluate(2)) is Fraction
    assert type(QScalar.zero().evaluate(3)) is Fraction
    assert type(QScalar.rational(3).constant_value()) is Fraction
    assert type(QScalar.zero().constant_value()) is Fraction
    assert QScalar.rational(3).constant_value() == 3


def test_monomials_are_shared():
    assert Q * Q_INV is ONE
    assert Q_HALF * Q_HALF is Q
    assert QScalar.q_power(1) is Q
    assert QScalar.rational(1) is ONE
    assert -ONE is monomial(0, -1)
    assert Q.inverse() is Q_INV
    assert (Q + Q) - Q is Q
    assert monomial(3, 0) is ZERO


half_exponents = st.integers(min_value=-8, max_value=8)
nonzero_rationals = st.fractions(min_value=-20, max_value=20,
                                 max_denominator=6).filter(bool)


@given(half_exponents, nonzero_rationals, half_exponents, nonzero_rationals)
def test_shared_monomials_equal_the_unshared_reference(ha, ca, hb, cb):
    a, b = monomial(ha, ca), monomial(hb, cb)
    ref_a, ref_b = QScalar({ha: ca}), QScalar({hb: cb})
    assert a is monomial(ha, Fraction(ca)) is QScalar.q_power(
        Fraction(ha, 2), ca)
    for shared, ref in ((a, ref_a), (a * b, QScalar({ha + hb: ca * cb})),
                        (a * b, ref_a * ref_b), (-a, QScalar({ha: -ca})),
                        (a.inverse(), QScalar({-ha: 1 / ca}))):
        assert shared == ref and hash(shared) == hash(ref)
        assert shared._terms == ref._terms and _stored_exactly(shared)
    assert a * b is b * a is monomial(ha + hb, ca * cb)


def test_one_times_a_scalar_is_that_scalar():
    for c in (monomial(3, Fraction(-2, 5)), ONE + Q, Q_HALF - 2 * Q ** 3):
        assert c * ONE is c
        assert ONE * c is c
    # an int operand is still coerced, never handed back
    for product in (ONE * 2, 2 * ONE):
        assert type(product) is QScalar
        assert product is QScalar.rational(2)


def test_non_monomial_products_are_fresh():
    s = ONE + Q
    assert s * Q is not s * Q
    assert s * s is not s * s
    assert (s * s)._terms == {0: 1, 2: 2, 4: 1}


polynomials = st.dictionaries(half_exponents, nonzero_rationals,
                              min_size=2, max_size=6).map(QScalar)


def _double_loop(a: QScalar, b: QScalar) -> dict:
    """The product's {half_exponent: coefficient} map by the generic
    double loop."""
    terms = {}
    for ha, ca in a._terms.items():
        for hb, cb in b._terms.items():
            terms[ha + hb] = terms.get(ha + hb, 0) + ca * cb
    return {h: c for h, c in terms.items() if c}


@given(half_exponents, nonzero_rationals, polynomials)
@example(2, Fraction(2, 3), QScalar({0: Fraction(3, 2), 2: Fraction(3, 4)}))
def test_monomial_times_polynomial_is_the_double_loop(h, c, p):
    """The one-pass shift and scale gives the double loop's terms, with
    integral products (2/3 * 3/2) stored as int."""
    m = monomial(h, c)
    for product in (m * p, p * m):
        assert product._terms == _double_loop(m, p)
        assert _stored_exactly(product), product._terms
