from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcartan.scalars import ONE, Q, Q_HALF, Q_INV, QScalar, parse_scalar


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
