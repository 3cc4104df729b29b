import time

import pytest

from qcartan.normalizer import normalize
from qcartan.parser import ParseError, parse_element
from qcartan.scalars import QScalar
from qcartan.words import Element, make_word


def test_parse_product_word():
    e = parse_element("y*x")
    assert e == Element.from_word(make_word([("y", 1), ("x", 1)]))


def test_parse_dot_is_juxtaposition():
    assert parse_element("y . x") == parse_element("y*x")


def test_parse_scalar_term_and_sum():
    e = parse_element("(q^-1)*x*y + 1")
    expected = QScalar.q_power(-1) * parse_element("x*y") + Element.one()
    assert e == expected


def test_parse_half_power_scalar():
    from fractions import Fraction

    e = parse_element("q^1/2 * K")
    assert e == QScalar.q_power(Fraction(1, 2)) * parse_element("K")


def test_parse_rationals():
    assert parse_element("3/4") == Element.scalar(QScalar.rational("3/4"))
    assert parse_element("2*x") == 2 * parse_element("x")


def test_parse_powers():
    assert parse_element("x^-2") == Element.from_word(make_word([("x", -2)]))
    assert parse_element("y^3") == Element.from_word(make_word([("y", 3)]))
    assert parse_element("dx^2").is_zero()  # wedge square
    assert parse_element("(x + y)^2") == parse_element("x^2 + x*y + y*x + y^2")


def test_parse_unary_minus():
    assert parse_element("-x + x").is_zero()


def test_unicode_aliases():
    assert parse_element("∂x") == parse_element("px")
    assert parse_element("ω_y") == parse_element("wy")
    assert parse_element("x⁻¹") == parse_element("xinv")
    assert parse_element("T_z") == parse_element("Tz")
    assert parse_element("i_x") == parse_element("ix")
    assert parse_element("L_y") == parse_element("Ly")
    assert parse_element("d_z") == parse_element("dz")


def test_dual_generator_aliases():
    assert parse_element("X") == parse_element("Tx")
    assert parse_element("Y") == parse_element("Ty")
    assert parse_element("Z") == parse_element("Tz")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_element("x + + y")
    assert info.value.position == 4


def test_unknown_name_rejected():
    with pytest.raises(ParseError, match="unknown generator"):
        parse_element("foo*x")


def test_bad_exponents_rejected():
    with pytest.raises(ParseError, match="not an integer"):
        parse_element("x^1/2")
    with pytest.raises(ValueError, match="negative power"):
        parse_element("y^-1")
    with pytest.raises(ParseError, match="exponent"):
        parse_element("x^")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_element("x^1/0")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_element("q^1/0*x")
    for text in ("x^100001", "x^-300000000", "(x*y)^300000000",
                 "2^300000000", "q^300000000", "K^1000000"):
        with pytest.raises(ParseError, match="exceeds the limit 100000"):
            parse_element(text)
    assert len(next(iter(parse_element("x^-100000")))[0]) == 100_000


@pytest.mark.parametrize("text, position", [
    ("(q^1/2)^1/2", 8), ("(q^3/2)^1/2", 8), ("(q^1/2)^-1/2", 9),
    ("x + (q)^1/3", 8),
])
def test_power_of_q_power_must_stay_half_integer(text, position):
    with pytest.raises(ParseError, match="of q is not a half-integer") as info:
        parse_element(text)
    assert info.value.position == position


def test_power_of_q_power_is_exact():
    from fractions import Fraction

    def q(exponent):
        return Element.scalar(QScalar.q_power(Fraction(exponent)))

    assert parse_element("(q^2)^1/2") == q(1)
    assert parse_element("(q^1/2)^3") == q("3/2")
    assert parse_element("(q^1/2)^2") == q(1)
    assert parse_element("(q^-3/2)^-2") == q(3)
    assert parse_element("(q^3)^-1/3") == q(-1)


def test_number_powers():
    assert parse_element("(2)^-1") == parse_element("1/2")
    assert parse_element("(-2)^2") == parse_element("4")
    assert parse_element("0^0") == Element.one()
    for text in ("(2^3)^-1", "(-x)^-1", "(x^1)^-1", "(1*x)^-1"):
        with pytest.raises(ValueError, match="negative powers are only"):
            parse_element(text)
    # a bare letter or q power keeps its tag through parentheses
    assert parse_element("((x))^-2") == parse_element("x^-2")
    assert parse_element("(+K)^-1") == parse_element("Kinv")
    assert parse_element("(q)^-1") == parse_element("q^-1")


@pytest.mark.parametrize("text, position", [
    ("0^-1", 3), ("(0)^-1", 5), ("x + (0/1)^-2", 11), ("(0/5)^-3", 7),
])
def test_zero_to_a_negative_power_is_a_parse_error(text, position):
    with pytest.raises(ParseError, match="0 to the power -[0-9]+ is not "
                                         "defined") as info:
        parse_element(text)
    assert info.value.position == position


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError):
        parse_element("(x + y")


def test_print_parse_round_trip(table):
    # the one printer, str(Element), and the one parser agree: on these
    # texts and on the right side of every builtin rule
    texts = ["y*x", "(q^-1)*x*y + 1", "q^1/2 * K", "x^-2*y - 3/4*z",
             "-(x + y)*z", "px*(x + q*y)^2"]
    elements = [parse_element(text) for text in texts]
    elements += [rule.rhs for rule in table.rules]
    assert len(elements) == 6 + 173
    for e in elements:
        assert parse_element(str(e)) == e


def test_format_is_ascii():
    text = str(parse_element("∂x * ω_y * x⁻¹"))
    assert text == "px*wy*x^-1"
    assert text.isascii()


def test_normalized_print_round_trip(table):
    for text in ("z*y*x", "iy*dx*dy", "px*x^2", "Kinv*Ty*K"):
        e = normalize(parse_element(text), table)
        again = normalize(parse_element(str(e)), table)
        assert again == e


@pytest.mark.parametrize("base", ["x*y", "x + q*dy - 2*x^-1"])
def test_power_agrees_with_repeated_concat(base):
    from qcartan.words import concat

    element = parse_element(base)
    expected = Element.one()
    for n in range(10):
        assert parse_element(f"({base})^{n}") == expected
        expected = concat(expected, element)


def test_long_power_of_product_parses_to_one_word():
    e = parse_element("(x*y)^100000")
    (word, coeff), = e.terms()
    assert len(word) == 200_000
    assert coeff == QScalar.rational(1)


def test_expansion_bound():
    # x and x^-1 cancel in the free product: 31 terms, far below the bound
    assert len(parse_element("(x + x^-1)^30")) == 31
    assert len(parse_element("(x+y)^15")) == 2 ** 15
    for text in ("(x+y)^30", "(x+y)^100000", "*".join(["(x+y)"] * 30)):
        with pytest.raises(ValueError, match="exceeds the limit of 50000"):
            parse_element(text)
    # few terms but long ones: bounded by the letters the product writes
    assert len(next(iter(parse_element("(x*y*z)^100000")))[0]) == 300_000
    for text in ("(x^100000+y)^15", "(x^100000+y)*" * 10 + "1"):
        with pytest.raises(ValueError, match="over the limit of 1000000"):
            parse_element(text)


def test_long_sum_parses_in_linear_time():
    # 27,000 distinct monomials, such as a long right side in a relation
    # file: copying the sum for every term it adds took seconds
    text = " + ".join(f"x^{i}*y^{j}*z^{k}" for i in range(30)
                      for j in range(30) for k in range(30))
    start = time.perf_counter()
    e = parse_element(text)
    elapsed = time.perf_counter() - start
    assert len(e) == 27_000
    assert elapsed < 2.5


def test_deep_nesting_is_a_parse_error(capsys):
    from qcartan.cli import main

    assert parse_element("(" * 50 + "x" + ")" * 50) == parse_element("x")
    with pytest.raises(ParseError, match="nested deeper than 50"):
        parse_element("(" * 51 + "x" + ")" * 51)
    assert main(["normalize", "(" * 1000 + "x" + ")" * 1000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parentheses nested deeper")
