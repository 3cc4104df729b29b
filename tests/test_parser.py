import pytest

from qcartan.normalizer import normalize
from qcartan.parser import ParseError, format_expr, parse, parse_element
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
        parse("x + + y")
    assert info.value.position == 4


def test_unknown_name_rejected():
    with pytest.raises(ParseError, match="unknown generator"):
        parse("foo*x")


def test_bad_exponents_rejected():
    with pytest.raises(ParseError, match="not an integer"):
        parse("x^1/2")
    with pytest.raises(ValueError, match="negative power"):
        parse_element("y^-1")
    with pytest.raises(ParseError, match="exponent"):
        parse("x^")
    with pytest.raises(ParseError, match="zero denominator"):
        parse("x^1/0")
    with pytest.raises(ParseError, match="zero denominator"):
        parse("q^1/0*x")
    for text in ("x^100001", "x^-300000000", "(x*y)^300000000",
                 "2^300000000", "q^300000000", "K^1000000"):
        with pytest.raises(ParseError, match="exceeds the limit 100000"):
            parse(text)
    assert len(next(iter(parse_element("x^-100000")))[0]) == 100_000


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError):
        parse("(x + y")


def test_ast_format_round_trip():
    for text in ("y*x", "(q^-1)*x*y + 1", "q^1/2 * K", "x^-2*y - 3/4*z",
                 "-(x + y)*z", "px*(x + q*y)^2"):
        ast = parse(text)
        assert parse(format_expr(ast)) == ast


def test_format_is_ascii():
    ast = parse("∂x * ω_y * x⁻¹")
    text = format_expr(ast)
    assert text == "px*wy*xinv"
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


def test_deep_nesting_is_a_parse_error(capsys):
    from qcartan.cli import main

    assert parse_element("(" * 50 + "x" + ")" * 50) == parse_element("x")
    with pytest.raises(ParseError, match="nested deeper than 50"):
        parse("(" * 51 + "x" + ")" * 51)
    assert main(["normalize", "(" * 1000 + "x" + ")" * 1000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parentheses nested deeper")
