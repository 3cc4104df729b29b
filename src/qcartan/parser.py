"""Expression front end: the one algebra grammar over the fixed alphabet.

Command-line input, the right sides of relation-file rules
(:mod:`qcartan.relations`) and scalar text
(:func:`qcartan.scalars.parse_scalar`) are all read by
:func:`parse_element`, so the syntax and its bounds are defined here
only.

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '.') factor)*
    factor := atom ('^' ['-'] number)?
    atom   := number | 'q' | name | '(' expr ')'

The parser evaluates as it reads: there is no syntax tree, and each
rule returns its value as an :class:`~qcartan.words.Element` (or, for a
bare number, `q` power or letter, a tag that `^` needs).  So errors are
reported in reading order: `y^-1 + )` reports the negative power of `y`,
not the stray parenthesis after it.  The one printer is
``str(Element)``, and the parser reads what it prints.

Numbers are exact rationals (`3`, `3/4`); `q` powers admit half-integer
exponents (`q^1/2`, and `(q^2)^1/2` is `q`, but `(q^1/2)^1/2` is an
error); every exponent is bounded in absolute value by
:data:`~qcartan.words.MAX_EXPONENT`, and parentheses nest at most
:data:`MAX_NESTING` deep, so that parsing stays far inside Python's
recursion limit.  Products are expanded freely, and no single product
may pair up more than :data:`MAX_EXPANSION` terms or write more than
:data:`MAX_EXPANSION_LETTERS` letters, so a power or a long product of
sums is an error rather than an expansion that doubles per factor.
Unicode spellings of the operator letters are accepted on input; output
is plain ASCII.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache

from .scalars import QScalar, monomial
from .words import Element, GENERATORS, MAX_EXPONENT, concat, make_word

# Each nesting level costs four parser frames (expr, term, factor, atom),
# so 50 levels take about 200 frames, well under the default recursion
# limit of 1000.
MAX_NESTING = 50

# Largest number of term pairs one free product may form: the sizes of the
# two factors multiplied, checked before every product the parser forms.
# (x+y)^15 forms 32,768 and (x+y+z)^9 19,683; (x+y)^16 is refused.
MAX_EXPANSION = 50_000
# Largest number of letters one free product may write, summed over its
# terms: (x*y*z)^100000 writes 300,000 and (x+y)^15 491,520, while
# (x^100000+y)^15 is refused.
MAX_EXPANSION_LETTERS = 1_000_000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.reason = message
        self.position = position
        super().__init__(f"{message} (at position {position})")


def _aliases():
    out = {}
    for name in GENERATORS:
        out[name] = name
    for a in "xyz":
        out[f"d_{a}"] = f"d{a}"
        out[f"p_{a}"] = f"p{a}"
        out[f"∂{a}"] = f"p{a}"      # ∂x
        out[f"∂_{a}"] = f"p{a}"
        out[f"w_{a}"] = f"w{a}"
        out[f"ω{a}"] = f"w{a}"      # ωx
        out[f"ω_{a}"] = f"w{a}"
        out[f"i_{a}"] = f"i{a}"
        out[f"L_{a}"] = f"L{a}"
        out[f"T_{a}"] = f"T{a}"
    out["x⁻¹"] = "xinv"        # x⁻¹
    out["K⁻¹"] = "Kinv"
    # dual tangent generators
    out["X"] = "Tx"
    out["Y"] = "Ty"
    out["Z"] = "Tz"
    return out


ALIASES = _aliases()


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:/\d+)?)
      | (?P<name>[A-Za-z∂ω][A-Za-z0-9_]*(?:⁻¹)?)
      | (?P<op>[-+*.^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _fraction(value: str, pos: int) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {value!r}", pos) from None


class _Parser:
    """Recursive descent that evaluates as it reads.

    Each grammar method returns a tagged value: ("num", Fraction),
    ("q", halves) for q**(halves/2), ("letter", name) or ("elem",
    Element).  A bare number, q power or letter keeps its tag through
    parentheses, so that `^` can treat it exactly: a letter power is one
    word, a number power a rational, a q power a q power; every other
    base is an element, expanded by repeated squaring.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open parentheses

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.next()

    def expr(self):
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        first = self.term()
        kind, op, _ = self.peek()
        if sign == 1 and not (kind == "op" and op in "+-"):
            return first
        first = _element(first)
        out = Element.zero() + (first if sign > 0 else -first)
        while kind == "op" and op in "+-":
            self.next()
            term = _element(self.term())
            out = out + (term if op == "+" else -term)
            kind, op, _ = self.peek()
        return "elem", out

    def term(self):
        out = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*.":
                self.next()
            elif not (kind in ("number", "name")
                      or (kind == "op" and value == "(")):
                break
            # '*', '.' or juxtaposition, as in the printer's "(q^-1) x*y"
            out = "elem", _product(_element(out), _element(self.factor()))
        return out

    def factor(self):
        atom = self.atom()
        kind, value, _ = self.peek()
        if not (kind == "op" and value == "^"):
            return atom
        self.next()
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
            kind, value, pos = self.peek()
        if kind != "number":
            raise ParseError("expected an exponent", pos)
        self.next()
        exp = sign * _fraction(value, pos)
        if abs(exp) > MAX_EXPONENT:
            raise ParseError(
                f"exponent {exp} exceeds the limit {MAX_EXPONENT}", pos)
        tag, base = atom
        if tag == "q":
            halves = base * exp
            if halves.denominator != 1:
                raise ParseError(
                    f"exponent {halves / 2} of q is not a half-integer", pos)
            return "q", int(halves)
        if exp.denominator != 1:
            raise ParseError(f"exponent {exp} is not an integer", pos)
        n = int(exp)
        if tag == "letter":
            return "elem", Element.from_word(make_word([(base, n)]))
        if tag == "num":
            if base == 0 and n < 0:
                raise ParseError(f"0 to the power {n} is not defined", pos)
            return "elem", Element.scalar(QScalar.rational(base ** n))
        if n < 0:
            raise ValueError("negative powers are only defined for x and K")
        # repeated squaring (concat is associative): O(log n) products, so
        # the work is linear in the length of the result, not quadratic
        out = Element.one()
        while n:
            if n & 1:
                out = _product(out, base)
            n >>= 1
            if n:
                base = _product(base, base)
        return "elem", out

    def atom(self):
        kind, value, pos = self.next()
        if kind == "number":
            return "num", _fraction(value, pos)
        if kind == "name":
            if value == "q":
                return "q", 2
            name = ALIASES.get(value)
            if name is None:
                raise ParseError(f"unknown generator name {value!r}", pos)
            return "letter", name
        if kind == "op" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return e
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def _element(value) -> Element:
    """The element of a tagged parser value."""
    tag, v = value
    if tag == "elem":
        return v
    if tag == "letter":
        return _letter(v)
    if tag == "num":
        return Element.scalar(QScalar.rational(v))
    return Element.scalar(monomial(v, 1))


@cache
def _letter(name: str) -> Element:
    """The element of one letter, built once: elements are never mutated."""
    return Element.from_letter(name)


def _product(a: Element, b: Element) -> Element:
    """concat(a, b), refused when it would pair up more than
    MAX_EXPANSION terms or write more than MAX_EXPANSION_LETTERS letters."""
    if len(a) * len(b) > MAX_EXPANSION:
        raise ValueError(
            f"expanding a product of {len(a)} and {len(b)} terms exceeds "
            f"the limit of {MAX_EXPANSION} terms"
        )
    letters = (len(b) * sum(len(w) for w, _ in a.terms())
               + len(a) * sum(len(w) for w, _ in b.terms()))
    if letters > MAX_EXPANSION_LETTERS:
        raise ValueError(
            f"expanding a product of {len(a)} and {len(b)} terms writes "
            f"{letters} letters, over the limit of {MAX_EXPANSION_LETTERS}"
        )
    return concat(a, b)


def parse_element(text: str) -> Element:
    """Parse and evaluate text to an (unnormalized) element: products are
    free concatenations, nothing is normal-ordered."""
    parser = _Parser(text)
    value = parser.expr()
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {tok!r}", pos)
    return _element(value)
