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

Numbers are exact rationals (`3`, `3/4`); `q` powers admit half-integer
exponents (`q^1/2`); every exponent is bounded in absolute value by
:data:`~qcartan.words.MAX_EXPONENT`, and parentheses nest at most
:data:`MAX_NESTING` deep, so that parsing and evaluating the tree stay
far inside Python's recursion limit.  Products are expanded freely, and
no single product may pair up more than :data:`MAX_EXPANSION` terms or
write more than :data:`MAX_EXPANSION_LETTERS` letters, so a power or a
long product of sums is an error rather than an expansion that doubles
per factor.  Unicode spellings of the operator
letters are accepted on input; output is plain ASCII.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .scalars import QScalar
from .words import Element, GENERATORS, MAX_EXPONENT, concat, make_word

# Each nesting level costs four parser frames, up to three frames of
# to_element or format_expr, and up to ten when two trees are compared
# with ==, so 50 levels stay well under the default recursion limit of
# 1000.
MAX_NESTING = 50

# Largest number of term pairs one free product may form: the sizes of the
# two factors multiplied, checked before every product of to_element.
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


# --- abstract syntax -------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction


@dataclass(frozen=True)
class QPow(Expr):
    halves: int  # q**(halves/2)


@dataclass(frozen=True)
class Gen(Expr):
    name: str


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple  # of (sign, Expr)


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
    def __init__(self, text: str):
        self.text = text
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

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return e

    def expr(self) -> Expr:
        terms = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        terms.append((sign, self.term()))
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                terms.append((1 if value == "+" else -1, self.term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*.":
                self.next()
                factors.append(self.factor())
            elif kind in ("number", "name") or (kind == "op" and value == "("):
                # juxtaposition, as in the canonical printer's "(q^-1) x*y"
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))

    def factor(self) -> Expr:
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
        if isinstance(atom, QPow):
            half = exp * 2
            if half.denominator != 1:
                raise ParseError(f"exponent {exp} of q is not a half-integer", pos)
            return QPow(int(half) * atom.halves // 2)
        if exp.denominator != 1:
            raise ParseError(f"exponent {exp} is not an integer", pos)
        return Pow(atom, int(exp))

    def atom(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "number":
            return Num(_fraction(value, pos))
        if kind == "name":
            if value == "q":
                return QPow(2)
            name = ALIASES.get(value)
            if name is None:
                raise ParseError(f"unknown generator name {value!r}", pos)
            return Gen(name)
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


def parse(text: str) -> Expr:
    """Parse a textual expression to abstract syntax."""
    return _Parser(text).parse()


def format_expr(e: Expr) -> str:
    """Canonical ASCII rendering; parse(format_expr(parse(s))) == parse(s)."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, QPow):
        if e.halves == 2:
            return "q"
        if e.halves % 2 == 0:
            return f"q^{e.halves // 2}"
        return f"q^{Fraction(e.halves, 2)}"
    if isinstance(e, Gen):
        return e.name
    if isinstance(e, Pow):
        base = format_expr(e.base)
        if not isinstance(e.base, (Gen, Num)):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Mul):
        parts = []
        for f in e.factors:
            text = format_expr(f)
            if isinstance(f, Sum):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    if isinstance(e, Sum):
        out = ""
        for sign, term in e.terms:
            text = format_expr(term)
            if isinstance(term, Sum):
                text = f"({text})"
            if not out:
                out = text if sign > 0 else f"-{text}"
            else:
                out += f" + {text}" if sign > 0 else f" - {text}"
        return out
    raise TypeError(f"not an expression: {e!r}")


def to_element(e: Expr) -> Element:
    """Evaluate abstract syntax to an element (free products, unnormalized)."""
    if isinstance(e, Num):
        return Element.scalar(QScalar.rational(e.value))
    if isinstance(e, QPow):
        return Element.scalar(QScalar._raw({e.halves: 1}))
    if isinstance(e, Gen):
        return _letter(e.name)
    if isinstance(e, Pow):
        if isinstance(e.base, Gen):
            word = make_word([(e.base.name, e.exponent)])
            return Element.from_word(word)
        if isinstance(e.base, Num):
            return Element.scalar(QScalar.rational(e.base.value ** e.exponent))
        if e.exponent < 0:
            raise ValueError("negative powers are only defined for x and K")
        # repeated squaring (concat is associative): O(log n) products, so
        # the work is linear in the length of the result, not quadratic
        out = Element.one()
        base = to_element(e.base)
        n = e.exponent
        while n:
            if n & 1:
                out = _product(out, base)
            n >>= 1
            if n:
                base = _product(base, base)
        return out
    if isinstance(e, Mul):
        out = to_element(e.factors[0])
        for f in e.factors[1:]:
            out = _product(out, to_element(f))
        return out
    if isinstance(e, Sum):
        out = Element.zero()
        for sign, term in e.terms:
            out = out + (to_element(term) if sign > 0 else -to_element(term))
        return out
    raise TypeError(f"not an expression: {e!r}")


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
    """Parse straight to an (unnormalized) element."""
    return to_element(parse(text))
