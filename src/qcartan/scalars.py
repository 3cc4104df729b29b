"""Exact scalars: Laurent polynomials in q**(1/2) with rational coefficients.

Every coefficient in the engine lives in this ring.  Exponents are kept in
units of 1/2 (the stored integer n stands for q**(n/2)), which is the
smallest grid on which all the half-power group-like factors close.  A
coefficient is stored as an int when it is integral and as a Fraction
otherwise (see :func:`_exact`), so the common +-q**k coefficients of the
rule table multiply as machine integers.  No floating point is used
anywhere.

Monomials are shared: :func:`monomial` returns the one QScalar for each
value c*q**(h/2), and the constructors, negation, inversion, a sum or a
product that leaves one term and the product of two monomials all go
through it.  So the few dozen coefficient values of a rule table's
normal forms are a few dozen objects, equal values compare by identity,
and a product equal to 1 is the ONE singleton.  A product of a QScalar
with ONE is the other operand itself.  That is safe because a QScalar's
``_terms`` is never mutated after construction: every operation returns
a new or a shared scalar.  A monomial times a polynomial shifts and
scales the polynomial in one pass.  Every other sum or product is summed
on a {half_exponent: rational} map and made a QScalar once, through
:func:`summed`, which normalization uses too.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class QScalar:
    """Sparse Laurent polynomial in q**(1/2) over Q.

    Stored as {half_exponent: int | Fraction} with no zero coefficients
    and integral coefficients as ints; the empty map is the canonical zero
    and equality is map equality (2 == Fraction(2), with equal hashes).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for h, c in terms.items():
                c = _exact(c)
                if c:
                    h = int(h)
                    prev = clean.get(h)
                    if prev is None:
                        clean[h] = c
                    else:
                        s = _exact(prev + c)
                        if s:
                            clean[h] = s
                        else:
                            del clean[h]
        self._terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "QScalar":
        return _ZERO

    @classmethod
    def one(cls) -> "QScalar":
        return _ONE

    @classmethod
    def rational(cls, c) -> "QScalar":
        return monomial(0, c)

    @classmethod
    def q_power(cls, exponent, coeff=1) -> "QScalar":
        """coeff * q**exponent; exponent may be an int or a Fraction with
        denominator 1 or 2."""
        e = Fraction(exponent)
        if e.denominator not in (1, 2):
            raise ValueError(f"exponent {exponent} is not a half-integer")
        return monomial(int(2 * e), coeff)

    @classmethod
    def _raw(cls, terms: dict) -> "QScalar":
        s = cls.__new__(cls)
        s._terms = terms
        return s

    # -- queries -----------------------------------------------------

    def terms(self):
        """Items (half_exponent, coefficient), ascending exponent."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def constant_value(self) -> Fraction | None:
        """The rational value if this scalar is constant in q, else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return Fraction(self._terms[0])
        return None

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, QScalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the rational it equals (zero as 0)
        value = self.constant_value()
        if value is not None:
            return hash(value)
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        terms = dict(self._terms)
        for h, c in other._terms.items():
            terms[h] = terms.get(h, 0) + c
        return summed(terms)

    __radd__ = __add__

    def __neg__(self):
        if len(self._terms) == 1:
            (h, c), = self._terms.items()
            return monomial(h, -c)
        return QScalar._raw({h: -c for h, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not QScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other is _ONE:
            return self
        if self is _ONE:
            return other
        a, b = self._terms, other._terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            (ha, ca), = a.items()
            if len(b) == 1:
                # monomial times monomial, the rule table's common case
                (hb, cb), = b.items()
                return monomial(ha + hb, ca * cb)
            if b:
                # a monomial shifts and scales the other polynomial: the
                # exponents stay distinct and no product of nonzero
                # rationals is zero
                return QScalar._raw({ha + hb: _exact(ca * cb)
                                     for hb, cb in b.items()})
        if not a or not b:
            return _ZERO
        terms = {}
        for ha, ca in a.items():
            for hb, cb in b.items():
                h = ha + hb
                terms[h] = terms.get(h, 0) + ca * cb
        return summed(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "QScalar":
        """Multiplicative inverse; defined for monomials c*q**(h/2) only."""
        if len(self._terms) != 1:
            raise ValueError(f"cannot invert non-monomial scalar {self}")
        (h, c), = self._terms.items()
        return monomial(-h, 1 / Fraction(c))

    # -- specialization ----------------------------------------------

    def evaluate(self, q_value) -> Fraction:
        """Exact substitution q -> q_value (a nonzero rational).

        Half-integer exponents require q_value to be a perfect square of
        a rational.
        """
        v = Fraction(q_value)
        if v == 0:
            raise ValueError("cannot specialize at q = 0")
        root = None
        if any(h % 2 for h in self._terms):
            root = _rational_sqrt(v)
            if root is None:
                raise ValueError(
                    f"half-integer power of q cannot be evaluated at {v}: "
                    "not a perfect square"
                )
        total = _F0
        for h, c in self._terms.items():
            if h % 2:
                total += c * root ** h
            else:
                total += c * v ** (h // 2)
        return total

    # -- printing ----------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for h, c in self.terms():
            if h == 0:
                body = str(c)
            else:
                p = _format_exponent(h)
                if c == 1:
                    body = p
                elif c == -1:
                    body = "-" + p
                else:
                    body = f"{c}*{p}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(" - " + body[1:])
            else:
                parts.append(" + " + body)
        return "".join(parts)

    def __repr__(self):
        return f"QScalar({self})"


def monomial(h: int, c) -> QScalar:
    """The shared QScalar c*q**(h/2) (ZERO when c is 0).

    One object per value, kept in a module dict keyed by (h, c) for the
    life of the process: a rule table's normal forms take a few dozen
    values, and a long session a few thousand.  A lookup with an int or a
    Fraction finds the same entry, since equal rationals hash equally; a
    miss stores the canonical (int h, _exact(c)) key.
    """
    s = _MONOMIALS.get((h, c))
    if s is None:
        c = _exact(c)
        if not c:
            return _ZERO
        h = int(h)
        s = _MONOMIALS[h, c] = QScalar._raw({h: c})
    return s


def summed(terms: dict) -> QScalar:
    """The QScalar of a {half_exponent: rational} map that was summed in
    place: each coefficient through :func:`_exact`, zero ones dropped, and
    a single term left the shared :func:`monomial`."""
    clean = {h: _exact(c) for h, c in terms.items() if c}
    if len(clean) == 1:
        (h, c), = clean.items()
        return monomial(h, c)
    return QScalar._raw(clean) if clean else _ZERO


def _exact(c):
    """The canonical stored form of a rational: an int when integral, else
    a Fraction.  Non-int input goes through Fraction, so division never
    yields a float."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _coerce(value):
    if isinstance(value, QScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return QScalar.rational(value)
    return NotImplemented


def _format_exponent(h: int) -> str:
    if h == 2:
        return "q"
    if h % 2 == 0:
        return f"q^{h // 2}"
    return f"q^{h}/2"


def _rational_sqrt(v: Fraction) -> Fraction | None:
    if v < 0:
        return None
    np, dp = v.numerator, v.denominator
    rn, rd = isqrt(np), isqrt(dp)
    if rn * rn == np and rd * rd == dp:
        return Fraction(rn, rd)
    return None


_F0 = Fraction(0)
_ZERO = QScalar._raw({})
_MONOMIALS: dict[tuple, QScalar] = {}
_ONE = monomial(0, 1)

ZERO = _ZERO
ONE = _ONE
Q = monomial(2, 1)
Q_INV = monomial(-2, 1)
Q_HALF = monomial(1, 1)


def parse_scalar(text: str) -> QScalar:
    """Parse scalar text such as '1', '-q^-1', '3/2*q^1/2 + 1' or '(q - 1)^2'.

    The text is read by :func:`qcartan.parser.parse_element`, so scalars
    share the expression grammar and its bounds; a letter is an error.
    """
    from .parser import parse_element  # the parser imports this module

    scalar = _ZERO
    for w, c in parse_element(text).terms():
        if not w.is_empty():
            raise ValueError(f"not a scalar: {text.strip()!r} contains {w}")
        scalar = c
    return scalar
