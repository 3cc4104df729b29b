"""Duality pairing between the tangent algebra and the coordinate algebra.

The dual algebra is generated by the tangent vectors X, Y, Z (spelled with
the letters Tx, Ty, Tz here) together with the group-like letter K, which
in this module stands for the *half* power q**(X/2); q**X is then K^2 and
stays a word with integer exponents.  Generator pairings against the
monomial basis x^k y^l z^m:

    <X, f>    = k  [l = m = 0]
    <Y, f>    = 1  [l = 1, m = 0]
    <Z, f>    = 1  [l = 0, m = 1]
    <K^n, f>  = q^(n k / 2)  [l = m = 0]

and word pairings peel one letter at a time off through the coordinate
coproduct, left factor against left slot (differentiation acts from the
right in this basis).

The unit pairs as <1, f> = eps(f) = [l = m = 0], the multiplicative
extension of eps(x) = 1.  The printed convention [k = 0] for the unit
contradicts eps(x) = 1 and would break <X, x^2> = 2; reports carry a note
flagging the choice.

The pairing is bilinear: :func:`pair` normalizes both arguments and sums
uc * fc * <uw, fw> over their terms, where the value for each pair of
normalized words is computed once by the coproduct recursion and kept in
the relation table's "pair" memo.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from .scalars import ONE, QScalar
from .words import COORD_CODES, Element, Word, add_term, concat, make_word
from .normalizer import multiply, normalize, commutator
from .report import CheckReport, CheckResult, Record
from .hopf import (HopfPresentation, _letter_products, antipode, coproduct,
                   tensor)

EPS_CONVENTION_NOTE = (
    "unit pairing uses <1,f> = [l=0][m=0], the multiplicative extension of "
    "eps(x) = 1; the alternative [k=0] convention is inconsistent with the "
    "tangent-vector pairing and is flagged here rather than silently dropped"
)


class Monomial(Record):
    """Basis element x^k y^l z^m of the coordinate algebra: an immutable
    :class:`Record`, equal by value, whose exponents are not negative."""

    __slots__ = ("k", "l", "m")

    def __init__(self, k: int, l: int, m: int):
        if k < 0 or l < 0 or m < 0:
            raise ValueError("monomial exponents must be non-negative")
        self._fill(k, l, m)

    def element(self) -> Element:
        return Element.from_word(
            make_word([("x", self.k), ("y", self.l), ("z", self.m)])
        )

    def __str__(self):
        return str(self.element())


_DUAL_LETTERS = ("Tx", "Ty", "Tz", "K", "Kinv")


def dual_presentation() -> HopfPresentation:
    """Hopf structure of the dual algebra (X primitive, K group-like,
    coproducts of Y and Z twisted by q**-X = K^-2)."""
    x_ = Element.from_letter("Tx")
    y_ = Element.from_letter("Ty")
    z_ = Element.from_letter("Tz")
    k = Element.from_letter("K")
    kinv = Element.from_letter("K", -1)
    kinv2 = Element.from_letter("K", -2)
    k2 = Element.from_letter("K", 2)
    one = Element.one()
    delta = {
        "Tx": tensor(x_, one) + tensor(one, x_),
        "Ty": tensor(y_, kinv2) + tensor(one, y_),
        "Tz": tensor(z_, kinv2) + tensor(one, z_),
        "K": tensor(k, k),
        "Kinv": tensor(kinv, kinv),
    }
    zero = QScalar.zero()
    eps = {"Tx": zero, "Ty": zero, "Tz": zero, "K": ONE, "Kinv": ONE}
    antipode_map = {
        "Tx": -x_,
        "Ty": -concat(y_, k2),
        "Tz": -concat(z_, k2),
        "K": kinv,
        "Kinv": k,
    }
    return HopfPresentation("dual", _DUAL_LETTERS, delta, eps, antipode_map)


_dual = cache(dual_presentation)


def _monomial_exponents(word: Word) -> tuple[int, int, int]:
    """(k, l, m) of x^k y^l z^m, counting letters: k = #x - #xinv."""
    n = Counter(g.name for g in word.letters())
    if n.keys() - {"x", "xinv", "y", "z"}:
        raise ValueError(f"{word} is not a coordinate monomial")
    return n["x"] - n["xinv"], n["y"], n["z"]


def _letter_pairing(name: str, k: int, l: int, m: int) -> QScalar:
    if name == "Tx":
        return QScalar.rational(k) if l == 0 and m == 0 else QScalar.zero()
    if name == "Ty":
        return ONE if l == 1 and m == 0 else QScalar.zero()
    if name == "Tz":
        return ONE if l == 0 and m == 1 else QScalar.zero()
    if name in ("K", "Kinv"):
        if l or m:
            return QScalar.zero()
        sign = 1 if name == "K" else -1
        return QScalar.q_power(Fraction(sign * k, 2))
    raise ValueError(f"letter {name} is outside the dual algebra")


def _unit_pairing(l: int, m: int) -> QScalar:
    # eps extended multiplicatively from eps(x) = 1; see module docstring
    return ONE if l == 0 and m == 0 else QScalar.zero()


def _pair_letters(letters, word: Word, table) -> QScalar:
    """<letters, word>, one letter at a time: the head letter pairs with
    the left slot of the coordinate coproduct, and the rest with the
    right slot.  slots maps each right-slot word still to be paired to
    its accumulated coefficient."""
    _, l, m = _monomial_exponents(word)
    if not letters:
        return _unit_pairing(l, m)
    slots = {word: ONE}
    for head in letters[:-1]:
        peeled: dict[Word, QScalar] = {}
        for w, c in slots.items():
            for (w1, w2), dc in coproduct("A", Element.from_word(w),
                                           table).terms():
                first = _letter_pairing(head, *_monomial_exponents(w1))
                if first:
                    add_term(peeled, w2, c * dc * first)
        slots = peeled
    total = QScalar.zero()
    for w, c in slots.items():
        total = total + c * _letter_pairing(letters[-1],
                                            *_monomial_exponents(w))
    return total


def _memo_pair_sum(u: Element, f: Element, memo: dict) -> QScalar | None:
    """sum uc*fc*<uw, fw> over the words as given, read from the memo;
    None as soon as a pair of words is missing."""
    total = QScalar.zero()
    for uw, uc in u.terms():
        for fw, fc in f.terms():
            value = memo.get((uw, fw))
            if value is None:
                return None
            if value:
                total = total + uc * fc * value
    return total


def pair(u: Element, f, table) -> QScalar:
    """Bilinear duality pairing <u, f>.

    u is an element of the dual algebra; f is a Monomial or any element of
    the coordinate algebra (normalized first, so the value is independent
    of the representation).  The table's "pair" memo holds <uw, fw> for
    pairs of normal words.  u and f are normalized only when a pair of
    their words, as given, is not in it: already-normal arguments skip
    normalize, and terms that cancel in normal form are never paired.
    """
    if isinstance(f, Monomial):
        f = f.element()
    if not all(COORD_CODES.issuperset(w) for w in f._terms):
        raise ValueError("pairing is defined on the coordinate algebra")
    memo = table.memo("pair")
    total = _memo_pair_sum(u, f, memo)
    if total is None:
        u, f = normalize(u, table), normalize(f, table)
        for uw, _ in u.terms():
            for fw, _ in f.terms():
                if (uw, fw) not in memo:
                    letters = [g.name for g in uw.letters()]
                    memo[(uw, fw)] = _pair_letters(letters, fw, table)
        total = _memo_pair_sum(u, f, memo)
    return total


def monomials(max_exp: int):
    return [
        Monomial(k, l, m)
        for k in range(max_exp + 1)
        for l in range(max_exp + 1)
        for m in range(max_exp + 1)
    ]


def check_dual_relations(max_exp: int, table) -> CheckReport:
    """The dual generators commute: <XY - YX, f> = 0 on the monomial basis
    (and <XY, f> reproduces the Y pairing)."""
    if max_exp < 2:
        raise ValueError("max_exp must be at least 2")
    x_ = Element.from_letter("Tx")
    y_ = Element.from_letter("Ty")
    z_ = Element.from_letter("Tz")
    pairs = [("XY-YX", x_, y_), ("XZ-ZX", x_, z_), ("YZ-ZY", y_, z_)]
    results = []
    for f in monomials(max_exp):
        for label, a, b in pairs:
            value = pair(concat(a, b) - concat(b, a), f, table)
            ok = value.is_zero()
            results.append(CheckResult(
                f"<{label}, {f}>", ok, "" if ok else f"value {value}"))
        got = pair(concat(x_, y_), f, table)
        # Supported exactly on l = 1, m = 0, where the coproduct forces the
        # value k + 1 (the printed constant-1 form only holds at k = 0).
        expected = (
            QScalar.rational(f.k + 1) if f.l == 1 and f.m == 0
            else QScalar.zero()
        )
        results.append(CheckResult.compare(
            f"<XY, {f}> supported on the Y pairing", got, expected))
    return CheckReport("dual commutation relations", tuple(results))


def check_dual_hopf(max_exp: int, table) -> CheckReport:
    """Duality transposes product against coproduct, unit against counit,
    and antipode against antipode."""
    if max_exp < 1:
        raise ValueError("max_exp must be at least 1")
    dual = _dual()
    gens = {
        "X": Element.from_letter("Tx"),
        "Y": Element.from_letter("Ty"),
        "Z": Element.from_letter("Tz"),
    }
    results = [CheckResult("note", True, EPS_CONVENTION_NOTE)]
    monos = monomials(max_exp)
    basis = [(f.element(), str(f)) for f in monos]
    # <u1, f> and <u2, g> for every coproduct term u1 (x) u2, once per
    # basis monomial instead of once per (f, g)
    coproducts = []
    for label, u in gens.items():
        du = [
            (c, [pair(Element.from_word(u1), f, table) for f, _ in basis],
             [pair(Element.from_word(u2), g, table) for g, _ in basis])
            for (u1, u2), c in coproduct(dual, u, table).terms()
        ]
        coproducts.append((label, u, du))
    # one product per (f, g) for all generators; rows stay grouped by label
    rows = {label: [] for label in gens}
    for i, (f, f_name) in enumerate(basis):
        for j, (g, g_name) in enumerate(basis):
            fg = multiply(f, g, table)
            for label, u, du in coproducts:
                lhs = pair(u, fg, table)
                rhs = QScalar.zero()
                for c, left, right in du:
                    if left[i]:
                        rhs = rhs + c * left[i] * right[j]
                rows[label].append(CheckResult.compare(
                    f"<{label}, {f_name}.{g_name}> via coproduct", lhs, rhs))
    for label_rows in rows.values():
        results.extend(label_rows)
    # unit vs counit on the basis
    for f, (element, name) in zip(monos, basis):
        got = pair(Element.one(), element, table)
        expected = _unit_pairing(f.l, f.m)
        results.append(CheckResult.compare(
            f"<1, {name}> = eps({name})", got, expected))
    # antipode transposition on the generators
    for label, u in gens.items():
        su = antipode(dual, u, table)
        for name in ("x", "y", "z"):
            f = Element.from_letter(name)
            lhs = pair(su, f, table)
            rhs = pair(u, antipode("A", f, table), table)
            results.append(CheckResult.compare(
                f"<S({label}), {name}> = <{label}, S({name})>", lhs, rhs))
    return CheckReport("duality vs Hopf structure", tuple(results))


def check_identification(table) -> CheckReport:
    """The substitution Tx = X, Ty = q^(X/2) Y q^(X/2), Tz = q^(X/2) Z q^(X/2)
    carries the dual Hopf structure onto the Lie-generator one.

    With K = q^(X/2) the substituted generators are K Y K and K Z K; the
    checks confirm they commute pairwise, their coproducts reduce to
    T (x) 1 + K^2 (x) T, and their antipodes to -K^-2 T.
    """
    dual = _dual()
    k = Element.from_letter("K")
    k2 = Element.from_letter("K", 2)
    kinv2 = Element.from_letter("K", -2)
    subst = {
        "Tx": Element.from_letter("Tx"),
        "Ty": multiply(multiply(k, Element.from_letter("Ty"), table), k, table),
        "Tz": multiply(multiply(k, Element.from_letter("Tz"), table), k, table),
    }
    results = []
    names = ("Tx", "Ty", "Tz")
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            comm = commutator(subst[a], subst[b], table)
            ok = comm.is_zero()
            results.append(CheckResult(
                f"substituted {a}, {b} commute", ok,
                "" if ok else f"commutator {comm}"))
    one = Element.one()
    for name in ("Ty", "Tz"):
        t_sub = subst[name]
        got = coproduct(dual, t_sub, table)
        expected = tensor(t_sub, one) + tensor(multiply(k2, one, table), t_sub)
        results.append(CheckResult.compare(
            f"coproduct of substituted {name} matches the Lie presentation",
            got, expected))
        results.append(CheckResult.compare(
            f"antipode of substituted {name} matches the Lie presentation",
            antipode(dual, t_sub, table), -multiply(kinv2, t_sub, table)))
    got = coproduct(dual, subst["Tx"], table)
    expected = tensor(subst["Tx"], one) + tensor(one, subst["Tx"])
    results.append(CheckResult(
        "coproduct of substituted Tx is primitive", got == expected))
    got_s = antipode(dual, subst["Tx"], table)
    results.append(CheckResult(
        "antipode of substituted Tx is -Tx", got_s == -subst["Tx"]))
    return CheckReport("dual-to-Lie identification", tuple(results))


def pairing_matrix(max_word_len: int, max_total_degree: int, table):
    """Pairing values between dual words and coordinate monomials.

    Rows: words in X, Y, Z up to the length bound; columns: monomials of
    total degree up to the bound.  Returned as (rows, cols, matrix of
    QScalar).
    """
    rows = {}
    for product in _letter_products(("Tx", "Ty", "Tz"), max_word_len):
        # distinct basis words of the commutative dual algebra
        (w, _), = normalize(Element.from_word(product), table).terms()
        rows.setdefault(w)
    row_words = list(rows)
    cols = [
        Monomial(k, l, m)
        for k in range(max_total_degree + 1)
        for l in range(max_total_degree + 1 - k)
        for m in range(max_total_degree + 1 - k - l)
    ]
    matrix = [
        [pair(Element.from_word(w), f, table) for f in cols]
        for w in row_words
    ]
    return row_words, cols, matrix


def matrix_rank_at(matrix, q_value) -> int:
    """Rank of a QScalar matrix specialized at a rational q (exact
    Gaussian elimination over the rationals).

    Full rank at any specialization is a certificate of generic full rank.
    """
    rows = [[c.evaluate(q_value) for c in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
