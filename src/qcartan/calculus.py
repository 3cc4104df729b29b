"""Exterior derivative, operator actions, one-form expansion, realizations.

Functions and forms live in the subalgebra generated by the coordinates
(with the inverse of x) and the differentials; the Cartan-Maurer
one-forms are abbreviations that :func:`omega_expand` unfolds.  Operators
in the partial/Lie/inner/Lie-derivative sectors act from the left: words
still carrying an operator letter after normalization are applications to
the unit, and those vanish.

Both maps here are linear and are computed once per basis word.
:func:`exterior_d` sums c * D[w] over the terms c * w of its input, where
D[w] is the normalized graded-Leibniz image of the word w, read off its
letter codes: a form letter flips the sign, and a coordinate letter is
replaced by its image (x -> dx, x^-1 -> -x^-1 dx x^-1, y -> dy,
z -> dz) at each position.  When the table's rule for a letter c against
its differential is the plain swap dc . c, all Leibniz terms of a run
c^n are equal, so the run gives n times the term of its first letter and
d costs time linear in the length of a power; otherwise the run gives one
term per letter.
The one-form and T realizations substitute letter images one letter at a
time and splice the runs of letters without an image in whole.  :func:`act`
is bilinear and sums cu * cw * A[u, w], where A[u, w] is normalize(u w)
with the operator words dropped.  D and A live in the relation table's
"d" and "act" memos (:meth:`RelationTable.memo`), so they are filled once
per table and never shared with another table.  Both go through the one
memoized loop, :func:`~qcartan.words.linear_image`: d directly, and act
as a :func:`~qcartan.words.linear_sum` of one step per operator word,
the (memo, u, image) triple of :func:`_act_step`, which the letter steps
of operator words (:mod:`qcartan.cartan`) use too.

The identity checks (:func:`check_d2`, :func:`check_leibniz`,
:func:`check_d_expansion`, :func:`check_omega_tables`,
:func:`check_t_realization`) sweep basis words and return a
:class:`~qcartan.report.CheckReport` with one row per word or word pair.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby

from .report import CheckReport, CheckResult
from .scalars import ONE, QScalar
from .words import (
    FORM_CODES,
    Element,
    GENERATORS,
    LETTERS,
    NON_FORM_SECTORS,
    Sector,
    OPERATOR_CODES,
    Word,
    add_term,
    canonical_codes,
    concat,
    linear_image,
    linear_sum,
    make_word,
)
from .normalizer import multiply, normalize

_OMEGAS = ("wx", "wy", "wz")
# The codes of the function/form letters without the one-forms.
_NO_OMEGA_CODES = FORM_CODES - {GENERATORS[n].position for n in _OMEGAS}


def require_function_form(e: Element, allow_omega: bool = True) -> Element:
    """Reject elements outside the function/form subalgebra."""
    allowed = FORM_CODES if allow_omega else _NO_OMEGA_CODES
    if all(map(allowed.issuperset, e._terms)):
        return e
    for sector in e.sectors():
        if sector in NON_FORM_SECTORS:
            raise ValueError(
                f"not a function/form: contains a {sector.name} letter"
            )
    raise ValueError(
        "one-form letters are not allowed here; apply omega_expand first"
    )


_X, _XINV, _Y, _Z, _DX, _DY, _DZ = (
    GENERATORS[n].position for n in ("x", "xinv", "y", "z", "dx", "dy", "dz")
)
# d of one coordinate letter, keyed by its code: (differential letter,
# coefficient, codes of the image).  d x^-1 = -x^-1 dx x^-1 follows from
# d(x x^-1) = 0.
_D_IMAGE = {
    _X: (_DX, 1, (_DX,)),
    _XINV: (_DX, -1, (_XINV, _DX, _XINV)),
    _Y: (_DY, 1, (_DY,)),
    _Z: (_DZ, 1, (_DZ,)),
}


def _d_word(word: Word, table) -> Element:
    """Normal form of the graded-Leibniz differential of one word."""
    terms: dict[Word, QScalar] = {}

    def add(i, image, coeff):
        w = canonical_codes(word[:i] + image + word[i + 1:])
        if w is not None:
            add_term(terms, Word(w), QScalar.rational(coeff))

    sign = 1
    start = 0
    for c, run in groupby(word):
        end = start + len(tuple(run))
        if LETTERS[c].sector is Sector.FORM:
            sign *= (-1) ** (end - start)
        elif c in _D_IMAGE:
            dc, coeff, image = _D_IMAGE[c]
            # if the table's rule for c . dc is the plain swap dc . c,
            # every Leibniz term of the run equals the first one
            if table.compiled.get((c, dc)) == (((dc, c), 1),):
                add(start, image, sign * coeff * (end - start))
            else:
                for i in range(start, end):
                    add(i, image, sign * coeff)
        start = end
    return normalize(Element._raw(terms), table)


def exterior_d(f: Element, table) -> Element:
    """Graded Leibniz differential; raises degree by one and squares to 0.

    Input must not contain one-form letters (the calculus ships no rules
    for d on those; expand them first).
    """
    require_function_form(f, allow_omega=False)
    return Element._raw(linear_image(f._terms, table.memo("d"),
                                     lambda w: _d_word(w, table)))


def _act_word(u: Word, w: Word, table) -> Element:
    """normalize(u w) with the words still carrying an operator letter
    dropped."""
    product = multiply(Element._raw({u: ONE}), Element._raw({w: ONE}), table)
    return Element._raw({v: c for v, c in product.terms()
                         if OPERATOR_CODES.isdisjoint(v)})


def _act_step(u: Word, table):
    """The ("act" memo, u, image of one word) step of the operator word
    u, shared by :func:`act` and the letter steps of operator words."""
    return table.memo("act"), u, lambda w: _act_word(u, w, table)


def act(operator: Element, target: Element, table) -> Element:
    """Left action of an operator element on a function/form.

    Multiplies, normalizes, and drops every word still carrying an
    operator-sector letter: partials, Lie generators, inner derivations
    and Lie derivatives all annihilate the unit.  Bilinear, so it is
    summed from the per-word-pair images.
    """
    require_function_form(target)
    return Element._raw(linear_sum(target._terms, [
        (cu, [_act_step(u, table)]) for u, cu in operator.terms()]))


# ---------------------------------------------------------------------------
# one-form expansion

@cache
def omega_images() -> dict[str, Element]:
    """The one-forms written in coordinates and differentials:
    wx = dx x^-1, wy = dy x^-1 - dx x^-1 y x^-1, wz = dz."""
    xinv = Element.from_letter("x", -1)
    dx = Element.from_letter("dx")
    dy = Element.from_letter("dy")
    dz = Element.from_letter("dz")
    y = Element.from_letter("y")
    wx = concat(dx, xinv)
    wy = concat(dy, xinv) - concat(concat(concat(dx, xinv), y), xinv)
    return {"wx": wx, "wy": wy, "wz": dz}


def _substitute(e: Element, images: dict[str, Element], table) -> Element:
    """Replace each letter named in images by its image, one letter at a
    time, then normalize.  A run of letters with no image is spliced in
    whole."""
    total = Element.zero()
    for word, coeff in e.terms():
        acc = Element.scalar(coeff)
        for substituted, run in groupby(
                word, key=lambda c: LETTERS[c].name in images):
            if substituted:
                for c in run:
                    acc = concat(acc, images[LETTERS[c].name])
            else:
                acc = concat(acc, Element.from_word(Word(run)))
        total = total + acc
    return normalize(total, table)


def omega_expand(e: Element, table) -> Element:
    """Replace every one-form letter by its coordinate expression."""
    return _substitute(e, omega_images(), table)


def maurer_substitute(e: Element, table) -> Element:
    """Inverse direction: dx -> wx x, dy -> wx y + wy x, dz -> wz."""
    wx = Element.from_letter("wx")
    wy = Element.from_letter("wy")
    x = Element.from_letter("x")
    y = Element.from_letter("y")
    images = {
        "dx": concat(wx, x),
        "dy": concat(wx, y) + concat(wy, x),
        "dz": Element.from_letter("wz"),
    }
    return _substitute(e, images, table)


# ---------------------------------------------------------------------------
# basis sweeps and identity checks

def coordinate_monomials(max_degree: int, min_x: int = 0):
    """Basis 0-form words x^k y^l z^m with |k| + l + m <= max_degree.

    Negative x powers are included when min_x < 0.
    """
    out = []
    for l in range(max_degree + 1):
        for m in range(max_degree - l + 1):
            budget = max_degree - l - m
            lo = max(min_x, -budget)
            for k in range(lo, budget + 1):
                w = make_word([("x", k), ("y", l), ("z", m)])
                out.append(w)
    return sorted(out, key=lambda w: (len(w), w.sort_key()))


_D_SUBSETS = (
    (), ("dx",), ("dy",), ("dz",),
    ("dx", "dy"), ("dx", "dz"), ("dy", "dz"),
    ("dx", "dy", "dz"),
)


def basis_forms(max_degree: int, max_form_degree: int = 3, min_x: int = 0):
    """Wedge monomials in dx, dy, dz times coordinate monomials."""
    out = []
    monos = coordinate_monomials(max_degree, min_x)
    for subset in _D_SUBSETS:
        if len(subset) > max_form_degree:
            continue
        front = tuple(GENERATORS[n].position for n in subset)
        for m in monos:
            codes = canonical_codes(front + m)
            assert codes is not None
            out.append(Word(codes))
    return out


def check_d2(max_degree: int, table) -> CheckReport:
    """d(d w) = 0 on every basis form of form degree <= 2 and coordinate
    degree <= max_degree, negative x powers included."""
    results = []
    for w in basis_forms(max_degree, max_form_degree=2, min_x=-max_degree):
        dd = exterior_d(exterior_d(Element.from_word(w), table), table)
        ok = dd.is_zero()
        results.append(CheckResult(f"d^2 {w}", ok, "" if ok else str(dd)))
    return CheckReport("d squared vanishes", tuple(results))


def check_leibniz(max_degree: int, table) -> CheckReport:
    """d(ab) = (da) b + (-1)^deg(a) a (db) on every pair of basis forms of
    positive length whose lengths sum to at most max_degree."""
    forms = [
        w for w in basis_forms(max_degree, min_x=-max_degree)
        if 1 <= len(w) <= max_degree - 1
    ]
    results = []
    for a in forms:
        for b in forms:
            if len(a) + len(b) > max_degree:
                continue
            ea, eb = Element.from_word(a), Element.from_word(b)
            lhs = exterior_d(multiply(ea, eb, table), table)
            sign = (-1) ** a.form_degree()
            rhs = multiply(exterior_d(ea, table), eb, table) + \
                sign * multiply(ea, exterior_d(eb, table), table)
            results.append(CheckResult.compare(f"leibniz {a} | {b}", lhs, rhs))
    return CheckReport("graded Leibniz rule", tuple(results))


def _through_frame(frame, target: Element, table) -> Element:
    """d target read through a frame: the sum of form . (op target) over
    its (form, op) pairs, such as (dx, px) or (wx, Tx)."""
    return sum((multiply(form, act(op, target, table), table)
                for form, op in frame), Element.zero())


def check_d_expansion(max_degree: int, table) -> CheckReport:
    """d f = dx (px f) + dy (py f) + dz (pz f), re-derived term by term.

    Checks every basis monomial up to the degree bound, comparing the
    Leibniz differential against the partial-derivative decomposition.
    """
    results = []
    partials = [
        (Element.from_letter("d" + a), Element.from_letter("p" + a))
        for a in ("x", "y", "z")
    ]
    for w in coordinate_monomials(max_degree):
        target = Element.from_word(w)
        left = exterior_d(target, table)
        right = _through_frame(partials, target, table)
        ok = left == right
        results.append(CheckResult(
            f"d-expansion {w}", ok,
            "" if ok else f"d gives {left}, partials give {right}",
        ))
    return CheckReport("exterior derivative vs partial decomposition",
                       tuple(results))


def check_omega_tables(max_degree: int, table) -> CheckReport:
    """Re-prove the one-form commutation rules through expansion.

    Every omega rule (and the wedge squares) is expanded into coordinates
    and differentials and normalized; on top of that the rewrite rules are
    checked to be sound against expansion on mixed words up to the degree
    bound.
    """
    results = []
    for rule in table.for_table("omega_coord") + table.for_table("omega_omega"):
        lhs = Element.from_word(rule.lhs_word())
        diff = omega_expand(lhs, table) - omega_expand(rule.rhs, table)
        ok = diff.is_zero()
        results.append(CheckResult(
            f"expand {rule.left.name}*{rule.right.name}", ok,
            "" if ok else f"difference {diff}",
        ))
    for name in _OMEGAS:
        w = make_word([(name, 1), (name, 1)])
        ok = w is None
        results.append(CheckResult(f"{name} wedge square vanishes", ok))
    # soundness of the omega rewrite rules against expansion
    for mono in coordinate_monomials(max_degree):
        for name in _OMEGAS:
            omega = (GENERATORS[name].position,)
            for codes in (mono + omega, omega + mono):
                codes = canonical_codes(codes)
                if codes is None:
                    continue
                word = Word(codes)
                e = Element.from_word(word)
                direct = omega_expand(e, table)
                via_rules = omega_expand(normalize(e, table), table)
                results.append(CheckResult.compare(
                    f"expansion soundness {word}", direct, via_rules))
    return CheckReport("one-form tables by expansion", tuple(results))


# ---------------------------------------------------------------------------
# realization of the Lie generators by coordinates and partials

def t_realization() -> dict[str, Element]:
    """Tx = x px + y py, Ty = x py, Tz = pz."""
    x = Element.from_letter("x")
    y = Element.from_letter("y")
    return {
        "Tx": concat(x, Element.from_letter("px"))
        + concat(y, Element.from_letter("py")),
        "Ty": concat(x, Element.from_letter("py")),
        "Tz": Element.from_letter("pz"),
    }


def realize_t(e: Element, table) -> Element:
    """Substitute the coordinate/partial realization for T letters."""
    return _substitute(e, t_realization(), table)


def check_t_realization(max_degree: int, table) -> CheckReport:
    """Confirm every Lie-generator relation from the realization, and the
    one-form decomposition of d against the Lie-generator action.

    Realized-side equality decides each T relation: the realized sides
    are normal-ordered elements of the algebra, so equal sides act
    equally on every form, and unequal sides already fail the relation.
    """
    results = []
    for table_id in ("t_coord", "t_diff", "t_t"):
        for rule in table.for_table(table_id, origin="paper"):
            lhs = realize_t(Element.from_word(rule.lhs_word()), table)
            rhs = realize_t(rule.rhs, table)
            ok = lhs == rhs
            results.append(CheckResult(
                f"{table_id} {rule.left.name}*{rule.right.name}", ok,
                "" if ok else f"realized sides differ: {lhs} != {rhs}"))
    # d f decomposed through the one-forms and the T action
    frame = [(omega_images()[w], Element.from_letter("T" + w[1]))
             for w in _OMEGAS]
    for mono in coordinate_monomials(max_degree):
        target = Element.from_word(mono)
        results.append(CheckResult.compare(
            f"d = omega.T on {mono}", exterior_d(target, table),
            _through_frame(frame, target, table)))
    return CheckReport("Lie generator realization", tuple(results))
