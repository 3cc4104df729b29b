from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcartan.scalars import ONE, Q, QScalar
from qcartan.words import (
    EMPTY_WORD,
    Element,
    GENERATORS,
    MAX_EXPONENT,
    Sector,
    Word,
    add_term,
    canonical_codes,
    concat,
    generator,
    make_word,
    single,
)


def test_alphabet_sectors_and_degrees():
    assert generator("dx").sector is Sector.FORM
    assert generator("dx").form_degree == 1
    assert generator("ix").form_degree == -1
    assert generator("wz").form_degree == 1
    assert generator("Lx").sector is Sector.LIEDERIV
    assert generator("K").sector is Sector.GROUPLIKE
    assert len(GENERATORS) == 24  # 22 generators, two of them with alias spellings


def test_sector_order_positions():
    order = ["dx", "dy", "dz", "wx", "wy", "wz", "xinv", "x", "y", "z",
             "px", "py", "pz", "Tx", "Ty", "Tz", "K", "Kinv",
             "ix", "iy", "iz", "Lx", "Ly", "Lz"]
    positions = [generator(n).position for n in order]
    assert positions == sorted(positions)


def test_adjacent_powers_merge():
    w = make_word([("x", 2), ("x", 3)])
    assert w == make_word([("x", 5)])


def test_inverse_alias_folds_and_cancels():
    assert make_word([("x", 1), ("xinv", 1)]) == EMPTY_WORD
    assert make_word([("Kinv", 2), ("K", 2)]) == EMPTY_WORD
    w = make_word([("xinv", 3)])
    assert w.factors == ((generator("x"), -3),)


def test_empty_word_is_a_word_not_none():
    # the empty word is falsy, so a vanished monomial is told by `is None`
    w = make_word([("x", 0)])
    assert w is not None and type(w) is Word
    assert w == EMPTY_WORD and not w
    assert str(w) == "1"
    assert Element.from_word(EMPTY_WORD) == Element.one()
    assert Element.from_word(w) == Element.one()


def test_merge_cascades_through_cancellation():
    # y x^-1 x y  ->  y^2
    w = make_word([("y", 1), ("x", -1), ("x", 1), ("y", 1)])
    assert w == make_word([("y", 2)])


def test_wedge_nilpotents_vanish():
    assert make_word([("dx", 1), ("dx", 1)]) is None
    assert make_word([("iy", 1), ("iy", 1)]) is None
    assert make_word([("wz", 1), ("wz", 1)]) is None


def test_negative_powers_restricted():
    with pytest.raises(ValueError):
        make_word([("y", -1)])
    with pytest.raises(ValueError):
        make_word([("px", -2)])
    with pytest.raises(ValueError):
        make_word([("dx", -1)])


def test_form_degree_of_word():
    w = make_word([("dx", 1), ("x", 2), ("ix", 1)])
    assert w.form_degree() == 0
    assert make_word([("dx", 1), ("dy", 1)]).form_degree() == 2


def test_word_length_counts_multiplicity():
    assert len(make_word([("x", -3), ("y", 2)])) == 5


def test_letters_are_signed():
    w = make_word([("x", -2), ("y", 1)])
    assert [g.name for g in w.letters()] == ["xinv", "xinv", "y"]


def test_element_addition_cancels():
    x = Element.from_letter("x")
    assert (x + (-x)).is_zero()
    assert x + Element.zero() == x


def test_add_term_inserts_accumulates_and_cancels():
    x, y = single("x"), single("y")
    terms = {}
    add_term(terms, x, Q)
    assert terms == {x: Q}
    add_term(terms, x, ONE)
    add_term(terms, y, ONE)
    assert terms == {x: Q + 1, y: ONE}
    add_term(terms, x, -(Q + 1))
    assert terms == {y: ONE}
    add_term(terms, x, QScalar.zero())
    assert terms == {y: ONE}


def test_element_scalar_multiplication():
    x = Element.from_letter("x")
    assert (2 * x) - x == x
    assert (Q * x).coefficient(single("x")) == Q


def test_element_product_requires_table():
    x = Element.from_letter("x")
    with pytest.raises(TypeError):
        x * x


def test_element_form_degree():
    dx = Element.from_letter("dx")
    x = Element.from_letter("x")
    assert dx.form_degree() == 1
    assert (x + Element.one()).form_degree() == 0
    assert (dx + x).form_degree() is None
    assert Element.zero().form_degree() == 0


def test_concat_is_free_product():
    x = Element.from_letter("x")
    y = Element.from_letter("y")
    xy = concat(x, y)
    assert xy == Element.from_word(make_word([("x", 1), ("y", 1)]))
    # nilpotent collision drops the term
    dx = Element.from_letter("dx")
    assert concat(dx, dx).is_zero()
    # inverse powers cancel
    assert concat(x, Element.from_letter("x", -1)) == Element.one()


def test_element_str_is_canonical():
    e = Q * Element.from_word(make_word([("dy", 1), ("x", 1)])) + \
        Element.from_word(make_word([("dx", 1), ("y", 1)]))
    assert str(e) == "dx*y + (q) dy*x"
    assert str(Element.zero()) == "0"
    assert str(Element.one()) == "1"
    assert str(Element.from_letter("x", -2)) == "x^-2"


def test_element_evaluate():
    e = Q * Element.from_letter("x") - Element.from_letter("x")
    assert e.evaluate(1) == {}
    values = e.evaluate(2)
    assert values == {single("x"): 1}


def test_word_codes_are_signed_positions():
    # a word is its code tuple: a Word and the plain tuple are one dict key
    w = make_word([("x", -2), ("y", 1)])
    assert type(w) is Word and isinstance(w, tuple)
    assert w == (6, 6, 8)
    assert hash(w) == hash((6, 6, 8))
    assert {(6, 6, 8): "found"}[w] == "found"
    assert w == Word((6, 6, 8))
    assert hash(w) == hash(Word((6, 6, 8)))
    assert Word((6, 6, 8)).factors == w.factors
    assert EMPTY_WORD == ()


def test_canonical_codes_cascades():
    code = {name: g.position for name, g in GENERATORS.items()}
    # y x K Kinv xinv y  ->  y^2
    seq = [code[n] for n in ("y", "x", "K", "Kinv", "xinv", "y")]
    assert canonical_codes(seq) == (code["y"], code["y"])
    # dx x xinv dx: the cancellation brings dx next to itself
    assert canonical_codes([code[n] for n in ("dx", "x", "xinv", "dx")]) is None
    assert canonical_codes([code["iy"], code["iy"]]) is None
    assert canonical_codes([code["y"], code["y"]]) == (code["y"], code["y"])


def test_printed_term_order():
    words = [single("x", 2), make_word([("x", 1), ("y", 1)]), single("x"),
             single("x", -1)]
    ordered = sorted(words, key=Word.sort_key)
    assert [str(w) for w in ordered] == ["x^-1", "x", "x*y", "x^2"]
    assert sorted(words) == ordered
    e = Element({w: Q for w in words})
    assert str(e) == "(q) x^-1 + (q) x + (q) x*y + (q) x^2"


def _reference_make_word(pairs):
    """An independent make_word that merges (Generator, exponent) factors
    on a stack, without canonical_codes.  Returns (codes, factors), or None
    as soon as the monomial vanishes."""
    invertible = (generator("x"), generator("K"))
    stack = []
    for g, e in pairs:
        if isinstance(g, str):
            g = generator(g)
        if g.is_alias:
            g = GENERATORS[g.inverse_name]
            e = -e
        if e == 0:
            continue
        if not isinstance(e, int):
            raise ValueError(f"exponent {e!r} of {g.name} is not an integer")
        if not -MAX_EXPONENT <= e <= MAX_EXPONENT:
            raise ValueError(
                f"exponent {e} of {g.name} exceeds the limit {MAX_EXPONENT}"
            )
        if e < 0 and g not in invertible:
            raise ValueError(f"negative power of {g.name} is not defined")
        if stack and stack[-1][0] is g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
                continue
        else:
            stack.append([g, e])
        if stack[-1][0].form_degree != 0 and stack[-1][1] != 1:
            return None
    codes = []
    for g, e in stack:
        letter = g if e > 0 else GENERATORS[g.inverse_name]
        codes += [letter.position] * abs(e)
    return tuple(codes), tuple((g, e) for g, e in stack)


def _key(word):
    """A word as (codes, factors), as the reference returns it."""
    return None if word is None else (word, word.factors)


def _outcome(build, pairs):
    """build(pairs), or the message of the ValueError it raised."""
    try:
        return build(pairs)
    except ValueError as exc:
        return str(exc)


# Letters weighted toward the ones that cancel or vanish in pairs.
_NAMES = sorted(GENERATORS)
letter_names = st.one_of(
    st.sampled_from(_NAMES),
    st.sampled_from(["x", "xinv", "K", "Kinv", "dx", "wy", "iz"]),
)


@given(st.lists(letter_names, max_size=12))
def test_canonical_codes_agree_with_make_word(names):
    want = _reference_make_word([(n, 1) for n in names])
    assert _key(make_word([(n, 1) for n in names])) == want
    codes = canonical_codes([generator(n).position for n in names])
    assert _key(None if codes is None else Word(codes)) == want


powers = st.one_of(
    st.tuples(st.sampled_from(["x", "K", "xinv", "Kinv"]),
              st.integers(min_value=-3, max_value=3)),
    st.tuples(letter_names.filter(lambda n: n not in ("xinv", "Kinv")),
              st.integers(min_value=1, max_value=3)),
)


@given(st.lists(powers, max_size=8))
def test_canonical_codes_agree_with_make_word_on_powers(pairs):
    want = _reference_make_word(pairs)
    assert _key(make_word(pairs)) == want
    codes = []
    for name, e in pairs:
        g = generator(name)
        if e < 0:
            g = generator(g.inverse_name)
        codes += [g.position] * abs(e)
    codes = canonical_codes(codes)
    assert _key(None if codes is None else Word(codes)) == want


# Any letter with any small exponent (zero powers, negative powers of
# every letter, form letters past the first power), and exponents that
# are not integers or exceed the cap.
any_powers = st.tuples(letter_names, st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, 2.0, Fraction(1, 2),
                     MAX_EXPONENT + 1, -MAX_EXPONENT - 1]),
))


@given(st.lists(any_powers, max_size=6))
def test_make_word_agrees_with_reference_on_any_powers(pairs):
    got = _outcome(make_word, pairs)
    want = _outcome(_reference_make_word, pairs)
    errors = [m for m in (_outcome(_reference_make_word, [p]) for p in pairs)
              if isinstance(m, str)]
    if errors:
        # make_word checks every factor before it forms the word; the
        # reference stops at a pair that vanishes
        assert got == errors[0]
        assert want in (errors[0], None)
    else:
        assert _key(got) == want


def _canonical_word(names):
    codes = canonical_codes([generator(n).position for n in names])
    return None if codes is None else Word(codes)


# Elements of up to three canonical words over the letters that cancel or
# vanish at a seam, with small integer coefficients.
seam_elements = st.lists(
    st.tuples(st.lists(letter_names, max_size=6), st.integers(-2, 2)),
    max_size=3,
)


@given(seam_elements, seam_elements)
def test_concat_matches_canonical_codes_on_whole_sequences(a_terms, b_terms):
    """concat canonicalizes only where a seam clashes; the result must be
    canonical_codes of every whole concatenated sequence, cascades
    (x x . xinv xinv) and vanishing form letters (dx x . xinv dx)
    included."""
    a = Element({_canonical_word(n): QScalar.rational(c) for n, c in a_terms})
    b = Element({_canonical_word(n): QScalar.rational(c) for n, c in b_terms})
    want = {}
    for wa, ca in a.terms():
        for wb, cb in b.terms():
            codes = canonical_codes(wa + wb)
            if codes is not None:
                add_term(want, Word(codes), ca * cb)
    got = concat(a, b)
    assert got == Element(want)
    assert all(type(w) is Word and canonical_codes(w) == w
               for w, _ in got.terms())


def test_concat_cascades_across_the_seam():
    xx = Element.from_letter("x", 2)
    dx_x = Element.from_word(make_word([("dx", 1), ("x", 1)]))
    xinv_dx = Element.from_word(make_word([("x", -1), ("dx", 1)]))
    assert concat(xx, Element.from_letter("x", -2)) == Element.one()
    assert concat(dx_x, xinv_dx).is_zero()
    assert concat(xinv_dx, dx_x).is_zero()
    assert concat(xx, xinv_dx) == Element.from_word(
        make_word([("x", 1), ("dx", 1)]))
