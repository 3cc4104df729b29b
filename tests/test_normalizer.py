import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qcartan import normalizer
from qcartan.normalizer import (
    MissingRuleError,
    _normal_form,
    _pick_random,
    _pick_rightmost,
    _positions,
    _rewrite_at,
    check_local_confluence,
    multiply,
    normalize,
    normalize_report,
)
from qcartan.parser import parse_element
from qcartan.relations import RelationTable, builtin_presentation
from qcartan.scalars import Q, Q_INV, QScalar
from qcartan.words import GENERATORS, LETTERS, Element, make_word


def nf(text, table):
    return normalize(parse_element(text), table)


def test_coordinate_swap(table):
    assert nf("y*x", table) == Q_INV * parse_element("x*y")


def test_coordinate_differential_swap(table):
    assert nf("x*dy", table) == Q * parse_element("dy*x")


def test_differential_wedge_swap(table):
    assert nf("dy*dx", table) == -Q_INV * parse_element("dx*dy")


def test_multiply_inverse_pair(table):
    assert multiply(parse_element("x"), parse_element("xinv"), table) == Element.one()


def test_multiply_wedge_square_is_zero(table):
    assert multiply(parse_element("dx"), parse_element("dx"), table).is_zero()


def test_multiply_partial_coordinate(table):
    got = multiply(parse_element("px"), parse_element("x"), table)
    assert got == parse_element("1 + x*px")


def test_normalize_is_idempotent(table):
    e = parse_element("Ly*px*y*dx - 2*z*dz*iy")
    once = normalize(e, table)
    assert normalize(once, table) == once


def test_normalize_is_linear(table):
    a = parse_element("y*x*dx")
    b = parse_element("pz*z^2")
    lhs = normalize(a + Q * b, table)
    assert lhs == normalize(a, table) + Q * normalize(b, table)


def test_normal_form_sorts_all_sectors(table):
    for text in ("Lx*ix*px*x*dx", "Kinv*Ty*K*Tx"):
        e = nf(text, table)
        assert not e.is_zero()
        for word, _ in e.terms():
            positions = [g.position for g in word.letters()]
            assert positions == sorted(positions)


def test_form_degree_is_conserved(table):
    for text in ("y*dx*z", "dz*dy*x", "iy*dx*dy", "px*dx*y"):
        e = parse_element(text)
        degree = e.form_degree()
        assert normalize(e, table).form_degree() in (degree, 0)


def test_top_form_wedges_vanish(table):
    # any wedge of four differentials lives above the top form
    for names in itertools.product(("dx", "dy", "dz"), repeat=4):
        e = Element.from_word(make_word((n, 1) for n in names))
        assert normalize(e, table).is_zero()


def test_missing_rule_raises(table):
    with pytest.raises(MissingRuleError) as info:
        nf("wx*dx", table)
    assert info.value.left.name == "wx"
    assert info.value.right.name == "dx"
    with pytest.raises(MissingRuleError) as info:
        nf("Tx*px", table)
    assert info.value.left.name == "Tx"
    assert info.value.right.name == "px"
    assert str(info.value) == ("no rule orders Tx past px; "
                               "expand derived generators before normalizing")
    with pytest.raises(MissingRuleError):
        nf("ix*Tx", table)


def test_inhomogeneous_chain(table):
    # px x^3 = 3 x^2 + x^3 px  (classically the derivative of x^3)
    got = multiply(parse_element("px"), parse_element("x^3"), table)
    assert got == parse_element("3*x^2 + x^3*px")


def test_negative_power_chain(table):
    # px x^-1 = x^-1 px - x^-2
    got = multiply(parse_element("px"), parse_element("x^-1"), table)
    assert got == parse_element("xinv*px - x^-2")


def test_normalize_report_counts_steps(table):
    report = normalize_report(parse_element("z*y*x"), table)
    assert report.steps == 3
    assert report.output == nf("z*y*x", table)


def test_strategies_agree_on_sample(table):
    e = parse_element("iy*dx*dy*y + px*x^2*dz")
    for w, _ in e.terms():
        left = dict(normalize(Element.from_word(w), table).terms())
        assert _normal_form(w, table, {}, _pick_rightmost, None) == left
        assert _normal_form(w, table, {}, _pick_random,
                            random.Random(7)) == left


def test_normalize_returns_the_memos_words(table):
    # every result term is keyed by the Word object the leftmost memo
    # stores, so repeated calls share one Word per normal word
    def ids(words):
        return {id(w) for w in words}

    cache = table.normal_form_cache("leftmost")
    e = parse_element("iy*dx*dy*y + px*x^2*dz + z*y*x")
    first, again = normalize(e, table), normalize(e, table)
    assert first == again and len(first) > 3
    assert ids(w for w, _ in first.terms()) == ids(w for w, _ in again.terms())
    for w, _ in e.terms():
        got = normalize(Element.from_word(w), table)
        assert ids(v for v, _ in got.terms()) == ids(cache[w])


def test_local_confluence_length_three(table):
    report = check_local_confluence(table, 3, seeds=(1,))
    assert report.passed
    assert report.words_checked > 5000
    assert not report.divergences


def test_confluence_rejects_tiny_bound(table):
    with pytest.raises(ValueError):
        check_local_confluence(table, 2)


def test_confluence_rejects_long_words_before_enumerating(table, monkeypatch):
    def enumerate_words(*_):
        raise AssertionError("the sweep enumerated words")

    monkeypatch.setattr(normalizer, "_sweep_words", enumerate_words)
    with pytest.raises(ValueError, match="max_len must be at most 5"):
        check_local_confluence(table, 6)


coordinate_words = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z", "xinv"]),
              st.integers(min_value=1, max_value=3)),
    min_size=0, max_size=4,
).map(make_word)


@settings(max_examples=40, deadline=None)
@given(coordinate_words, coordinate_words)
def test_coordinate_multiplication_is_associative(wa, wb):
    table = __import__("qcartan.relations", fromlist=["builtin_presentation"]) \
        .builtin_presentation()
    a, b = Element.from_word(wa), Element.from_word(wb)
    c = parse_element("y*x + z")
    lhs = multiply(multiply(a, b, table), c, table)
    rhs = multiply(a, multiply(b, c, table), table)
    assert lhs == rhs


def _reference_rewrite(word, i, table):
    """One rule application through Generator objects and make_word."""
    letters = word.letters()
    rhs = table.rewrite(letters[i], letters[i + 1])
    if rhs is None:
        raise MissingRuleError(letters[i], letters[i + 1])
    left = [(g, 1) for g in letters[:i]]
    right = [(g, 1) for g in letters[i + 2:]]
    return [(make_word(left + list(w.factors) + right), c)
            for w, c in rhs.terms()]


# Letters weighted toward the x**-1 and K rules, whose terms cancel at the
# splice.
rewrite_letters = st.one_of(
    st.sampled_from(sorted(GENERATORS)),
    st.sampled_from(["x", "xinv", "K", "Kinv", "dx", "px", "Tx"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(rewrite_letters, min_size=2, max_size=6))
# seams: a neighbour of the rewritten pair cancels against a term's first
# or last letter (x/xinv), repeats a form letter there, or meets the other
# neighbour across a constant term
@example("xinv y x".split())
@example("x dy xinv".split())
@example("dy x dy".split())
@example("dy dx dy".split())
@example("xinv px x x".split())
@example("dx iy dy dx".split())
@example("xinv xinv y x x".split())
def test_rewrite_at_agrees_with_reference(names):
    table = builtin_presentation()
    word = make_word((n, 1) for n in names)
    if word is None:
        return
    for i in _positions(word):
        try:
            expected = _reference_rewrite(word, i, table)
        except MissingRuleError as exc:
            with pytest.raises(MissingRuleError) as info:
                _rewrite_at(word, i, table)
            assert (info.value.left, info.value.right) == (exc.left, exc.right)
            continue
        assert _rewrite_at(word, i, table) == [
            (w, c) for w, c in expected if w is not None
        ]


def test_rewrite_at_every_rule_seam_agrees_with_reference():
    """Every rule term, flanked by each letter that cancels or repeats its
    first or last letter."""
    table = builtin_presentation()

    def clashing(code):
        g = LETTERS[code]
        out = [None] + ([g.name] if g.form_degree else [])
        return out + ([g.inverse_name] if g.inverse_name else [])

    canonicalized = 0
    for (a, b), rhs in table.compiled.items():
        for mid, _ in rhs:
            lefts = clashing(mid[0]) if mid else [None, "x", "xinv", "dx"]
            rights = clashing(mid[-1]) if mid else [None, "x", "xinv", "dx"]
            for lname in lefts:
                for rname in rights:
                    names = [n for n in (lname, LETTERS[a].name,
                                         LETTERS[b].name, rname) if n]
                    word = make_word((n, 1) for n in names)
                    if word is None or len(word) != len(names):
                        continue
                    i = 1 if lname else 0
                    expected = _reference_rewrite(word, i, table)
                    got = _rewrite_at(word, i, table)
                    assert got == [(w, c) for w, c in expected
                                   if w is not None], names
                    canonicalized += sum(
                        w is None or len(w) < len(word) for w, _ in expected)
    assert canonicalized > 400  # 425 terms on the builtin table


# ---------------------------------------------------------------------------
# one pass per word: sorting outside the walk, sums in place

sortable_names = st.lists(
    st.sampled_from(["x", "xinv", "y", "z", "dx", "dy", "dz"]),
    min_size=1, max_size=5)
q_polynomials = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    min_size=1, max_size=3,
).map(QScalar)


def _reference_form(word, table):
    """The uncached leftmost normal form of one word."""
    return normalize_report(Element.from_word(word), table).output


def _stored_exactly(e):
    """No zero coefficient, and every integral rational stored as int."""
    return all(c and all(type(v) is int or v.denominator != 1
                         for v in c._terms.values())
               for _, c in e.terms())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(sortable_names, q_polynomials, st.booleans()),
                min_size=1, max_size=12))
@example([(["y", "x"], QScalar({0: Fraction(3, 2), 2: 1}), True),
          (["x", "y"], QScalar({2: Fraction(1, 2)}), False),
          (["z", "y", "x"], QScalar({0: 2, -2: 2}), True)])
def test_normalize_sums_like_the_per_word_reference(terms):
    """normalize of a many-term sum, whose words normal-order onto shared
    words with q-polynomial coefficients, equals the sum of the per-word
    reference forms; a term drawn with `cancel` is paired with its
    reversed word under the coefficient that cancels it after ordering.
    The result holds no zero and no integral Fraction, cold or warm."""
    table = RelationTable(builtin_presentation().rules)
    e = Element.zero()
    for names, c, cancel in terms:
        word = make_word((n, 1) for n in names)
        if word is None:
            continue
        e = e + Element.from_word(word, c)
        partner = make_word((n, 1) for n in reversed(names))
        if cancel and partner is not None and partner != word:
            (w1, a), = _reference_form(word, table).terms() or [(None, 0)]
            (w2, b), = _reference_form(partner, table).terms() or [(None, 0)]
            if w1 is not None and w1 == w2:
                e = e + Element.from_word(partner, -(c * a * b.inverse()))
    expected = Element.zero()
    for w, c in e.terms():
        expected = expected + _reference_form(w, table) * c
    for _ in range(2):
        got = normalize(e, table)
        assert got == expected
        assert _stored_exactly(got)


@pytest.mark.parametrize("text", ["x*y*x^-1", "x^-1*y*x", "K*Tx*Kinv",
                                  "Kinv*Ty*K", "dx*y*dx", "dy*x^-1*z*x*dy",
                                  "y*x^-1*z*x"])
def test_sorted_clashes_agree_with_the_reference(text):
    """A letter and its inverse, or a form letter twice, in a word that
    sorts: the sorted word is cancelled or vanishes as rewriting does."""
    table = RelationTable(builtin_presentation().rules)
    e = parse_element(text)
    assert normalize(e, table) == normalize_report(e, table).output
    if text.startswith("d"):
        assert normalize(e, table).is_zero()


def test_sortable_words_never_enter_the_walk(monkeypatch):
    table = RelationTable(builtin_presentation().rules)
    walked = []
    walk = normalizer._walk

    def counted(roots, *args):
        walked.append(tuple(roots))
        return walk(roots, *args)

    monkeypatch.setattr(normalizer, "_walk", counted)
    e = parse_element("(x + q*y + dz)^4 + (x^-1 + 2*z)^3*dy")
    got = normalize(e, table)
    assert walked == []
    assert got == normalize_report(e, table).output
    # a word with a pair that is not a swap is walked, from its root
    normalize(parse_element("px*x^3"), table)
    assert walked == [(make_word([("px", 1), ("x", 3)]),)]
