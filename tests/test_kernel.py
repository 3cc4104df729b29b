"""The code-tuple rewrite kernel: normal forms keyed by letter codes, Word
objects only in the Elements it returns, the sweep's power to fail, and
the monomial fast path of QScalar multiplication."""

import hashlib
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from qcartan.calculus import act, exterior_d
from qcartan.normalizer import (
    _coverage,
    _closure_ok,
    _normal_form,
    _pick_leftmost,
    _pick_random,
    _pick_rightmost,
    check_local_confluence,
    multiply,
    normalize,
    normalize_report,
)
from qcartan.parser import parse_element
from qcartan.relations import (
    RelationTable,
    builtin_presentation,
    format_presentation,
    load_presentation,
)
from qcartan.scalars import QScalar
from qcartan.words import GENERATORS, Element, Word, canonical_codes

GOOD_RULE = "x . dy -> (q) dy . x"
BAD_RULE = "x . dy -> (2*q) dy . x"

# Letter sets whose pairs, with every letter their rules introduce, are all
# covered by the builtin table, so any word over one of them normalizes.
COVERED_SETS = (
    ("x", "xinv", "y", "z", "dx", "dy", "dz", "px", "py", "pz",
     "ix", "iy", "iz", "Lx", "Ly", "Lz"),
    ("x", "xinv", "y", "z", "Tx", "Ty", "Tz"),
    ("K", "Kinv", "Tx", "Ty", "Tz"),
)

# The seven strategies of the confluence sweep, as (pick, rng factory).
SWEEP_STRATEGIES = [
    (_pick_leftmost, lambda: None),
    (_pick_rightmost, lambda: None),
] + [(_pick_random, lambda s=s: random.Random(s)) for s in (1, 2, 3, 4, 5)]


def test_covered_sets_are_closed():
    covered, introduces = _coverage(builtin_presentation())
    for names in COVERED_SETS:
        assert _closure_ok(names, covered, introduces)


covered_codes = st.sampled_from(COVERED_SETS).flatmap(
    lambda names: st.lists(st.sampled_from(names), max_size=5)
).map(lambda names: canonical_codes(GENERATORS[n].position for n in names))


@settings(max_examples=150, deadline=None)
@given(covered_codes)
def test_normal_form_on_codes_matches_uncached_reduction(codes):
    if codes is None:
        return
    table = builtin_presentation()
    report = normalize_report(Element.from_word(Word(codes)), table)
    expected = {w.codes: c for w, c in report.output.terms()}
    for pick, make_rng in SWEEP_STRATEGIES:
        got = _normal_form(codes, table, {}, pick, make_rng())
        assert got == expected
        assert all(type(k) is tuple for k in got)
    # the table's shared leftmost memo, cold or warm, answers the same
    leftmost = table.normal_form_cache("leftmost")
    assert _normal_form(codes, table, leftmost, _pick_leftmost, None) == expected


def _assert_word_keys(e):
    assert isinstance(e, Element)
    assert all(type(w) is Word for w, _ in e.terms())


def test_returned_elements_are_keyed_by_words(table):
    f = parse_element("y*x^2 + z*xinv - x*y*z")
    _assert_word_keys(normalize(f, table))
    _assert_word_keys(normalize_report(f, table).output)
    _assert_word_keys(multiply(parse_element("px + z"), f, table))
    _assert_word_keys(exterior_d(f, table))
    _assert_word_keys(act(parse_element("Tx + py"), f, table))
    # a word that reduces to the unit is still a Word, not ()
    unit = multiply(parse_element("x"), parse_element("xinv"), table)
    assert unit == Element.one()
    _assert_word_keys(unit)


def test_sweep_fails_on_corrupted_table():
    report = check_local_confluence(_bad_table(), 3)
    assert report.passed is False
    assert report.words_checked == 5529
    assert len(report.divergences) == 15
    assert all(type(w) is Word for w, _, _ in report.divergences)
    lines = str(report).splitlines()
    assert lines[0].startswith("FAIL confluence: 5529 words")
    assert lines[1] == "  px*x*dy: leftmost and rightmost disagree"


def _bad_table():
    text = format_presentation(builtin_presentation())
    assert GOOD_RULE in text
    return load_presentation(text.replace(GOOD_RULE, BAD_RULE))


_BAD_TABLE = _bad_table()


def test_length_four_sweep_pins_bad_table():
    # the report of the sweep before the strategies reused the leftmost memo
    report = check_local_confluence(_bad_table(), 4)
    assert report.words_checked == 78996
    assert len(report.divergences) == 803
    digest = hashlib.md5(str(report).encode()).hexdigest()
    assert digest == "c8a8c9e3909a074cbe54b0992bd5fc67"


@settings(max_examples=100, deadline=None)
@given(covered_codes, st.integers(0, 2**32))
@example(canonical_codes(GENERATORS[n].position for n in ("px", "x", "dy")), 1)
def test_strategies_agree_with_and_without_the_leftmost_memo(codes, seed):
    """Reusing the warm leftmost memo changes no form, even on the bad
    table, where px*x*dy reduces differently under leftmost and rightmost."""
    if codes is None:
        return
    for table in (builtin_presentation(), _BAD_TABLE):
        cold = RelationTable(table.rules)
        leftmost = table.normal_form_cache("leftmost")
        for pick, rng in ((_pick_rightmost, lambda: None),
                          (_pick_random, lambda: random.Random(seed))):
            visited = {}
            expected = _normal_form(codes, cold, visited, pick, rng())
            # warm the leftmost memo with every word the strategy visits
            for w in visited:
                _normal_form(w, table, leftmost, _pick_leftmost, None)
            assert _normal_form(codes, table, {}, pick, rng()) == expected
        assert not cold.cache_info().get("normal_form.leftmost")


def test_monomial_product_stays_exact():
    half_q = QScalar({2: Fraction(1, 2)})
    product = half_q * QScalar({2: 2})
    assert product == QScalar({4: 1})
    (h, c), = product.terms()
    assert h == 4 and c == 1 and type(c) is int
    third = QScalar({0: Fraction(1, 3)}) * QScalar({-2: Fraction(3, 2)})
    (h, c), = third.terms()
    assert h == -2 and c == Fraction(1, 2) and type(c) is Fraction


def test_mixed_operand_products():
    s = QScalar({2: 2, 0: -1})
    m = QScalar({-1: Fraction(1, 2)})
    assert s * 3 == QScalar({2: 6, 0: -3})
    assert 3 * s == s * 3
    assert m * 4 == QScalar({-1: 2})
    assert type((m * 4).terms()[0][1]) is int
    assert 4 * m == m * 4
    assert m * Fraction(2, 3) == QScalar({-1: Fraction(1, 3)})
    assert Fraction(2, 3) * m == m * Fraction(2, 3)
    assert (s * m) * m == s * (m * m)
    assert (s * 0).is_zero() and (QScalar.zero() * m).is_zero()
    assert s.__mul__("q") is NotImplemented
