"""The code-tuple rewrite kernel: normal forms keyed by letter codes, Word
objects only in the Elements it returns, the sweep's power to fail, and
the monomial fast path of QScalar multiplication."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qcartan import normalizer
from qcartan.calculus import act, exterior_d
from qcartan.normalizer import (
    ConfluenceReport,
    MissingRuleError,
    _coverage,
    _closure_ok,
    _divergences,
    _normal_form,
    _pick_leftmost,
    _pick_random,
    _pick_rightmost,
    _positions,
    _resolves_locally,
    _rewrite_at,
    _sweep_words,
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
from qcartan.scalars import ONE, QScalar
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


def _codes(*names):
    return canonical_codes(GENERATORS[n].position for n in names)


# the first divergence of the bad table: leftmost and rightmost disagree
PX_X_DY = _codes("px", "x", "dy")


def test_length_four_sweep_pins_bad_table():
    # the report of the sweep before the strategies reused the leftmost memo
    report = check_local_confluence(_bad_table(), 4)
    assert report.words_checked == 78996
    assert len(report.divergences) == 803
    digest = hashlib.md5(str(report).encode()).hexdigest()
    assert digest == "c8a8c9e3909a074cbe54b0992bd5fc67"


@settings(max_examples=100, deadline=None)
@given(covered_codes, st.integers(0, 2**32))
@example(PX_X_DY, 1)
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


def _alternatives(seeds):
    """The sweep's other strategies, each random one with a fresh rng."""
    return [("rightmost", _pick_rightmost, None)] + [
        (f"random:{seed}", _pick_random, random.Random(seed))
        for seed in seeds
    ]


def _exact_divergences(table, words, alternatives):
    """The sweep's comparison without the local-resolution pass: leftmost,
    then every other strategy on a fresh cache."""
    cache = table.normal_form_cache("leftmost")
    reference = [_normal_form(w, table, cache, _pick_leftmost, None)
                 for w in words]
    divergences = []
    for strategy, pick, rng in alternatives:
        alt_cache = {}
        for w, ref in zip(words, reference):
            if _normal_form(w, table, alt_cache, pick, rng) != ref:
                divergences.append((Word(w), "leftmost", strategy))
    return tuple(divergences)


def _exact_sweep(table, max_len, seeds):
    words, skipped = _sweep_words(table, max_len)
    alternatives = _alternatives(seeds)
    return ConfluenceReport(
        max_len=max_len,
        strategies=("leftmost", *(s for s, _, _ in alternatives)),
        words_checked=len(words),
        words_skipped=skipped,
        divergences=_exact_divergences(table, words, alternatives),
    )


def _count_normal_form_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _normal_form(*args)

    monkeypatch.setattr(normalizer, "_normal_form", counted)
    return calls


@pytest.mark.parametrize("seeds", [(1, 2, 3, 4, 5), (7,)])
@pytest.mark.parametrize("bad", [False, True], ids=["builtin", "bad"])
def test_sweep_matches_the_exact_loop(monkeypatch, bad, seeds):
    table = _BAD_TABLE if bad else builtin_presentation()
    expected = _exact_sweep(table, 3, seeds)
    calls = _count_normal_form_calls(monkeypatch)
    report = check_local_confluence(table, 3, seeds)
    assert str(report) == str(expected)
    assert report.words_checked == expected.words_checked
    assert report.words_skipped == expected.words_skipped
    assert report.divergences == expected.divergences
    assert report.strategies == expected.strategies
    if bad:
        # a reduct does not resolve, so every strategy runs
        assert not report.passed
        assert len(calls) > report.words_checked
    else:
        # only the leftmost pass reduces anything
        assert report.passed
        assert len(calls) == report.words_checked


def _warm_closure(codes, table):
    """Fill the leftmost memo for every word that rewriting at any
    position reaches from `codes`."""
    leftmost = table.normal_form_cache("leftmost")
    seen, stack = {codes}, [codes]
    while stack:
        cur = stack.pop()
        _normal_form(cur, table, leftmost, _pick_leftmost, None)
        for i in _positions(cur):
            for w, _ in _rewrite_at(cur, i, table):
                if w is not None and w not in seen:
                    seen.add(w)
                    stack.append(w)


@settings(max_examples=100, deadline=None)
@given(covered_codes, st.integers(0, 2**32))
@example(PX_X_DY, 1)
def test_local_resolution_is_sound(codes, seed):
    """Whenever every one-step reduct resolves, the other strategies, on
    a cold table, reach the leftmost form."""
    if codes is None:
        return
    for table in (builtin_presentation(), _BAD_TABLE):
        _warm_closure(codes, table)
        leftmost = table.normal_form_cache("leftmost")
        size = len(leftmost)
        resolves = _resolves_locally([codes], table, leftmost)
        assert len(leftmost) == size
        if table is not _BAD_TABLE:
            assert resolves
        elif codes == PX_X_DY:
            assert not resolves
        if not resolves:
            continue
        cold = RelationTable(table.rules)
        for pick, rng in ((_pick_rightmost, None),
                          (_pick_random, random.Random(seed)),
                          (_pick_random, random.Random(seed + 1))):
            assert _normal_form(codes, cold, {}, pick, rng) == leftmost[codes]


def test_local_resolution_walks_the_leftmost_step():
    """The leftmost step resolves by construction, yet its children are
    checked too: a word with one out-of-order pair is resolved only if
    the words it rewrites to are."""
    table = RelationTable(builtin_presentation().rules)
    root, child = _codes("y", "px", "x", "z"), _codes("y", "x", "px", "z")
    assert _positions(root) == [1] and _positions(child) == [0, 2]
    _warm_closure(root, table)
    leftmost = table.normal_form_cache("leftmost")
    assert _resolves_locally([root], table, leftmost)
    wrong = dict(leftmost)
    wrong[child] = {w: c * 2 for w, c in leftmost[child].items()}
    assert not _resolves_locally([root], table, wrong)


def test_local_resolution_needs_the_memo(monkeypatch):
    """A root or a child missing from the leftmost memo is "not resolved";
    the sweep then runs the exact loop and reports what it reports."""
    zyx = _codes("z", "y", "x")
    table = RelationTable(builtin_presentation().rules)
    for root in (zyx, _codes("y", "x"), _codes("x", "y")):
        assert _resolves_locally([root], table, {}) is False
    # leftmost reaches z y x -> y z x -> y x z -> x y z; the rightmost
    # child z x y is not in the memo
    leftmost = table.normal_form_cache("leftmost")
    _normal_form(zyx, table, leftmost, _pick_leftmost, None)
    assert _codes("z", "x", "y") not in leftmost
    size = len(leftmost)
    assert _resolves_locally([zyx], table, leftmost) is False
    assert len(leftmost) == size
    expected = _exact_divergences(RelationTable(table.rules), [zyx],
                                  _alternatives((1, 2)))
    calls = _count_normal_form_calls(monkeypatch)
    assert _divergences(table, [zyx], _alternatives((1, 2))) == expected == ()
    assert len(calls) > 1


def test_local_resolution_needs_every_rule():
    """A later pair without a rule is "not resolved", not a traceback; the
    sweep raises the MissingRuleError the exact loop raises."""
    table = builtin_presentation()
    word = _codes("x", "wx", "dx")
    assert _positions(word) == [0, 1]
    assert table.rule("x", "wx") is not None
    assert table.rule("wx", "dx") is None
    assert _resolves_locally([word], table, {word: {word: ONE}}) is False
    for sweep in (_divergences, _exact_divergences):
        with pytest.raises(MissingRuleError) as exc:
            sweep(table, [word], _alternatives((1,)))
        assert (exc.value.left.name, exc.value.right.name) == ("wx", "dx")


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
