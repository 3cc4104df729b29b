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
    FormMemo,
    MissingRuleError,
    _close,
    _closure_masks,
    _closure_resolves,
    _divergences,
    _normal_form,
    _pick_leftmost,
    _pick_random,
    _pick_rightmost,
    _positions,
    _sort,
    _sorted_form,
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
from qcartan.scalars import ONE, Q_INV, QScalar
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


def _coverage(table):
    """Unordered letter-pair coverage and per-pair introduced letters, by
    letter name, read from the table's rules."""
    covered = {frozenset((g.name, g.inverse_name))
               for g in GENERATORS.values() if g.inverse_name}
    introduces = {}
    for rule in table.rules:
        u, v = rule.left.name, rule.right.name
        covered.add(frozenset((u, v)))
        introduces[(u, v)] = {let.name for w, _ in rule.rhs.terms()
                              for let in w.letters()} - {u, v}
    return covered, introduces


def _closure_ok(names, covered, introduces):
    """Whether every pair reachable from the letter set `names` is covered:
    the closure recomputed from scratch on sets of letter names."""
    names = set(names)
    while True:
        for a in names:
            for b in names:
                if a != b and frozenset((a, b)) not in covered:
                    return False
        grown = set(names)
        for pair, extra in introduces.items():
            if pair[0] in names and pair[1] in names:
                grown |= extra
        if grown == names:
            return True
        names = grown


def test_covered_sets_are_closed():
    table = builtin_presentation()
    covered, introduces = _coverage(table)
    uncovered, intro = _closure_masks(table)
    for names in COVERED_SETS:
        assert _closure_ok(names, covered, introduces)
        closed = 0
        for name in names:
            closed = _close(closed, GENERATORS[name].position, uncovered,
                            intro)
            assert closed is not None, name


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
    expected = dict(report.output.terms())
    for pick, make_rng in SWEEP_STRATEGIES:
        got = _normal_form(codes, table, {}, pick, make_rng())
        assert got == expected
        assert all(type(k) is Word for k in got)
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
    # the fallback's report: leftmost, then each strategy on a fresh cache
    report = check_local_confluence(_bad_table(), 4)
    assert report.words_checked == 78996
    assert len(report.divergences) == 803
    digest = hashlib.md5(str(report).encode()).hexdigest()
    assert digest == "c8a8c9e3909a074cbe54b0992bd5fc67"


def test_strategies_ignore_the_leftmost_memo():
    """The sweep's other strategies reduce on their own caches: a wrong
    entry in the table's leftmost memo changes none of their forms."""
    table = RelationTable(builtin_presentation().rules)
    x_y, y_x = _codes("x", "y"), _codes("y", "x")
    table.normal_form_cache("leftmost")[x_y] = {x_y: QScalar.rational(2)}
    for pick, rng in ((_pick_rightmost, None),
                      (_pick_random, random.Random(1))):
        assert _normal_form(x_y, table, {}, pick, rng) == {x_y: ONE}
        assert _normal_form(y_x, table, {}, pick, rng) == {x_y: Q_INV}


def _alternatives(seeds):
    """The sweep's other strategies, each random one with a fresh rng."""
    return [("rightmost", _pick_rightmost, None)] + [
        (f"random:{seed}", _pick_random, random.Random(seed))
        for seed in seeds
    ]


def _leftmost_forms(table, words):
    """The leftmost normal form of each word, as {codes: coefficient},
    from the uncached rewrite loop of normalize_report: no memo, no
    sorting path, no walk."""
    return [dict(normalize_report(Element.from_word(Word(w)), table)
                 .output.terms())
            for w in words]


def _exact_divergences(table, words, alternatives):
    """The sweep's comparison, computed apart from the normalizer's: each
    word's leftmost form from the uncached loop, then every other
    strategy on a fresh cache."""
    reference = _leftmost_forms(table, words)
    divergences = []
    for strategy, pick, rng in alternatives:
        alt_cache = {}
        for w, ref in zip(words, reference):
            if _normal_form(w, table, alt_cache, pick, rng) != ref:
                divergences.append((Word(w), "leftmost", strategy))
    return tuple(divergences)


def _reference_sweep_words(table, max_len):
    """The sweep's enumeration as first written: the closure verdict keyed
    by frozensets of letter names, and canonical_codes on every whole
    sequence."""
    letters = sorted({r.left.name for r in table.rules}
                     | {r.right.name for r in table.rules})
    covered, introduces = _coverage(table)
    ok_sets = {}
    subtree = [1] * (max_len + 1)
    for d in range(max_len - 1, -1, -1):
        subtree[d] = 1 + len(letters) * subtree[d + 1]
    letter_codes = [(name, GENERATORS[name].position) for name in letters]
    words, seen, skipped = [], set(), 0
    stack = [((), frozenset())]
    while stack:
        prefix, nameset = stack.pop()
        for name, code in letter_codes:
            names = nameset | {name}
            ok = ok_sets.get(names)
            if ok is None:
                ok = ok_sets[names] = _closure_ok(names, covered, introduces)
            seq = prefix + (code,)
            if not ok:
                skipped += subtree[len(seq)]
                continue
            w = canonical_codes(seq)
            if w is not None and w not in seen:
                seen.add(w)
                words.append(w)
            if len(seq) < max_len:
                stack.append((seq, names))
    return words, skipped


# A user table over px, x, xinv and y.  Its px . y rule introduces z, which
# has no rules, so every sequence holding both px and y is skipped; x and
# xinv have no rule and are covered as an inverse pair.
SMALL_TABLE = """
px . x -> (1) + x . px
px . y -> y . px + z
y . xinv -> (q) x^-1 . y
y . x -> (q^-1) x . y
"""


def test_sweep_words_match_the_reference_enumeration():
    builtin = builtin_presentation()
    x_dy = builtin.rule("x", "dy")
    no_x_dy = RelationTable(r for r in builtin.rules if r is not x_dy)
    small = load_presentation(SMALL_TABLE)
    skipped = {}
    for name, table in (("builtin", builtin), ("bad", _BAD_TABLE),
                        ("no x.dy", no_x_dy), ("small", small)):
        for max_len in (3, 4):
            words, n = _sweep_words(table, max_len)
            assert (words, n) == _reference_sweep_words(table, max_len)
            skipped[name, max_len] = n
    # without the rule, sequences holding both x and dy are skipped too
    assert skipped["bad", 4] == skipped["builtin", 4] == 259016
    assert skipped["no x.dy", 4] > skipped["builtin", 4]
    # x meets xinv through the inverse pair; px never meets y
    words, _ = _sweep_words(small, 3)
    assert _codes("xinv", "y", "x") in words
    px_y = set(_codes("y", "px"))
    assert skipped["small", 3] > 0
    assert not any(px_y <= set(w) for w in words)


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
        # the walk proves agreement without reducing any word
        assert report.passed
        assert len(calls) == 0


@settings(max_examples=100, deadline=None)
@given(covered_codes, st.integers(0, 2**32))
@example(PX_X_DY, 1)
def test_local_resolution_is_sound(codes, seed):
    """Whenever every one-step reduct resolves, the other strategies, on
    another cold table, reach the form the walk stored; every form it
    stored is the leftmost one."""
    if codes is None:
        return
    for rules in (builtin_presentation().rules, _BAD_TABLE.rules):
        table = RelationTable(rules)
        memo = {}
        resolves = _closure_resolves([codes], table, memo)
        if rules is not _BAD_TABLE.rules:
            assert resolves
        elif codes == PX_X_DY:
            assert not resolves
        assert codes in memo or not resolves
        for w, form in memo.items():
            assert form == _normal_form(w, table, {}, _pick_leftmost, None)
        if not resolves:
            continue
        cold = RelationTable(rules)
        for pick, rng in ((_pick_rightmost, None),
                          (_pick_random, random.Random(seed)),
                          (_pick_random, random.Random(seed + 1))):
            assert _normal_form(codes, cold, {}, pick, rng) == memo[codes]


def test_local_resolution_walks_the_leftmost_step():
    """A memo entry the walk finds is trusted as the leftmost form, yet it
    must resolve too: a word with one out-of-order pair is resolved only
    if the words it rewrites to are."""
    table = RelationTable(builtin_presentation().rules)
    root, child = _codes("y", "px", "x", "z"), _codes("y", "x", "px", "z")
    assert _positions(root) == [1] and _positions(child) == [0, 2]
    memo = {}
    assert _closure_resolves([root], table, memo)
    wrong = {child: {w: c * 2 for w, c in memo[child].items()}}
    assert not _closure_resolves([root], table, wrong)
    # a right entry is trusted and resolves
    right = {child: memo[child]}
    assert _closure_resolves([root], table, right)
    assert right[root] == memo[root]


def test_cold_table_sweep_matches_the_exact_loop():
    """On a cold table the walk fills the memo itself, and the sweep gives
    the exact loop's report; on the bad table the walk stops early and the
    sweep's fallback completes the memo.  Either way the memo holds every
    swept word's uncached leftmost form."""
    for rules in (builtin_presentation().rules, _BAD_TABLE.rules):
        expected = _exact_sweep(RelationTable(rules), 3, (1, 2))
        table = RelationTable(rules)
        report = check_local_confluence(table, 3, (1, 2))
        assert str(report) == str(expected)
        assert report.divergences == expected.divergences
        memo = table.normal_form_cache("leftmost")
        words, _ = _sweep_words(table, 3)
        for w, form in zip(words, _leftmost_forms(table, words)):
            assert memo[w] == form


def test_local_resolution_needs_every_rule():
    """A later pair without a rule is "not resolved", not a traceback; the
    sweep raises the MissingRuleError the exact loop raises."""
    table = builtin_presentation()
    word = _codes("x", "wx", "dx")
    assert _positions(word) == [0, 1]
    assert table.rule("x", "wx") is not None
    assert table.rule("wx", "dx") is None
    assert _closure_resolves([word], RelationTable(table.rules), {}) is False
    for sweep in (_divergences, _exact_divergences):
        with pytest.raises(MissingRuleError) as exc:
            sweep(table, [word], _alternatives((1,)))
        assert (exc.value.left.name, exc.value.right.name) == ("wx", "dx")


# Rules whose tables fail the sorting guard: a letter's swaps against x and
# xinv are no longer mutual inverses.  On each, the word beside it reduces
# one way leftmost and another rightmost, so no single sorted form could
# stand for both.
UNSORTABLE = (
    ("y . x -> (q^-1) x . y", "y . x -> (q^-2) x . y", "y*x*z*xinv"),
    (GOOD_RULE, BAD_RULE, "x*y*xinv*dy"),
)


def _mutated(good, bad):
    text = format_presentation(builtin_presentation())
    assert good in text
    return load_presentation(text.replace(good, bad))


# forms anticommute with -q where the paper has -q^-1; no x or K involved,
# so the guard still holds
_SORTABLE_MUTANT = _mutated("dz . dx -> (-q^-1) dx . dz",
                            "dz . dx -> (-q) dx . dz")

any_codes = st.lists(st.integers(0, len(GENERATORS) - 1),
                     min_size=2, max_size=7).map(canonical_codes)


@settings(max_examples=300, deadline=None)
@given(any_codes)
@example(_codes("y", "x", "z", "xinv"))
@example(_codes("x", "y", "xinv", "dy"))
@example(_codes("Kinv", "Tx", "Ty", "K"))
@example(_codes("dz", "y", "dx", "dz"))
@example(_codes("x", "dz", "dx", "xinv"))
def test_sorting_path_agrees_with_uncached_reduction(codes):
    """A word whose inverted pairs are all swaps (or x/xinv, K/Kinv pairs)
    sorts to the form that rewriting reaches, on the builtin table and on
    a mutated one that still passes the guard."""
    if codes is None:
        return
    for table in (builtin_presentation(), _SORTABLE_MUTANT):
        assert table.swaps is not None
        form = _sort(codes, FormMemo(), table.swaps)
        if form is None:
            continue
        report = normalize_report(Element.from_word(Word(codes)), table)
        assert form == dict(report.output.terms())
        assert all(type(k) is Word for k in form)
        assert all(c is ONE for c in form.values() if c == ONE)


def test_sorting_guard_rejects_tables_whose_swaps_do_not_cancel():
    builtin = builtin_presentation()
    assert len(builtin.swaps) == 154
    for good, bad, text in UNSORTABLE:
        table = _mutated(good, bad)
        assert table.swaps is None
        e = parse_element(text)
        (word, _), = e.terms()
        assert normalize(e, table) == normalize_report(e, table).output
        assert (_normal_form(word, table, {}, _pick_leftmost, None)
                != _normal_form(word, table, {}, _pick_rightmost, None))
        # on the builtin table the same word sorts
        assert _sorted_form(word, builtin.swaps) is not None


def test_long_word_sorts_into_one_memo_entry():
    table = RelationTable(builtin_presentation().rules)
    memo = table.normal_form_cache("leftmost")
    # each word must sort before it is normalized, so that a broken
    # sorting path fails here instead of rewriting 100,000 letters one
    # quadratic step at a time
    for text, expected in (("y^2*x*y^3", "(q^-2) x*y^5"),
                           ("y^100000*x", "(q^-100000) x*y^100000")):
        e = parse_element(text)
        (word, _), = e.terms()
        assert _sorted_form(word, table.swaps) is not None
        before = len(memo)
        assert str(normalize(e, table)) == expected
        assert len(memo) == before + 1


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
