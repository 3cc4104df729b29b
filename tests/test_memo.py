"""The memoized linear maps: d, the operator actions, the letter steps of
operator words, the coproduct, the antipode and the duality pairing.

Each map stores its image of a basis word on the relation table it was
computed with.  These tests pin the three properties that make that safe:
the memoized value equals the map's definition, on a cold memo and a warm
one; a table's memos never answer for another table; and re-running a
suite on the same table adds no entries.  Two tests pin the one loop
behind the first five maps: only :func:`~qcartan.words.linear_image`
stores their entries, and each operator word's act step images its own
word.  The last tests pin that equal
coefficients in a memo are one shared monomial, and that sharing never
changes a monomial's value; that equal forms of at most one term in the
normal-form memo are one dict, sorted forms included; and that the sweep's walk consumes the
list of words it is handed, storing the same forms as a walk on a copy.
"""

import sys

from hypothesis import given, settings, strategies as st

from qcartan import scalars, words
from qcartan.calculus import (
    _act_word,
    act,
    basis_forms,
    check_d2,
    exterior_d,
)
from qcartan.cartan import apply_operator_word, check_cartan_tables, lie_apply
from qcartan.cli import main, run_suite
from qcartan.duality import _pair_letters, pair
from qcartan.hopf import antipode, coproduct
from qcartan.normalizer import (
    _closure_resolves,
    _sweep_words,
    check_local_confluence,
    multiply,
    normalize,
)
from qcartan.parser import parse_element
from qcartan.relations import (
    RelationTable,
    builtin_presentation,
    format_presentation,
    load_presentation,
)
from qcartan.scalars import ONE, QScalar
from qcartan.words import (
    OPERATOR_SECTORS,
    Element,
    Sector,
    add_term,
    generator,
    make_word,
)

GOOD_RULE = "x . dy -> (q) dy . x"
BAD_RULE = "x . dy -> (2*q) dy . x"


def fresh_table() -> RelationTable:
    """The builtin rules in a new table, with every memo empty."""
    return RelationTable(builtin_presentation().rules)


# ---------------------------------------------------------------------------
# references: each map computed from its definition, with no memo


def d_power(g, e):
    """d of the coordinate power g^e (e >= 1 unless g is x) as raw
    (factors, coeff) terms: the per-power form of the Leibniz sum, kept
    apart from the library's per-letter one."""
    d_name = "d" + g.name
    if d_name not in ("dx", "dy", "dz"):
        return []
    dg = generator(d_name)
    if g.name == "x":
        # x commutes with dx, so the position sum collapses exactly
        factors = ((dg, 1),) if e == 1 else ((dg, 1), (g, e - 1))
        return [(factors, QScalar.rational(e))]
    out = []
    for j in range(e):
        factors = []
        if j:
            factors.append((g, j))
        factors.append((dg, 1))
        if e - 1 - j:
            factors.append((g, e - 1 - j))
        out.append((tuple(factors), ONE))
    return out


def reference_d(f: Element, table) -> Element:
    """The graded-Leibniz sum over the whole element, normalized once."""
    terms = {}
    for word, coeff in f.terms():
        sign = 1
        for i, (g, e) in enumerate(word.factors):
            if g.sector is Sector.FORM:
                sign *= (-1) ** e
                continue
            for mid, c in d_power(g, e):
                w = make_word(word.factors[:i] + mid + word.factors[i + 1:])
                if w is not None:
                    add_term(terms, w, coeff * c * QScalar.rational(sign))
    return normalize(Element._raw(terms), table)


def reference_act(operator: Element, target: Element, table) -> Element:
    """multiply, then drop every word still carrying an operator letter."""
    product = multiply(operator, target, table)
    return Element({w: c for w, c in product.terms()
                    if not (w.sectors() & OPERATOR_SECTORS)})


def reference_pair(u: Element, f: Element, table) -> QScalar:
    """The direct _pair_letters sum over the normalized terms."""
    total = QScalar.zero()
    for uw, uc in normalize(u, table).terms():
        letters = [g.name for g in uw.letters()]
        for fw, fc in normalize(f, table).terms():
            total = total + uc * fc * _pair_letters(letters, fw, table)
    return total


# ---------------------------------------------------------------------------
# random elements

coefficients = st.sampled_from([
    QScalar.rational(1), QScalar.rational(-1), QScalar.rational(2),
    QScalar.q_power(1), QScalar.q_power(-1), QScalar.q_power(1, 3),
    QScalar.rational("1/2") + QScalar.q_power(1),
])


def elements(words, max_size=4):
    return st.dictionaries(st.sampled_from(words), coefficients,
                           min_size=1, max_size=max_size).map(Element)


forms = elements(basis_forms(2))
# operator elements whose words stay inside sectors the table orders
operators = elements([
    make_word([(n, 1) for n in names]) for names in (
        ("px",), ("py",), ("pz",), ("Tx",), ("Ty",), ("Tz",),
        ("ix",), ("iy",), ("iz",), ("Lx",), ("Lz",),
        ("px", "py"), ("x", "px"), ("y", "py"), ("Tx", "Ty"), ("ix", "iy"),
    )
], max_size=3)
dual_elements = st.lists(
    st.lists(st.sampled_from(["Tx", "Ty", "Tz", "K", "Kinv"]), max_size=3),
    min_size=1, max_size=3,
).map(lambda seqs: Element(
    {make_word((n, 1) for n in seq): QScalar.rational(i + 1)
     for i, seq in enumerate(seqs)}))
coordinate_elements = st.lists(
    st.lists(st.sampled_from(["x", "y", "z"]), max_size=3),
    min_size=1, max_size=3,
).map(lambda seqs: Element(
    {make_word((n, 1) for n in seq): QScalar.q_power(i) for i, seq in
     enumerate(seqs)}))


@settings(max_examples=25, deadline=None)
@given(forms)
def test_memoized_d_matches_leibniz_sum(f):
    table = fresh_table()
    expected = reference_d(f, builtin_presentation())
    assert exterior_d(f, table) == expected  # cold memo
    assert table.cache_info()["d"] == len(f)
    assert exterior_d(f, table) == expected  # warm memo


@settings(max_examples=25, deadline=None)
@given(operators, forms)
def test_memoized_act_matches_multiply_then_filter(operator, target):
    table = fresh_table()
    expected = reference_act(operator, target, builtin_presentation())
    assert act(operator, target, table) == expected
    assert table.cache_info()["act"] == len(operator) * len(target)
    assert act(operator, target, table) == expected


@settings(max_examples=25, deadline=None)
@given(dual_elements, coordinate_elements)
def test_memoized_pair_matches_pair_letters_sum(u, f):
    table = fresh_table()
    expected = reference_pair(u, f, builtin_presentation())
    assert pair(u, f, table) == expected
    assert table.cache_info()["pair"] > 0
    assert pair(u, f, table) == expected


# ---------------------------------------------------------------------------
# memos belong to one table


def _answers(table):
    e = parse_element
    return [
        exterior_d(e("x*y"), table),
        act(e("Tx"), e("x*dy"), table),
        lie_apply("y", e("x*y"), table),
        apply_operator_word(make_word([("Ly", 1), ("x", 1)]), e("dy*y"),
                            table),
        pair(e("X*Y"), e("y*x"), table),
    ]


def test_memos_never_answer_for_another_table(table):
    bad_text = format_presentation(table).replace(GOOD_RULE, BAD_RULE)
    assert bad_text != format_presentation(table)
    bad = load_presentation(bad_text)
    good_answers = _answers(table)
    bad_answers = _answers(bad)
    # the corrupted rule changes every answer but the pairing, which
    # never meets a differential
    assert all(a != b for a, b in zip(good_answers[:4], bad_answers[:4]))
    assert bad_answers == _answers(load_presentation(bad_text))
    assert bad_answers[4] == good_answers[4]
    assert all(n > 0 for n in bad.cache_info().values())


def test_checker_still_fails_on_corrupt_table_after_builtin_run(
        tmp_path, capsys, table):
    path = tmp_path / "corrupt.rel"
    path.write_text(
        format_presentation(table).replace(GOOD_RULE, BAD_RULE),
        encoding="utf-8")
    assert main(["check", "d2", "--max-degree", "2"]) == 0
    assert main(["check", "d2", "--max-degree", "2",
                 "--table", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("PASS d2") and "\nFAIL d2" in out
    corrupt = load_presentation(path.read_text(encoding="utf-8"))
    assert check_d2(2, corrupt).passed is False


def test_operator_letter_steps_share_the_act_memo():
    table = fresh_table()
    px = make_word([("px", 1)])
    f = parse_element("x^2*y + dx*z - (q)*dy*dz*x")
    expected = act(Element.from_word(px), f, table)
    info = table.cache_info()
    assert apply_operator_word(px, f, table) == expected
    assert table.cache_info() == info
    # a coordinate or differential letter steps by left multiplication
    for name in ("x", "xinv", "y", "z", "dx", "dy", "dz"):
        letter = Element.from_letter(name)
        for w in basis_forms(2):
            target = Element.from_word(w)
            assert apply_operator_word(make_word([(name, 1)]), target,
                                       table) == multiply(letter, target,
                                                          table)


# ---------------------------------------------------------------------------
# the one memoized loop

LINEAR_MEMOS = ("d", "act", "letter", "coproduct", "antipode")


class LoopOnlyMemo(dict):
    """A memo that only words.linear_image may store into."""

    def __init__(self):
        super().__init__()
        self.stores = 0

    def __setitem__(self, key, value):
        assert sys._getframe(1).f_code is words.linear_image.__code__
        self.stores += 1
        super().__setitem__(key, value)


def test_only_the_loop_stores_linear_map_entries():
    table = fresh_table()
    for name in LINEAR_MEMOS:
        table._caches[name] = LoopOnlyMemo()
    e = parse_element
    exterior_d(e("x^2*y + dx*z"), table)
    act(e("px + Ty"), e("x*dy + y"), table)
    apply_operator_word(make_word([("Ly", 1), ("wx", 1)]), e("x*y + z"),
                        table, expand_omega=True)
    coproduct("U", e("Tx*K + Ty"), table)
    antipode("A", e("x*y + z"), table)
    for name in LINEAR_MEMOS:
        memo = table.memo(name)
        assert isinstance(memo, LoopOnlyMemo), name
        # every entry came in through the guarded store
        assert len(memo) == memo.stores > 0, name


def test_each_act_step_images_its_own_word():
    table, other = fresh_table(), fresh_table()
    operator = parse_element("px + q*Ty - iy")
    target = parse_element("x^2*y + dx*z - (q)*dy*dz*x")
    expected = Element.zero()
    for u, cu in operator.terms():
        expected = expected + cu * act(Element.from_word(u), target, other)
    assert act(operator, target, table) == expected
    memo = table.memo("act")
    assert len(memo) == len(operator) * len(target)
    for (u, w), image in memo.items():
        assert image == _act_word(u, w, fresh_table()), (u, w)


def test_second_cartan_tables_run_adds_no_entries():
    table = fresh_table()
    run_suite("cartan-tables", 2, (1,), table)
    info = table.cache_info()
    assert {"normal_form.leftmost", "d", "act", "letter"} <= set(info)
    report = check_cartan_tables(2, table)
    assert report.results == run_suite("cartan-tables", 2, (1,), table)
    assert report.relations_checked == 78
    assert table.cache_info() == info


def test_second_hopf_run_adds_no_antipode_entries():
    table = fresh_table()
    first = run_suite("hopf-U", 2, (1,), table)
    info = table.cache_info()
    assert info["antipode"] > 0
    assert run_suite("hopf-U", 2, (1,), table) == first
    assert table.cache_info() == info


def test_equal_memo_coefficients_are_one_object():
    table = fresh_table()
    assert check_local_confluence(table, 3).passed
    coeffs = [c for form in table.normal_form_cache("leftmost").values()
              for c in form.values()]
    assert len(coeffs) > len(set(coeffs)) > 1
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def test_equal_small_memo_forms_are_one_dict():
    table = fresh_table()
    assert check_local_confluence(table, 3).passed
    small = [form for form in table.normal_form_cache("leftmost").values()
             if len(form) <= 1]
    values = {frozenset(form.items()) for form in small}
    assert len(small) > len(values) > 1
    assert frozenset() in values
    assert len({id(form) for form in small}) == len(values)


def test_sorted_memo_forms_are_shared():
    """normalize sorts most of these words; their forms go through the
    share map like every other form the walk stores."""
    table = fresh_table()
    normalize(parse_element("(x+y+z)^4 + (dy+y+x)^3*(px+z)"), table)
    small = [form for form in table.normal_form_cache("leftmost").values()
             if len(form) <= 1]
    values = {frozenset(form.items()) for form in small}
    assert len(small) > len(values) > 1
    assert len({id(form) for form in small}) == len(values)


def test_equal_sorted_forms_are_one_object():
    """Two fresh words that sort to the same form get that one form
    object, found by code tuple, and one memo entry each."""
    table = fresh_table()
    memo = table.normal_form_cache("leftmost")
    words = [w for text in ("z*x*y", "y*z*x")
             for w, _ in parse_element(text).terms()]
    for w in words:
        normalize(Element.from_word(w), table)
    assert list(memo) == words
    first, second = (memo[w] for w in words)
    assert first is second
    assert first == dict(parse_element("q^-2*x*y*z").terms())


def test_sweep_walk_consumes_its_roots():
    words, _ = _sweep_words(builtin_presentation(), 3)
    copy = list(words)
    table, other = fresh_table(), fresh_table()
    memo = table.normal_form_cache("leftmost")
    assert _closure_resolves(words, table, memo)
    assert words == []
    expected = other.normal_form_cache("leftmost")
    assert _closure_resolves(list(copy), other, expected)
    assert memo == expected
    assert all(w in memo for w in copy)


def test_shared_monomials_keep_their_values(capsys):
    assert main(["check", "all", "--max-degree", "2"]) == 0
    capsys.readouterr()
    assert len(scalars._MONOMIALS) > 4
    for (h, c), s in scalars._MONOMIALS.items():
        assert s._terms == {h: c} and s == QScalar({h: c}), (h, c)
