"""The package's immutable value types (report.Record subclasses): what
equality, hashing, immutability and repr promise to their users.
Monomial's own checks are in test_duality."""

import pytest

from qcartan.duality import Monomial, dual_presentation
from qcartan.hopf import HopfPresentation
from qcartan.normalizer import (ConfluenceReport, NormalizationReport,
                                normalize_report)
from qcartan.parser import parse_element
from qcartan.relations import (Rule, builtin_presentation,
                               format_presentation, load_presentation)
from qcartan.report import CheckReport, CheckResult
from qcartan.words import GENERATORS, Generator, Sector


def _rule(line=None):
    x, y = GENERATORS["x"], GENERATORS["y"]
    return Rule(y, x, parse_element("(q^-1) x . y"), "coord", "paper", line)


def test_rule_equality_and_hash_ignore_the_line():
    a, b = _rule(3), _rule(17)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.line == 3 and b.line == 17
    other = Rule(a.left, a.right, a.rhs, a.table_id, "derived", 3)
    assert a != other


def test_two_loads_of_a_table_give_equal_rules():
    text = "y . x -> (q^-1) x . y  # coord paper\n"
    first = load_presentation(text).rules
    second = load_presentation("\n\n" + text).rules
    assert first == second
    assert first[0].line == 1 and second[0].line == 3
    assert first[0] is not second[0]
    builtin = builtin_presentation()
    again = load_presentation(format_presentation(builtin))
    assert set(again.rules) == set(builtin.rules)


def test_generators_and_presentations_compare_by_identity():
    x = GENERATORS["x"]
    twin = Generator(x.name, x.sector, x.form_degree, x.position,
                     x.inverse_name, x.is_alias)
    assert twin != x and twin is not x and x == GENERATORS["x"]
    assert len({x, twin}) == 2
    dual = dual_presentation()
    same_maps = HopfPresentation(dual.name, dual.letters, dual.delta,
                                 dual.eps, dual.antipode_map)
    assert same_maps != dual and len({dual, same_maps}) == 2
    assert dual == dual and hash(dual) == hash(dual)


def _records():
    """One record of each type, with the name of one of its fields."""
    return [
        (_rule(4), "line"),
        (Monomial(1, 0, 2), "k"),
        (GENERATORS["dx"], "position"),
        (dual_presentation(), "delta"),
        (CheckReport("t", (CheckResult("n", True),)), "results"),
        (ConfluenceReport(max_len=3, strategies=("leftmost",),
                          words_checked=1, words_skipped=0), "divergences"),
        (normalize_report(parse_element("y*x"), builtin_presentation()),
         "output"),
    ]


@pytest.mark.parametrize("record, name", _records(),
                         ids=lambda v: v if isinstance(v, str)
                         else type(v).__name__)
def test_fields_cannot_be_set_or_deleted(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


def test_reprs_name_every_field():
    assert repr(_rule(4)) == (
        "Rule(left=y, right=x, rhs=Element((q^-1) x*y), table_id='coord', "
        "origin='paper', line=4)")
    assert repr(Monomial(1, 0, 2)) == "Monomial(k=1, l=0, m=2)"
    assert repr(GENERATORS["dx"]) == str(GENERATORS["dx"]) == "dx"
    assert repr(CheckReport("t", ())) == (
        "CheckReport(title='t', results=(), relations_checked=0)")
    assert repr(ConfluenceReport(3, ("leftmost",), 5, 2)) == (
        "ConfluenceReport(max_len=3, strategies=('leftmost',), "
        "words_checked=5, words_skipped=2, divergences=())")
    report = normalize_report(parse_element("y*x"), builtin_presentation())
    assert repr(report) == ("NormalizationReport(input=Element(y*x), "
                            "output=Element((q^-1) x*y), steps=1)")
    assert repr(dual_presentation()).startswith(
        "HopfPresentation(name='dual', letters=('Tx', 'Ty', 'Tz', 'K', "
        "'Kinv'), delta={")


def test_reports_compare_by_value_and_keep_their_defaults():
    a = CheckReport("t", (CheckResult("n", False, "1 != 2"),))
    assert a == CheckReport(title="t", results=a.results,
                            relations_checked=0)
    assert a != CheckReport("t", a.results, 1)
    assert hash(a) == hash(CheckReport("t", a.results))
    c = ConfluenceReport(max_len=4, strategies=(), words_checked=0,
                         words_skipped=0)
    assert c.divergences == () and c.passed
    assert c == ConfluenceReport(4, (), 0, 0, ())
    e = parse_element("y*x")
    assert NormalizationReport(e, e, 0) == NormalizationReport(e, e, 0)
    assert Generator("t", Sector.COORD, 0, 99).inverse_name is None
