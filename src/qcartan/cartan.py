"""Inner derivations, Lie derivatives, and the operator-identity verifier.

The contraction i_a is the table action of the inner-derivation letters;
the Lie derivative is not postulated but *defined* through the Cartan
formula L_a = i_a d + d i_a.  The commutation tables for both are then
re-derived as operator identities on a sweep of basis forms, which turns
every printed relation into a machine-checked theorem instead of a
restatement.

An operator word is applied one signed letter at a time, rightmost first
(a power is just its letter repeated), and each letter step is a linear
map whose image of a basis word is computed once.  A coordinate,
differential, partial, Lie or inner letter u steps by the action of the
one-letter word u (on a form, left multiplication by a coordinate or a
differential drops no word), so its images are :func:`act`'s own,
shared with it in the relation table's "act" memo under (u, w).  The
"letter" memo holds only the Lie-derivative steps, through
:func:`lie_apply`, and the one-form-expansion steps.

:func:`verify_table` resolves each rule side's letter steps once per
rule, as (memo, tag, image) triples, and pushes each basis form's term
dict through them: a one-term dict with coefficient ONE reads the memo
image's terms as they are, and any other dict sums c * image into a
plain dict.  The right side sums its (coeff, steps) parts into one
dict.  Basis forms are taken in order and a rule stops at its first
failing form, so a failing row names that form and a missing rule
raises where a per-form loop would.  :func:`apply_operator_word` and
:func:`apply_operator` wrap the same two helpers, :func:`_push` and
:func:`_push_sum`.

:func:`verify_table`, :func:`check_cartan_tables` and
:func:`check_l_realization` return a :class:`~qcartan.report.CheckReport`
whose rows are a summary row (carrying the relation or case count, also
kept as ``relations_checked``) followed by one row per failing relation.
"""

from __future__ import annotations

from .report import CheckReport, CheckResult
from .scalars import ONE
from .words import Element, Sector, Word, add_term, concat
from .normalizer import multiply
from .calculus import (
    _OMEGAS,
    _act_word,
    act,
    basis_forms,
    coordinate_monomials,
    exterior_d,
    omega_images,
    require_function_form,
    t_realization,
)


def inner_apply(a: str, f: Element, table) -> Element:
    """Contract a form with the inner derivation along a in {x, y, z}.

    Lowers form degree by one; kills 0-forms.  One-form letters must be
    expanded away first.
    """
    if a not in ("x", "y", "z"):
        raise ValueError(f"no inner derivation along {a!r}")
    require_function_form(f, allow_omega=False)
    return act(Element.from_letter("i" + a), f, table)


def lie_apply(a: str, f: Element, table) -> Element:
    """Lie derivative along a in {x, y, z} via the Cartan formula."""
    if a not in ("x", "y", "z"):
        raise ValueError(f"no Lie derivative along {a!r}")
    require_function_form(f, allow_omega=False)
    return exterior_d(inner_apply(a, f, table), table) + \
        inner_apply(a, exterior_d(f, table), table)


def _letter_step(g, expand_omega: bool, table):
    """(memo, tag, image of one word) for the step of the letter g."""
    name = g.name
    if g.sector is Sector.LIEDERIV:
        return table.memo("letter"), name, lambda w: lie_apply(
            name[1], Element.from_word(w), table)
    if expand_omega and name in _OMEGAS:
        return table.memo("letter"), ("expand", name), lambda w: multiply(
            omega_images()[name], Element.from_word(w), table)
    u = Word((g.position,))
    return table.memo("act"), u, lambda w: _act_word(u, w, table)


def _word_steps(word: Word, expand_omega: bool, table) -> list:
    """The letter steps of an operator word, rightmost letter first."""
    return [_letter_step(g, expand_omega, table)
            for g in reversed(word.letters())]


def _push(terms: dict, steps) -> dict:
    """The terms of {word: coeff} after the steps, as a dict that may be
    a memo image's own and must not be mutated.

    A one-term dict with coefficient ONE reads the image's terms as they
    are; any other sums c * image with :func:`~qcartan.words.add_term`.
    """
    for memo, tag, image in steps:
        out = {}
        for w, c in terms.items():
            img = memo.get((tag, w))
            if img is None:
                img = memo[tag, w] = image(w)
            if c is ONE and len(terms) == 1:
                out = img._terms
            else:
                for iw, ic in img._terms.items():
                    add_term(out, iw, ic if c is ONE else c * ic)
        terms = out
    return terms


def _push_sum(terms: dict, parts) -> dict:
    """The sum of coeff * (terms after steps) over the (coeff, steps)
    parts, in a new dict."""
    out = {}
    for coeff, steps in parts:
        for w, c in _push(terms, steps).items():
            add_term(out, w, c if coeff is ONE else coeff * c)
    return out


def apply_operator_word(word: Word, target: Element, table,
                        expand_omega: bool = False) -> Element:
    """Apply a word of mixed letters to a function/form, rightmost letter
    first.

    Coordinates and differentials multiply from the left; partials, Lie
    generators and inner derivations act through the table; Lie-derivative
    letters go through the Cartan formula.  One-form letters multiply by
    their expansion when expand_omega is set (they have no action rules
    of their own).  Each letter's image of each word is computed once per
    table and memoized.
    """
    return Element._raw(_push(target._terms,
                              _word_steps(word, expand_omega, table)))


def apply_operator(e: Element, target: Element, table,
                   expand_omega: bool = False) -> Element:
    """The sum of coeff * apply_operator_word(word, target) over the
    terms of e."""
    return Element._raw(_push_sum(target._terms, [
        (coeff, _word_steps(word, expand_omega, table))
        for word, coeff in e.terms()]))


VERIFIABLE_TABLES = (
    "inner_coord", "inner_partial", "inner_diff", "inner_inner",
    "lie_coord", "lie_diff", "lie_partial", "lie_inner", "lie_lie",
    "t_omega",
)


def verify_table(table_id: str, max_degree: int, table) -> CheckReport:
    """Check every relation of the named table as an operator identity.

    Both sides are applied, through the concrete actions, to all basis
    forms of form degree <= 3 and coordinate degree <= max_degree.  The
    rows are the summary row "table <id>" and one row per failing
    relation, with its first failing basis form.
    """
    if table_id not in VERIFIABLE_TABLES:
        raise ValueError(f"unknown table id {table_id!r}")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    expand_omega = table_id == "t_omega"
    rules = table.for_table(table_id, origin="paper")
    forms = basis_forms(max_degree)
    failures = []
    for rule in rules:
        relation = f"{rule.left.name}*{rule.right.name}"
        lhs_steps = _word_steps(rule.lhs_word(), expand_omega, table)
        rhs_parts = [(coeff, _word_steps(word, expand_omega, table))
                     for word, coeff in rule.rhs.terms()]
        for w in forms:
            target = {w: ONE}
            lhs = _push(target, lhs_steps)
            rhs = _push_sum(target, rhs_parts)
            if lhs != rhs:
                failures.append(CheckResult(
                    f"table {table_id} {relation} on {w}", False,
                    f"{Element._raw(lhs)} != {Element._raw(rhs)}"))
                break
    summary = CheckResult(f"table {table_id}", not failures,
                          f"{len(rules)} relations")
    return CheckReport(f"table {table_id}", (summary, *failures), len(rules))


def verify_all_tables(max_degree: int, table) -> list[CheckReport]:
    return [verify_table(t, max_degree, table) for t in VERIFIABLE_TABLES]


def check_cartan_tables(max_degree: int, table) -> CheckReport:
    """The rows of every verifiable table, in VERIFIABLE_TABLES order."""
    reports = verify_all_tables(max_degree, table)
    return CheckReport(
        "Cartan tables as operator identities",
        tuple(r for report in reports for r in report.results),
        sum(report.relations_checked for report in reports),
    )


def l_realization(table) -> dict[str, Element]:
    """The Lie derivatives written through x^-1 and the Lie generators,
    Lx = x^-1 Tx - x^-1 y x^-1 Ty, Ly = x^-1 Ty, Lz = Tz, with the
    generators realized by coordinates and partials."""
    t = t_realization()
    xinv = Element.from_letter("x", -1)
    y = Element.from_letter("y")
    return {
        "x": concat(xinv, t["Tx"]) - concat(concat(concat(xinv, y), xinv), t["Ty"]),
        "y": concat(xinv, t["Ty"]),
        "z": t["Tz"],
    }


def check_l_realization(max_degree: int, table) -> CheckReport:
    """Cartan-formula Lie derivative against its x^-1 T realization on all
    basis 0-forms up to the degree bound: a summary row
    "l-realization (<n> cases)", then one row per failing case."""
    images = l_realization(table)
    failures = []
    count = 0
    for a in ("x", "y", "z"):
        for mono in coordinate_monomials(max_degree):
            target = Element.from_word(mono)
            via_cartan = lie_apply(a, target, table)
            via_real = act(images[a], target, table)
            count += 1
            if via_cartan != via_real:
                failures.append(CheckResult(
                    f"l-realization L{a} on {mono}", False,
                    f"{via_cartan} != {via_real}"))
    summary = CheckResult(f"l-realization ({count} cases)", not failures)
    return CheckReport("l-realization", (summary, *failures), count)
