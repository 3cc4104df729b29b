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
:func:`verify_table` still applies both sides of every rule to every
basis form; only the repeated per-word work is read back.

:func:`verify_table`, :func:`check_cartan_tables` and
:func:`check_l_realization` return a :class:`~qcartan.report.CheckReport`
whose rows are a summary row (carrying the relation or case count, also
kept as ``relations_checked``) followed by one row per failing relation.
"""

from __future__ import annotations

from .report import CheckReport, CheckResult
from .words import Element, Sector, Word, concat, linear_image
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
    out = target
    for g in reversed(word.letters()):
        memo, tag, image = _letter_step(g, expand_omega, table)
        out = linear_image(out, memo, image, tag)
    return out


def apply_operator(e: Element, target: Element, table,
                   expand_omega: bool = False) -> Element:
    out = Element.zero()
    for word, coeff in e.terms():
        out = out + coeff * apply_operator_word(word, target, table,
                                                expand_omega)
    return out


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
    targets = [Element.from_word(w) for w in basis_forms(max_degree)]
    failures = []
    for rule in rules:
        relation = f"{rule.left.name}*{rule.right.name}"
        lhs_word = rule.lhs_word()
        for target in targets:
            lhs = apply_operator_word(lhs_word, target, table, expand_omega)
            rhs = apply_operator(rule.rhs, target, table, expand_omega)
            if lhs != rhs:
                witness = next(iter(target.terms()))[0]
                failures.append(CheckResult(
                    f"table {table_id} {relation} on {witness}", False,
                    f"{lhs} != {rhs}"))
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
