"""Commutation rules of the calculus, as validated data.

A relation table maps ordered letter pairs (left, right) with left past
right in normal order to a rewrite right-hand side.  The builtin
presentation carries the full rule set of the q-deformed 3d calculus:
coordinate, differential, one-form, partial-derivative, Lie-generator,
inner-derivation and Lie-derivative sectors, the derived rules for the
inverse of x, and the group-like K = q**Tx commuting with the Lie sector.

The packaged file rq3.rel is the single source of the builtin table:
:func:`builtin_presentation` loads it, so editing that file changes the
builtin.  Each rule there carries its `# <table> <origin>` provenance.

File format (one rule per line, '#' comments):

    <letter> . <letter> -> <element>

The left side is two letter names as printed (`xinv`, not `x^-1`).  The
right side is any expression of :mod:`qcartan.parser`, read by the same
:func:`~qcartan.parser.parse_element` as command-line input and under the
same exponent, nesting and expansion bounds; a parse error is reported
as a :class:`RelationError` naming the line and the position within it.
:func:`format_presentation` writes terms as `(<scalar>) f1 . f2 ...` with
factors `name^exp`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from importlib.resources import files

from .normalizer import _positions
from .parser import ParseError, parse_element
from .scalars import ONE
from .words import (
    _INVERSE,
    GENERATORS,
    LETTERS,
    Element,
    Generator,
    Sector,
    Word,
    canonical_codes,
    generator,
    make_word,
)

_OP_SECTORS = (Sector.PARTIAL, Sector.LIE, Sector.GROUPLIKE,
               Sector.INNER, Sector.LIEDERIV)


class RelationError(ValueError):
    """A rule set violates the table invariants, or a file fails to parse."""

    def __init__(self, message, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Rule:
    left: Generator
    right: Generator
    rhs: Element
    table_id: str
    origin: str  # "paper" | "derived" | "user"
    # the line of the relation file the rule came from; not part of identity
    line: int | None = field(default=None, compare=False)

    def lhs_word(self) -> Word:
        w = make_word([(self.left, 1), (self.right, 1)])
        assert w is not None
        return w

    def __str__(self):
        return f"{self.left.name} . {self.right.name} -> {_format_element(self.rhs)}"


_OP_CODES = frozenset(g.position for g in LETTERS if g.sector in _OP_SECTORS)


def _op_count(word: Word) -> int:
    return sum(c in _OP_CODES for c in word)


class RelationTable:
    """An immutable, validated set of rewrite rules.

    Equality compares the pair -> right-hand-side map (provenance notes
    are carried along but do not affect identity).

    `compiled` maps each rule's pair of letter codes (positions) to its
    right-hand side as ((word, coeff), ...), in the rule's term order,
    with a coefficient equal to 1 stored as the ONE singleton; the rewrite
    kernel reads it in place of :meth:`rewrite`.  `swaps` holds the pure
    scaled swaps among them, or is None when the guard of
    :func:`_swap_table` fails and no word is reduced by sorting.
    """

    def __init__(self, rules):
        rules = tuple(rules)
        by_pair: dict[tuple[int, int], Rule] = {}
        for rule in rules:
            key = (rule.left.position, rule.right.position)
            if key in by_pair:
                raise RelationError(
                    f"duplicate rule for pair {rule.left.name} . {rule.right.name}",
                    rule.line,
                )
            _validate_rule(rule)
            by_pair[key] = rule
        self.rules = tuple(
            by_pair[k] for k in sorted(by_pair)
        )
        self.compiled = {
            key: tuple((w, ONE if c == ONE else c)
                       for w, c in rule.rhs.terms())
            for key, rule in by_pair.items()
        }
        self.swaps = _swap_table(self.compiled)
        self._by_pair = by_pair
        self._caches: dict[str, dict] = {}

    def rewrite(self, left: Generator, right: Generator) -> Element | None:
        rule = self._by_pair.get((left.position, right.position))
        return rule.rhs if rule is not None else None

    def rule(self, left, right) -> Rule | None:
        if isinstance(left, str):
            left = generator(left)
        if isinstance(right, str):
            right = generator(right)
        return self._by_pair.get((left.position, right.position))

    def for_table(self, table_id: str, origin: str | None = None):
        return [
            r for r in self.rules
            if r.table_id == table_id and (origin is None or r.origin == origin)
        ]

    def memo(self, name: str) -> dict:
        """The table's memo of the given name, created empty on first use.

        Every map the calculus memoizes (normal forms, d, the operator
        actions, the duality pairing) depends only on its argument and the
        rules, so its entries stay valid for the life of the table and are
        never shared with another table.  Entries are stored only once
        computed, so concurrent callers under the GIL at worst compute one
        twice.
        """
        return self._caches.setdefault(name, {})

    def normal_form_cache(self, strategy: str) -> dict:
        return self.memo(f"normal_form.{strategy}")

    def cache_info(self) -> dict[str, int]:
        """{memo name: entry count} for every memo created so far."""
        return {name: len(memo) for name, memo in self._caches.items()}

    def __eq__(self, other):
        if not isinstance(other, RelationTable):
            return NotImplemented
        return {k: v.rhs for k, v in self._by_pair.items()} == \
               {k: v.rhs for k, v in other._by_pair.items()}

    def __len__(self):
        return len(self.rules)

    def __repr__(self):
        return f"RelationTable({len(self.rules)} rules)"


def _swap_table(compiled):
    """{(a, b): (h, k)} for every rule a . b -> (k*q**(h/2)) b . a, whose
    right side is the swapped pair alone times a monomial; None when, for
    some letter, its swaps against x and xinv, or against K and Kinv, both
    exist but their coefficients are not mutual inverses.

    A word whose inverted letter pairs are all such swaps, or an x/xinv or
    K/Kinv pair, reduces by sorting (:func:`qcartan.normalizer._walk`):
    each swap step drops one inversion and multiplies by its coefficient,
    and a cancelling x/xinv or K/Kinv pair drops, for every other letter,
    the two pairs it forms with them, whose coefficients multiply to 1
    under this guard.  So the sorted word, times each swap's coefficient
    to the power of its number of inverted pairs, is the form of every
    rewriting strategy.
    """
    swaps = {}
    for (a, b), rhs in compiled.items():
        if len(rhs) == 1 and rhs[0][0] == (b, a) and rhs[0][1].is_monomial():
            (h, k), = rhs[0][1].terms()
            swaps[(a, b)] = (h, k)
    for p, pinv in enumerate(_INVERSE):
        if pinv < p:  # no inverse, or a pair already checked
            continue
        for g in range(len(LETTERS)):
            s = swaps.get((max(g, p), min(g, p)))
            t = swaps.get((max(g, pinv), min(g, pinv)))
            if s and t and (s[0] + t[0], s[1] * t[1]) != (0, 1):
                return None
    return swaps


def _validate_rule(rule: Rule):
    left, right = rule.left, rule.right
    pair = f"{left.name} . {right.name}"
    if left.position <= right.position:
        raise RelationError(
            f"rule {pair} is oriented the wrong way: left side already in normal order",
            rule.line,
        )
    if rule.rhs.is_zero():
        raise RelationError(f"rule {pair} has an empty right-hand side", rule.line)
    lhs_degree = left.form_degree + right.form_degree
    for w in rule.rhs._terms:
        if w.form_degree() != lhs_degree:
            raise RelationError(
                f"rule {pair}: form degree {w.form_degree()} of term {w} "
                f"differs from {lhs_degree}",
                rule.line,
            )
    swap = make_word([(right, 1), (left, 1)])
    if swap is None or swap not in rule.rhs._terms:
        raise RelationError(
            f"rule {pair}: leading term must be the swapped pair", rule.line
        )
    lhs_ops = _op_count(rule.lhs_word())
    for w in rule.rhs._terms:
        if w == swap:
            continue
        if (_op_count(w), len(w)) >= (lhs_ops, 2):
            raise RelationError(
                f"rule {pair}: term {w} does not decrease the rewrite measure",
                rule.line,
            )
        if _has_inversion(w):
            raise RelationError(
                f"rule {pair}: term {w} is not normal ordered", rule.line
            )


def _has_inversion(word: Word) -> bool:
    return bool(_positions(word))


# ---------------------------------------------------------------------------
# builtin presentation

@cache
def builtin_presentation() -> RelationTable:
    """The full builtin rule set, loaded from the packaged rq3.rel."""
    text = files("qcartan").joinpath("rq3.rel").read_text(encoding="utf-8")
    return load_presentation(text)


def _derive_inverse_rules(paper_rules):
    """Adjoin the commutation rules of x**-1.

    From G . x -> a x G + R follows G . xinv -> a^-1 xinv G - a^-1 xinv R xinv,
    and from x . H -> b H x (all such rules are homogeneous) follows
    xinv . H -> b^-1 H xinv.  Remainders close under power merging alone,
    so no normalization pass is needed here.  The `derived` x**-1 rules in
    rq3.rel are checked against this derivation.
    """
    x = generator("x")
    xinv = generator("xinv")
    inv = (xinv.position,)
    derived = []
    for rule in paper_rules:
        if rule.right is x:
            g = rule.left
            swap = make_word([(x, 1), (g, 1)])
            alpha = rule.rhs.coefficient(swap)
            remainder = rule.rhs - Element.from_word(swap, alpha)
            inv_alpha = alpha.inverse()
            terms = {make_word([(xinv, 1), (g, 1)]): inv_alpha}
            rhs = Element(terms)
            for w, c in remainder.terms():
                codes = canonical_codes(inv + w + inv)
                if codes is not None:
                    rhs = rhs + Element.from_word(Word(codes),
                                                  -(inv_alpha * c))
            derived.append(Rule(g, xinv, rhs, rule.table_id, "derived"))
        elif rule.left is x:
            h = rule.right
            swap = make_word([(h, 1), (x, 1)])
            beta = rule.rhs.coefficient(swap)
            if rule.rhs != Element.from_word(swap, beta):
                raise RelationError(
                    f"cannot derive inverse rule from inhomogeneous {rule}"
                )
            rhs = Element.from_word(make_word([(h, 1), (x, -1)]), beta.inverse())
            derived.append(Rule(xinv, h, rhs, rule.table_id, "derived"))
    return derived


# ---------------------------------------------------------------------------
# serialization

def _format_element(e: Element) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for w, c in e.sorted_terms():
        if w.is_empty():
            parts.append(f"({c})")
        elif c == ONE:
            parts.append(w.format(" . "))
        else:
            parts.append(f"({c}) {w.format(' . ')}")
    return " + ".join(parts)


_RULE_LINE_RE = re.compile(
    r"^(?P<lhs>[^>#]*?)->(?P<rhs>[^#]*?)(?:#\s*(?P<prov>.*))?$"
)


def _parse_rule_line(line: str, line_no=None):
    m = _RULE_LINE_RE.match(line.strip())
    if m is None:
        raise RelationError(f"expected '<pair> -> <element>' in {line.strip()!r}", line_no)
    names = [name.strip() for name in m.group("lhs").split(".")]
    if len(names) != 2 or not all(name in GENERATORS for name in names):
        raise RelationError("left side must be two letter names, as in "
                            f"'y . x', not {m.group('lhs').strip()!r}", line_no)
    left, right = GENERATORS[names[0]], GENERATORS[names[1]]
    if len(canonical_codes((left.position, right.position)) or ()) != 2:
        raise RelationError("left side must be a product of two letters", line_no)
    try:
        rhs = parse_element(m.group("rhs"))
    except ParseError as exc:
        # the position within the line, not within the right side
        indent = len(line) - len(line.lstrip())
        position = indent + m.start("rhs") + exc.position
        raise RelationError(str(ParseError(exc.reason, position)),
                            line_no) from None
    except ValueError as exc:
        raise RelationError(str(exc), line_no) from None
    prov = (m.group("prov") or "").split()
    table_id = prov[0] if prov else "user"
    origin = prov[1] if len(prov) > 1 else "user"
    return left, right, rhs, (table_id, origin)


def load_presentation(text: str) -> RelationTable:
    """Parse a relation file; invariant violations are rejected."""
    rules = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        left, right, rhs, (table_id, origin) = _parse_rule_line(line, line_no)
        rules.append(Rule(left, right, rhs, table_id, origin, line_no))
    try:
        return RelationTable(rules)
    except RelationError:
        raise
    except ValueError as exc:
        raise RelationError(str(exc)) from None


def format_presentation(table: RelationTable) -> str:
    """Render a table in the relation-file format (round-trips exactly)."""
    lines = [
        "# Relation table for the q-deformed differential calculus on the",
        "# extended quantum 3d space.  One rule per line:",
        "#     <letter> . <letter> -> <element>   # <table> <origin>",
        ""
    ]
    by_table: dict[str, list[Rule]] = {}
    for rule in table.rules:
        by_table.setdefault(rule.table_id, []).append(rule)
    for table_id in sorted(by_table):
        lines.append(f"# --- {table_id}")
        for rule in sorted(
            by_table[table_id],
            key=lambda r: (r.left.position, r.right.position),
        ):
            lines.append(
                f"{rule.left.name} . {rule.right.name} -> "
                f"{_format_element(rule.rhs)}  # {rule.table_id} {rule.origin}"
            )
        lines.append("")
    return "\n".join(lines)


def load_presentation_file(path) -> RelationTable:
    with open(path, "r", encoding="utf-8") as fh:
        return load_presentation(fh.read())
