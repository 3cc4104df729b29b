"""An independent syntactic reference for the normal form.

``reference_normal_form`` shares no code with ``qcartan.normalizer`` or
``words.canonical_codes``: letters are names, each rule is read from
``Rule.rhs`` of ``table.rules``, cancellation and vanishing are written
out, and a word is reduced by plain leftmost recursion with no memo.  It
is slow and exponential in the worst case, so it is only run on short
words.
"""

import random
import time

import pytest

from qcartan.normalizer import MissingRuleError, normalize
from qcartan.relations import RelationTable, builtin_presentation
from qcartan.scalars import ONE, QScalar
from qcartan.words import Element, make_word

# the normal order of the alphabet, sector by sector
ORDER = ("dx dy dz wx wy wz xinv x y z px py pz Tx Ty Tz K Kinv "
         "ix iy iz Lx Ly Lz").split()
RANK = {name: i for i, name in enumerate(ORDER)}
CANCELS = {("x", "xinv"), ("xinv", "x"), ("K", "Kinv"), ("Kinv", "K")}
# the letters of nonzero form degree square to zero
NILPOTENT = {"dx", "dy", "dz", "wx", "wy", "wz", "ix", "iy", "iz"}


class NoRule(Exception):
    pass


def reference_rules(table):
    """(left name, right name) -> ((names, coeff), ...) from Rule.rhs."""
    return {(r.left.name, r.right.name):
            tuple((tuple(g.name for g in w.letters()), c)
                  for w, c in r.rhs.terms())
            for r in table.rules}


def reference_normal_form(word, rules):
    """{names: coeff} of a tuple of letter names: the first adjacent pair
    that cancels, vanishes or is out of order is resolved, then recurse."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if (a, b) in CANCELS:
            return reference_normal_form(word[:i] + word[i + 2:], rules)
        if a == b and a in NILPOTENT:
            return {}
        if RANK[a] > RANK[b]:
            if (a, b) not in rules:
                raise NoRule(a, b)
            out = {}
            for mid, c in rules[a, b]:
                sub = reference_normal_form(word[:i] + mid + word[i + 2:], rules)
                for w, d in sub.items():
                    out[w] = out.get(w, QScalar.zero()) + c * d
            return {w: c for w, c in out.items() if c}
    return {word: ONE}


POOLS = (
    ("x", "xinv", "y", "z", "dx", "dy", "dz", "wx", "wy", "wz"),
    ("x", "xinv", "y", "z", "px", "py", "pz"),
    ("x", "xinv", "y", "K", "Kinv", "Tx", "Ty", "Tz"),
    ("x", "xinv", "K", "Kinv", "dx", "wy", "px", "Tx", "y"),
)


@pytest.mark.parametrize("sorting", [True, False])
def test_normalize_agrees_with_the_reference(sorting):
    table = RelationTable(builtin_presentation().rules)
    if not sorting:
        table.swaps = None  # every word goes through the rewrite walk
    rules = reference_rules(table)
    rng = random.Random(31)
    start = time.perf_counter()
    compared = 0
    for _ in range(5000):
        pool = rng.choice(POOLS)
        word = tuple(rng.choice(pool) for _ in range(rng.randint(2, 5)))
        try:
            want = reference_normal_form(word, rules)
            got = normalize(Element.from_word(make_word((n, 1) for n in word)),
                            table)
        except (NoRule, MissingRuleError):
            continue
        got = {tuple(g.name for g in w.letters()): c for w, c in got.terms()}
        assert got == want, word
        compared += 1
    assert compared > 3000
    assert time.perf_counter() - start < 1.0
