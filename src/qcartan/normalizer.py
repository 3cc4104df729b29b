"""Normal-ordering rewrite engine.

Words reduce to a unique normal form by repeatedly rewriting adjacent
out-of-order letter pairs with the table rules.  Every rule either swaps
the pair (dropping one inversion) or emits terms that have fewer
operator-sector letters, or as many and fewer letters, so the measure

    (#operator letters, letter count, #inversions)

decreases lexicographically at each step and reduction terminates.
Results are strategy-independent whenever the table is locally confluent,
which :func:`check_local_confluence` sweeps for exhaustively.

The kernel works on integer letter codes: a :class:`~qcartan.words.Word`
is the tuple of its codes, and the kernel's own splices stay plain
tuples.  An out-of-order pair is an index i with codes[i] > codes[i+1];
one rewrite step looks the pair up in the table's compiled rules (each
right-hand side stored once as ((word, coeff), ...), a coefficient 1 as
the ONE singleton) and splices codes[:i] + mid + codes[i+2:] for every
term.  The two slices and the compiled term are canonical already, so
only a term whose seams can cancel (x/xinv, K/Kinv) or vanish (a
repeated form letter), as read from a 24x24 table, goes through
:func:`~qcartan.words.canonical_codes`.  Coefficients are QScalars whose
integral coefficients are ints, so the +-q**k rule coefficients multiply
as machine integers, and a ONE coefficient is not multiplied at all.

Memos and the pending map of a reduction are keyed by code tuples,
Words or plain tuples alike, since both hash and compare as the tuple in
C.  Every normal form {Word: coeff} is keyed by Words: a word in normal
order is wrapped when its own form {Word(w): ONE} is stored, a sorted
word when the sorted form naming it is, and every other form sums
those.  Stored normal forms are never mutated, so
they are shared: a step to a single term with coefficient ONE stores its
child's form object, and :func:`normalize` returns Elements keyed by the
memo's own Word objects.

One walk, :func:`_walk`, does every reduction.  The leftmost walk first
tries to sort each word (:func:`_sorted_form`): when every inverted
letter pair is a pure scaled swap b.a -> c a.b of the table's `swaps`, or
an x/xinv or K/Kinv pair, the form is the sorted canonical word times
the product of c**n over the inverted pairs, found in one pass, as
quantum affine space normal-orders.  The table's guard (every letter's
swaps against x and xinv, and against K and Kinv, multiply to 1; else
`swaps` is None and nothing sorts) makes that the form every rewriting
strategy reaches.  A word with an inverted pair that is not a swap is
rewritten, and its children are tried again; one such pair in a long
word (px*x**4000) keeps the rewriting quadratic in its length.  The
sweep's walk and the other strategies never sort.  A strategy rewrites
each word at the one position it picks, and the word's form is that
step's c1*F(w1) + c2*F(w2) + ... once its children are reduced.  The
confluence sweep rewrites each word at every out-of-order position and
checks that the steps agree: the leftmost step gives the form, and every
other step must give it too.  That is the local agreement of Bergman's
diamond lemma, and by induction on the rewrite measure it proves that
every strategy, whatever positions it picks (so whatever its rng draws),
reaches the leftmost form: a word in normal order is its own form, and
otherwise a strategy's form of w sums its forms of the children of the
position it picked, which are their leftmost forms.  Only when the
sweep's walk stops (steps that disagree, a pair without a rule) does it
reduce every word leftmost and then under each other strategy, each with
a fresh cache, to name which diverges where, or to raise the
MissingRuleError of the first reduction that meets the pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .report import CheckResult
from .scalars import ONE, QScalar
from .words import (_INVERSE, _NO_SEAM, _SEAM, GENERATORS, LETTERS, Element,
                    Word, add_term, canonical_codes, concat)


class MissingRuleError(Exception):
    """An out-of-order letter pair has no rewrite rule.

    The calculus leaves several cross-tables unprinted (one-forms against
    differentials, Lie generators against partials, inner derivations
    against Lie generators, ...): expand the derived generators first
    instead of normalizing across them.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(
            f"no rule orders {left.name} past {right.name}; "
            "expand derived generators before normalizing"
        )


def _positions(codes):
    """Indices i where codes[i], codes[i+1] are out of normal order."""
    return [i for i in range(len(codes) - 1) if codes[i] > codes[i + 1]]


def _rewrite_at(codes, i, table):
    """Apply the table rule to the letter pair at codes[i], codes[i+1].

    Returns a list of (code tuple, QScalar) replacement terms, in the
    rule's term order, without the terms that vanished.  The word's slices
    and the compiled terms are canonical already, so a term goes through
    :func:`~qcartan.words.canonical_codes` only when one of its two seams
    can cancel or vanish.
    """
    a, b = codes[i], codes[i + 1]
    rhs = table.compiled.get((a, b))
    if rhs is None:
        raise MissingRuleError(LETTERS[a], LETTERS[b])
    left, right = codes[:i], codes[i + 2:]
    before = _SEAM[left[-1]] if left else _NO_SEAM
    after = _SEAM[right[0]] if right else _NO_SEAM
    out = []
    for mid, c in rhs:
        w = left + mid + right
        if mid:
            clash = before[mid[0]] or after[mid[-1]]
        else:
            clash = right and before[right[0]]
        if clash:
            w = canonical_codes(w)
            if w is None:
                continue
        out.append((w, c))
    return out


def _pick_leftmost(_codes, positions, _rng):
    return positions[0]


def _pick_rightmost(_codes, positions, _rng):
    return positions[-1]


def _pick_random(_codes, positions, rng):
    return rng.choice(positions)


def _walk(roots, table, forms: dict, done: dict, pick, rng) -> bool:
    """Reduce every word reachable from `roots`; whether all steps agree.

    Iterative post-order over the rewrite dag: each unfinished word is
    rewritten once at `pick(word, positions, rng)`, or at every
    out-of-order position when `pick` is None, and waits in the pending
    map until the children of all its steps are in `done`.  A finished
    word's form is `forms`' entry if there is one, else the first step's
    c1*F(w1) + c2*F(w2) + ... (:func:`_combine`), or {Word(w): ONE} for a
    word w in normal order, stored under that same Word; it is stored in
    `forms` and in `done`.  When `pick` is leftmost and the table has
    `swaps`, each word is first sorted (:func:`_sorted_form`), and if
    that succeeds, its sorted form is the form, without a step.
    So every form is keyed by the Words of its normal words.  Every other
    step must give that same form, or the walk returns False at once; the
    forms stored by then stay.  A pair without a rule raises
    MissingRuleError.
    """
    swaps = table.swaps if pick is _pick_leftmost else None
    pending: dict[tuple, list] = {}
    stack = list(roots)
    while stack:
        cur = stack[-1]
        if cur in done:
            stack.pop()
            continue
        steps = pending.pop(cur, None)
        if steps is None:
            if swaps is not None:
                form = _sorted_form(cur, swaps)
                if form is not None:
                    stack.pop()
                    forms[cur] = done[cur] = form
                    continue
            positions = _positions(cur)
            if pick is not None and positions:
                positions = [pick(cur, positions, rng)]
            steps = [_rewrite_at(cur, i, table) for i in positions]
            todo = [w for step in steps for w, _ in step if w not in done]
            if todo:
                pending[cur] = steps
                stack.extend(todo)
                continue
        stack.pop()
        form = forms.get(cur)
        if form is None:
            if steps:
                form = forms[cur] = _combine(steps[0], forms)
            else:
                w = Word(cur)
                form = forms[w] = {w: ONE}
        done[cur] = form
        for step in steps[1:]:
            other = _combine(step, forms)
            if other is not form and other != form:
                return False
    return True


def _sorted_form(codes, swaps: dict) -> dict | None:
    """The normal form of a word by sorting its letters, or None when some
    inverted letter pair is neither a swap of `swaps` nor an x/xinv or
    K/Kinv pair.

    One pass over the codes counts the letters seen so far; each letter b
    after n letters a > b multiplies the coefficient by their swap's c**n,
    and by 1 for an x/xinv or K/Kinv pair.  The form is
    {Word(canonical sorted codes): coefficient}, {} when the sorted word
    vanishes, with the ONE singleton for a coefficient 1.
    """
    seen: dict[int, int] = {}
    half, coeff = 0, 1
    for b in codes:
        for a, n in seen.items():
            if a > b:
                swap = swaps.get((a, b))
                if swap is not None:
                    half += swap[0] * n
                    coeff *= swap[1] ** n
                elif _INVERSE[a] != b:
                    return None
        seen[b] = seen.get(b, 0) + 1
    w = canonical_codes(sorted(codes))
    if w is None:
        return {}
    if half == 0 and coeff == 1:
        return {Word(w): ONE}
    return {Word(w): QScalar({half: coeff})}


def _normal_form(codes: tuple, table, cache: dict, pick, rng) -> dict:
    """Memoized reduction of a single word; returns {Word: coeff}.

    The picked position is a function of the word (fixed once per cache),
    so each strategy is deterministic and safely memoizable: the cache is
    both the walk's forms and its finished words.
    """
    if codes not in cache:
        _walk([codes], table, cache, cache, pick, rng)
    return cache[codes]


def _combine(children, forms: dict) -> dict:
    """The form c1*F(w1) + c2*F(w2) + ... of one step to the children
    [(w1, c1), (w2, c2), ...], with each F(w) read from `forms` (KeyError
    if one is missing).  A single child with coefficient ONE gives its
    form object itself."""
    if len(children) == 1 and children[0][1] is ONE:
        return forms[children[0][0]]
    form: dict[Word, QScalar] = {}
    for w, c in children:
        for nw, nc in forms[w].items():
            add_term(form, nw, nc if c is ONE else c * nc)
    return form


def normalize(e: Element, table) -> Element:
    """Reduce an element to its normal form under the table.

    Sorts each word whose inverted pairs are all swaps of `table.swaps`
    (or x/xinv, K/Kinv pairs), in one pass and one memo entry, and
    otherwise rewrites the leftmost out-of-order pair first, through the
    table's shared normal-form memo.  Linear over scalars and idempotent.
    Raises MissingRuleError when an out-of-order pair without a rule comes
    up during reduction.
    """
    cache = table.normal_form_cache("leftmost")
    terms: dict[Word, QScalar] = {}
    for w, c in e.terms():
        for nw, nc in _normal_form(w, table, cache, _pick_leftmost,
                                   None).items():
            add_term(terms, nw, c * nc)
    return Element._raw(terms)


def multiply(a: Element, b: Element, table) -> Element:
    """Product in the quotient algebra: concatenate, then normalize."""
    return normalize(concat(a, b), table)


def commutator(a: Element, b: Element, table) -> Element:
    return multiply(a, b, table) - multiply(b, a, table)


@dataclass(frozen=True)
class NormalizationReport:
    input: Element
    output: Element
    steps: int

    def __str__(self):
        return f"{self.input}  ~>  {self.output}   [{self.steps} steps]"


def normalize_report(e: Element, table) -> NormalizationReport:
    """Normalize leftmost-first while counting rule applications
    (uncached)."""
    agenda = list(e.terms())
    done: dict[tuple, QScalar] = {}
    steps = 0
    while agenda:
        codes, c = agenda.pop()
        positions = _positions(codes)
        if not positions:
            add_term(done, codes, c)
            continue
        steps += 1
        for nw, nc in _rewrite_at(codes, positions[0], table):
            agenda.append((nw, c * nc))
    output = Element._raw({Word(w): c for w, c in done.items()})
    return NormalizationReport(e, output, steps)


# ---------------------------------------------------------------------------
# local confluence sweep


@dataclass(frozen=True)
class ConfluenceReport:
    max_len: int
    strategies: tuple[str, ...]
    words_checked: int
    words_skipped: int
    divergences: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.divergences

    @property
    def results(self) -> tuple:
        """The verdict rows: a summary row, then one row per divergence."""
        summary = CheckResult(
            f"confluence length<={self.max_len} "
            f"strategies={','.join(self.strategies)}",
            self.passed,
            f"{self.words_checked} words checked, "
            f"{self.words_skipped} sequences skipped",
        )
        return (summary, *(CheckResult(f"divergence {word}", False,
                                       f"{sa} != {sb}")
                           for word, sa, sb in self.divergences))

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"{verdict} confluence: {self.words_checked} words of length <= "
            f"{self.max_len}, strategies {', '.join(self.strategies)}; "
            f"{self.words_skipped} skipped (uncovered letter pairs); "
            f"{len(self.divergences)} divergences"
        ]
        for word, sa, sb in self.divergences:
            lines.append(f"  {word}: {sa} and {sb} disagree")
        return "\n".join(lines)


def _coverage(table):
    """Unordered letter-pair coverage and per-pair introduced letters."""
    covered = set()
    introduces = {}
    for rule in table.rules:
        u, v = rule.left, rule.right
        covered.add(frozenset((u.name, v.name)))
        extra = set()
        for w in rule.rhs._terms:
            for let in w.letters():
                if let.name not in (u.name, v.name):
                    extra.add(let.name)
        introduces[(u.name, v.name)] = extra
    # merging handles the inverse pairs structurally
    covered.update(frozenset((g.name, g.inverse_name))
                   for g in LETTERS if g.inverse_name)
    return covered, introduces


def _closure_ok(names, covered, introduces):
    """Whether every pair reachable from the letter set `names` is covered."""
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


def _sweep_words(table, max_len: int):
    """The canonical code tuples of the sweep, and the count of letter
    sequences skipped because their letter closure hits a pair without a
    rule.

    Words are enumerated as letter-code sequences of length <= max_len,
    prefiltered by pairwise rule coverage (with introduced-letter closure).
    The closure verdict is memoized per letter set, kept as a bitmask of
    letter codes, and each sequence's canonical form extends its prefix's
    by one letter, which cancels or vanishes against the prefix's last.
    """
    letters = sorted({r.left.name for r in table.rules}
                     | {r.right.name for r in table.rules})
    covered, introduces = _coverage(table)
    ok_sets: dict[int, bool] = {}
    subtree = [1] * (max_len + 1)  # sequences rooted at depth d, incl. the root
    for d in range(max_len - 1, -1, -1):
        subtree[d] = 1 + len(letters) * subtree[d + 1]
    letter_codes = [(name, GENERATORS[name].position) for name in letters]
    words: list[tuple] = []
    seen: set[tuple] = set()
    skipped = 0
    # (length, letter mask, canonical form or None) of each prefix
    stack = [(0, 0, ())]
    while stack:
        depth, mask, prefix = stack.pop()
        depth += 1
        seam = _SEAM[prefix[-1]] if prefix else _NO_SEAM
        for _, code in letter_codes:
            m = mask | 1 << code
            ok = ok_sets.get(m)
            if ok is None:
                names = {n for n, c in letter_codes if m >> c & 1}
                ok = ok_sets[m] = _closure_ok(names, covered, introduces)
            if not ok:
                skipped += subtree[depth]
                continue
            if prefix is None:
                w = None
            elif seam[code]:
                w = None if prefix[-1] == code else prefix[:-1]
            else:
                w = prefix + (code,)
            if w is not None and w not in seen:
                seen.add(w)
                words.append(w)
            if depth < max_len:
                stack.append((depth, m, w))
    return words, skipped


def _closure_resolves(words, table, memo: dict) -> bool:
    """Whether every one-step reduct of every word reachable from `words`
    resolves to the word's leftmost form; fills `memo` with those forms.

    The walk rewrites each word at every out-of-order position, the
    leftmost first, so each form it stores is the one :func:`_normal_form`
    would store.  Its finished words are a fresh dict, not the memo: an
    entry from an earlier :func:`normalize` is trusted as the word's form,
    but the word's other steps are still checked against it.  A pair
    without a rule gives False, never raising.
    """
    try:
        return _walk(words, table, memo, {}, None, None)
    except MissingRuleError:
        return False


def _divergences(table, words, alternatives) -> tuple:
    """(Word, "leftmost", strategy) for every word of `words` whose normal
    form under one of the `alternatives` (name, pick, rng) differs from
    its leftmost form.

    When :func:`_closure_resolves` holds, every strategy reaches the
    leftmost form, so there is nothing to compare.  Otherwise leftmost and
    then each alternative, on a fresh cache, reduce every word, and a pair
    without a rule raises MissingRuleError from the first reduction that
    meets it.
    """
    cache = table.normal_form_cache("leftmost")
    if _closure_resolves(words, table, cache):
        return ()
    # Normal forms are compared as the memo dicts themselves: stored forms
    # are never mutated, so no copy is needed.
    reference = [_normal_form(w, table, cache, _pick_leftmost, None)
                 for w in words]
    divergences = []
    for strategy, pick, rng in alternatives:
        alt_cache: dict = {}
        for w, ref in zip(words, reference):
            if _normal_form(w, table, alt_cache, pick, rng) != ref:
                divergences.append((Word(w), "leftmost", strategy))
    return tuple(divergences)


def check_local_confluence(
    table, max_len: int, seeds=(1, 2, 3, 4, 5)
) -> ConfluenceReport:
    """Check that every coverable word of length <= max_len has one normal
    form under leftmost, rightmost and per-seed randomized strategies.

    The walk of :func:`_closure_resolves` stores each word's leftmost form
    in the table's leftmost memo and checks that every one-step reduct
    agrees with it, which proves that every strategy reaches that form.
    Only when it fails is every word reduced leftmost, and then under
    rightmost and each seeded random strategy, each with a fresh cache and
    its own `random.Random(seed)`; every word where one differs from
    leftmost is reported as a divergence.

    Words whose letter closure hits a pair without a rule are skipped
    (they cannot be normalized at all).  The sweep grows about 15-fold per
    letter (1,146,117 words at length 5 on the builtin table), so max_len
    runs from 3 to 5.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    if max_len > 5:
        raise ValueError("max_len must be at most 5")
    # (name, pick, rng) of each strategy compared against leftmost
    alternatives = [("rightmost", _pick_rightmost, None)] + [
        (f"random:{seed}", _pick_random, random.Random(seed))
        for seed in seeds
    ]
    words, skipped = _sweep_words(table, max_len)
    return ConfluenceReport(
        max_len=max_len,
        strategies=("leftmost", *(s for s, _, _ in alternatives)),
        words_checked=len(words),
        words_skipped=skipped,
        divergences=_divergences(table, words, alternatives),
    )
