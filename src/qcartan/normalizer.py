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
right-hand side stored once as ((word, coeff), ...), each monomial
coefficient the shared scalar of :func:`~qcartan.scalars.monomial`) and
splices codes[:i] + mid + codes[i+2:] for every term.  The two slices
and the compiled term are canonical already, so only a term whose seams
can cancel (x/xinv, K/Kinv) or vanish (a repeated form letter), as read
from a 24x24 table, goes through :func:`~qcartan.words.canonical_codes`.
Coefficients are QScalars whose integral coefficients are ints, so the
+-q**k rule coefficients multiply as machine integers into shared
monomials: a coefficient 1 is the ONE singleton and is not multiplied at
all, and equal coefficients are one object, so comparing two forms
compares them by identity.

Memos and the pending map of a reduction are keyed by code tuples,
Words or plain tuples alike, since both hash and compare as the tuple in
C.  Every normal form {Word: coeff} is keyed by Words: a word in normal
order is wrapped when its own form {Word(w): ONE} is stored, a sorted
word when the sorted form naming it is, and every other form sums
those.  Stored normal forms are never mutated, so they are shared: a
step to a single term with coefficient ONE stores its child's form
object, and :func:`normalize` returns Elements keyed by the memo's own
Word objects.  A table's normal-form memo is a :class:`FormMemo`, which
carries a share map of its forms: every empty form is one dict, and so
is every one-term form {W: c} of one value, looked up by id(c) and then
W, whether it was summed, sorted or a normal word's own.  A new form
enters the map only through :func:`_shared`.  :func:`_sort` first looks
a sorted form up there by its code tuple, so a word whose sorted form is
stored already builds no Word and no dict.  Keying by id is safe
because the map holds the form and the form holds c, and equal monomials
are one object, so equal values meet.  The map lives on its memo, so it
never outlives the forms it serves; the fresh caches of other strategies
are plain dicts and share nothing.  Forms of two or more terms are
stored as built.

A leftmost reduction first tries to sort the word (:func:`_sorted_form`):
when every inverted letter pair is a pure scaled swap b.a -> c a.b of the
table's `swaps`, or an x/xinv or K/Kinv pair, the form is the sorted
canonical word times the product of c**n over the inverted pairs, found
in one pass, as quantum affine space normal-orders.  The table's guard
(every letter's swaps against x and xinv, and against K and Kinv,
multiply to 1; else `swaps` is None and nothing sorts) makes that the
form every rewriting strategy reaches.  One function, :func:`_sort`,
sorts a word and stores its form.  :func:`_normal_form` calls it on a
word that misses the memo before anything else, so a word that sorts
costs one pass and never enters the walk, and :func:`_walk` calls it on
each new child as it pushes the children, so each word is scanned once.
One walk, :func:`_walk`, does every other reduction.  A word with an
inverted pair that is not a swap is rewritten; one such pair in a long
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
position it picked, which are their leftmost forms.  The walk uses the
sweep's word list as its stack and empties it, so each swept word's
tuple is held once, as its memo key.  Only when the sweep's walk stops
(steps that disagree, a pair without a rule) does it enumerate the words
again, in the same order, and reduce every word leftmost and then under
each other strategy, each with a fresh cache, to name which diverges
where, or to raise the MissingRuleError of the first reduction that
meets the pair.  The sweep reads its letters and their coverage from
the compiled rules alone (:func:`_closure_masks`).
"""

from __future__ import annotations

import random

from .report import CheckResult, Record
from .scalars import ONE, QScalar, monomial, summed
from .words import (_INVERSE, _NILPOTENT, _NO_SEAM, _SEAM, LETTERS, Element,
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


def _walk(roots: list, table, forms: dict, done: dict, pick, rng) -> bool:
    """Reduce every word reachable from `roots`; whether all steps agree.

    Iterative post-order over the rewrite dag: each unfinished word is
    rewritten once at `pick(word, positions, rng)`, or at every
    out-of-order position when `pick` is None, and waits in the pending
    map until the children of all its steps are in `done`.  When `pick`
    is leftmost and the table has `swaps`, each child not in `done` is
    sorted as it is pushed (:func:`_sort`, which stores its form), and
    one that sorts is finished without a step.  One that does not sort
    waits in the pending map with no steps yet, so another copy of it is
    not sorted again.  The roots are not sorted here: :func:`_normal_form`
    has tried them.  A finished word's form is `forms`' entry if there is
    one.  Else its new form is the first step's c1*F(w1) + c2*F(w2) + ...
    (:func:`_combine`), or {Word(w): ONE} for a word w in normal order,
    which is then finished under that same Word; it goes through
    :func:`_shared` (so a form of at most one term in a :class:`FormMemo`
    is the equal form stored before, if there is one) and is stored in
    `forms` and in `done`.  So every form is keyed by the Words of its
    normal words.  Every other step must give that same form, or the walk
    returns False at once; the forms stored by then stay.  A pair without
    a rule raises MissingRuleError.

    The caller hands `roots` over: the walk uses the list as its stack
    and pops each root once it is finished, or at once if it already was,
    so a root's tuple outlives the walk only as its own memo key.  A walk
    that returns True leaves the list empty.
    """
    swaps = table.swaps if pick is _pick_leftmost else None
    share = getattr(forms, "share", None)
    pending: dict[tuple, list] = {}
    stack = roots
    while stack:
        cur = stack[-1]
        if cur in done:
            stack.pop()
            continue
        steps = pending.pop(cur, None)
        if steps is None:
            positions = _positions(cur)
            if pick is not None and positions:
                positions = [pick(cur, positions, rng)]
            steps = [_rewrite_at(cur, i, table) for i in positions]
            todo = []
            for step in steps:
                for w, _ in step:
                    if w in done:
                        continue
                    if swaps is not None and w not in pending:
                        form = _sort(w, forms, swaps)
                        if form is not None:
                            done[w] = form
                            continue
                        pending[w] = None
                    todo.append(w)
            if todo:
                pending[cur] = steps
                stack.extend(todo)
                continue
        stack.pop()
        form = forms.get(cur)
        if form is None:
            if steps:
                form = _combine(steps[0], forms)
            else:
                cur = Word(cur)
                form = {cur: ONE}
            form = forms[cur] = _shared(form, share)
        done[cur] = form
        for step in steps[1:]:
            other = _combine(step, forms)
            if other is not form and other != form:
                return False
    return True


def _sorted_form(codes, swaps: dict) -> tuple | None:
    """(sorted word, coefficient) of a word whose letters sort, or None
    when some inverted letter pair is neither a swap of `swaps` nor an
    x/xinv or K/Kinv pair.

    One pass over the codes counts the letters seen so far; each letter b
    after n letters a > b multiplies the coefficient by their swap's c**n,
    and by 1 for an x/xinv or K/Kinv pair.  The sorted word is the sorted
    code tuple, put through :func:`~qcartan.words.canonical_codes` only
    when the pass saw a clash (a letter and its inverse, or a form letter
    twice), and None when it vanishes.  The coefficient is
    :func:`~qcartan.scalars.monomial`'s shared scalar, so a coefficient 1
    is the ONE singleton.
    """
    seen: dict[int, int] = {}
    half, coeff = 0, 1
    top = -1  # the largest letter seen: no letter b >= top is inverted
    for b in codes:
        if b < top:
            for a, n in seen.items():
                if a > b:
                    swap = swaps.get((a, b))
                    if swap is not None:
                        half += swap[0] * n
                        coeff *= swap[1] ** n
                    elif _INVERSE[a] != b:
                        return None
        else:
            top = b
        seen[b] = seen.get(b, 0) + 1
    w = tuple(sorted(codes))
    for a, n in seen.items():
        if _INVERSE[a] in seen or (n > 1 and _NILPOTENT[a]):
            w = canonical_codes(w)
            break
    return w, monomial(half, coeff)


def _sort(codes, forms: dict, swaps: dict) -> dict | None:
    """Sort a word (:func:`_sorted_form`) and store its form in `forms`;
    the form, or None, storing nothing, when the word does not sort.

    The one sort of :func:`_normal_form` and :func:`_walk`.  In a
    :class:`FormMemo` a form already in the share map is found there by
    its coefficient's id and then its code tuple, so it builds no Word
    and no dict; a new form {Word(w): c} enters the map through
    :func:`_shared`, as every form does.
    """
    sort = _sorted_form(codes, swaps)
    if sort is None:
        return None
    w, c = sort
    share = getattr(forms, "share", None)
    by_word = share.get(id(c)) if share else None
    form = by_word.get(w) if by_word else None
    if form is None:
        form = _shared({} if w is None else {Word(w): c}, share)
    forms[codes] = form
    return form


def _normal_form(codes: tuple, table, cache: dict, pick, rng) -> dict:
    """Memoized reduction of a single word; returns {Word: coeff}.

    The picked position is a function of the word (fixed once per cache),
    so each strategy is deterministic and safely memoizable: the cache is
    both the walk's forms and its finished words.  Under the leftmost
    strategy a word missing from the cache is sorted first, when the
    table has `swaps` (:func:`_sort`, which stores its form), and only a
    word that does not sort is walked.
    """
    form = cache.get(codes)
    if form is None:
        if pick is _pick_leftmost and table.swaps is not None:
            form = _sort(codes, cache, table.swaps)
        if form is None:
            _walk([codes], table, cache, cache, pick, rng)
            form = cache[codes]
    return form


def _combine(children, forms: dict) -> dict:
    """The form c1*F(w1) + c2*F(w2) + ... of one step to the children
    [(w1, c1), (w2, c2), ...], with each F(w) read from `forms` (KeyError
    if one is missing).  A single child with coefficient ONE gives its
    form object itself; :func:`_walk` shares a new form as it stores it."""
    if len(children) == 1 and children[0][1] is ONE:
        return forms[children[0][0]]
    form: dict[Word, QScalar] = {}
    for w, c in children:
        for nw, nc in forms[w].items():
            add_term(form, nw, nc if c is ONE else c * nc)
    return form


class FormMemo(dict):
    """A normal-form memo {codes: form} with the share map of its forms.

    `share` maps None to the memo's one empty form and id(c) to
    {W: {W: c}}, the memo's one form for each one-term value, sorted forms
    included.  Only :func:`_shared` inserts into it.  It lives on the
    memo, so it never outlives the forms it serves and never holds
    another memo's Words.
    """

    __slots__ = ("share",)

    def __init__(self):
        super().__init__()
        self.share: dict = {}


def _shared(form: dict, share: dict | None) -> dict:
    """The form stored in `share` equal to `form`, which has at most one
    term, storing `form` there when there is none; `form` itself when it
    has more terms or `share` is None.  The only code that inserts into a
    share map: :func:`_walk` stores every summed form and normal word's
    own form through it, and :func:`_sort` every new sorted form.

    One-term forms are looked up by the identity of their coefficient,
    then by their Word.  Keying by id is safe because the map holds the
    form and the form holds the coefficient, so the id is not reused
    while the entry lives; and since equal monomials are one object
    (:func:`~qcartan.scalars.monomial`), equal values meet.
    """
    if share is None or len(form) > 1:
        return form
    if not form:
        return share.setdefault(None, form)
    (w, c), = form.items()
    by_word = share.get(id(c))
    if by_word is None:
        by_word = share[id(c)] = {}
    return by_word.setdefault(w, form)


def normalize(e: Element, table) -> Element:
    """Reduce an element to its normal form under the table.

    Sorts each word whose inverted pairs are all swaps of `table.swaps`
    (or x/xinv, K/Kinv pairs), in one pass and one memo entry, and
    otherwise rewrites the leftmost out-of-order pair first, through the
    table's shared normal-form memo.  Linear over scalars and idempotent.
    Raises MissingRuleError when an out-of-order pair without a rule comes
    up during reduction.

    A normal word's first coefficient is kept as it is, so a shared
    monomial stays shared; from the second on, the word's
    {half_exponent: rational} map is summed in place and frozen once at
    the end (:func:`~qcartan.scalars.summed`), and a word whose sum is
    zero is dropped.
    """
    cache = table.normal_form_cache("leftmost")
    terms: dict[Word, QScalar] = {}
    sums: dict[Word, dict] = {}
    for w, c in e.terms():
        for nw, nc in _normal_form(w, table, cache, _pick_leftmost,
                                   None).items():
            if c is not ONE:
                nc = c * nc
            prev = terms.get(nw)
            if prev is None:
                terms[nw] = nc
                continue
            acc = sums.get(nw)
            if acc is None:
                acc = sums[nw] = dict(prev._terms)
            for h, x in nc._terms.items():
                acc[h] = acc.get(h, 0) + x
    for nw, acc in sums.items():
        s = summed(acc)
        if s:
            terms[nw] = s
        else:
            del terms[nw]
    return Element._raw(terms)


def multiply(a: Element, b: Element, table) -> Element:
    """Product in the quotient algebra: concatenate, then normalize."""
    return normalize(concat(a, b), table)


def commutator(a: Element, b: Element, table) -> Element:
    return multiply(a, b, table) - multiply(b, a, table)


class NormalizationReport(Record):
    """An input, its leftmost normal form and the number of rule
    applications between them; an immutable :class:`Record`."""

    __slots__ = ("input", "output", "steps")

    def __init__(self, input: Element, output: Element, steps: int):
        self._fill(input, output, steps)

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


class ConfluenceReport(Record):
    """The verdict of a confluence sweep, an immutable :class:`Record`:
    the words checked and the letter sequences skipped up to max_len, and
    each divergence as (word, form under one strategy, form under
    another)."""

    __slots__ = ("max_len", "strategies", "words_checked", "words_skipped",
                 "divergences")

    def __init__(self, max_len: int, strategies: tuple[str, ...],
                 words_checked: int, words_skipped: int,
                 divergences: tuple = ()):
        self._fill(max_len, strategies, words_checked, words_skipped,
                   divergences)

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


def _closure_masks(table):
    """The two tables :func:`_close` reads, indexed by letter code a, from
    one pass over `table.compiled`: uncovered[a], the mask of the letters
    b != a whose pair with a has no rule either way (an x/xinv or K/Kinv
    pair cancels, so it counts as covered), and intro[a], {b: codes other
    than a and b in the terms of the rule for a . b or b . a}."""
    covered = [1 << a | (1 << b if b >= 0 else 0)
               for a, b in enumerate(_INVERSE)]
    intro: list[dict[int, list]] = [{} for _ in LETTERS]
    for (a, b), rhs in table.compiled.items():
        covered[a] |= 1 << b
        covered[b] |= 1 << a
        extra = {c for w, _ in rhs for c in w} - {a, b}
        intro[a].setdefault(b, []).extend(extra)
        intro[b].setdefault(a, []).extend(extra)
    every = (1 << len(LETTERS)) - 1
    return [every & ~m for m in covered], intro


def _close(closed: int, code: int, uncovered, intro) -> int | None:
    """The closure of the letter set closed | {code} under the letters
    rules introduce, as a mask, or None when it holds a pair without a
    rule.

    `closed` must be a closure whose pairs all have rules (0 is one), so
    only pairs with a letter added here are checked: the closure of
    close(S) | {a} is the closure of S | {a}.
    """
    mask, todo = closed, [code]
    while todo:
        a = todo.pop()
        if mask >> a & 1:
            continue
        if uncovered[a] & mask:
            return None
        mask |= 1 << a
        for b, extra in intro[a].items():
            if mask >> b & 1:
                todo.extend(extra)
    return mask


def _sweep_words(table, max_len: int):
    """The canonical code tuples of the sweep, and the count of letter
    sequences skipped because their letter closure hits a pair without a
    rule.

    The letters are those of the keys of `table.compiled`, in name order,
    which fixes the order of the words, the walk and the divergences.
    Words are enumerated as letter-code sequences of length <= max_len,
    prefiltered by pairwise rule coverage (with introduced-letter closure).
    Each prefix carries the closure of its letters as a bitmask of letter
    codes; a letter inside it changes nothing, and the closure with any
    other letter is extended from the prefix's (:func:`_close`) once per
    resulting letter set.  Each sequence's canonical form extends its
    prefix's by one letter, which cancels or vanishes against the
    prefix's last.
    """
    letters = sorted({c for pair in table.compiled for c in pair},
                     key=lambda c: LETTERS[c].name)
    uncovered, intro = _closure_masks(table)
    closures: dict[int, int | None] = {}
    subtree = [1] * (max_len + 1)  # sequences rooted at depth d, incl. the root
    for d in range(max_len - 1, -1, -1):
        subtree[d] = 1 + len(letters) * subtree[d + 1]
    words: list[tuple] = []
    seen: set[tuple] = set()
    skipped = 0
    # (length, closure mask, canonical form or None) of each prefix
    stack = [(0, 0, ())]
    while stack:
        depth, closed, prefix = stack.pop()
        depth += 1
        seam = _SEAM[prefix[-1]] if prefix else _NO_SEAM
        for code in letters:
            closure = closed
            if not closed >> code & 1:
                m = closed | 1 << code
                if m not in closures:
                    closures[m] = _close(closed, code, uncovered, intro)
                closure = closures[m]
                if closure is None:
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
                stack.append((depth, closure, w))
    return words, skipped


def _closure_resolves(words: list, table, memo: dict) -> bool:
    """Whether every one-step reduct of every word reachable from `words`
    resolves to the word's leftmost form; fills `memo` with those forms.

    The walk rewrites each word at every out-of-order position, the
    leftmost first, so each form it stores is the one :func:`_normal_form`
    would store.  Its finished words are a fresh dict, not the memo: an
    entry from an earlier :func:`normalize` is trusted as the word's form,
    but the word's other steps are still checked against it.  The walk
    consumes `words` as its stack (:func:`_walk`), so a caller that needs
    the words afterwards passes a copy.  A pair without a rule gives
    False, never raising.
    """
    try:
        return _walk(words, table, memo, {}, None, None)
    except MissingRuleError:
        return False


def _divergences(table, words, alternatives) -> tuple:
    """(Word, "leftmost", strategy) for every word of `words` whose normal
    form under one of the `alternatives` (name, pick, rng) differs from
    its leftmost form.

    Leftmost, through the table's memo, and then each alternative, on a
    fresh cache, reduce every word; a pair without a rule raises
    MissingRuleError from the first reduction that meets it.
    """
    cache = table.normal_form_cache("leftmost")
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


# The longest words the confluence sweep takes: it grows about 15-fold
# per letter (1,146,117 words at length 5 on the builtin table).
MAX_SWEEP_LEN = 5


def check_sweep_length(max_len: int) -> None:
    """Raise ValueError unless 3 <= max_len <= MAX_SWEEP_LEN."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    if max_len > MAX_SWEEP_LEN:
        raise ValueError(f"max_len must be at most {MAX_SWEEP_LEN}")


def check_local_confluence(
    table, max_len: int, seeds=(1, 2, 3, 4, 5)
) -> ConfluenceReport:
    """Check that every coverable word of length <= max_len has one normal
    form under leftmost, rightmost and per-seed randomized strategies.

    The walk of :func:`_closure_resolves` stores each word's leftmost form
    in the table's leftmost memo and checks that every one-step reduct
    agrees with it, which proves that every strategy reaches that form.
    The walk consumes the enumerated list, so each word's tuple is held
    once, as its memo key.  Only when the walk fails are the words
    enumerated again (the enumeration is deterministic, so they come in
    the same order) and reduced leftmost, and then under rightmost and
    each seeded random strategy, each with a fresh cache and its own
    `random.Random(seed)`; every word where one differs from leftmost is
    reported as a divergence (:func:`_divergences`).

    Words whose letter closure hits a pair without a rule are skipped
    (they cannot be normalized at all).  max_len runs from 3 to
    MAX_SWEEP_LEN (:func:`check_sweep_length`).
    """
    check_sweep_length(max_len)
    # (name, pick, rng) of each strategy compared against leftmost
    alternatives = [("rightmost", _pick_rightmost, None)] + [
        (f"random:{seed}", _pick_random, random.Random(seed))
        for seed in seeds
    ]
    words, skipped = _sweep_words(table, max_len)
    checked = len(words)
    if _closure_resolves(words, table, table.normal_form_cache("leftmost")):
        divergences = ()
    else:
        # the walk consumed the list; the enumeration gives the same words
        words, _ = _sweep_words(table, max_len)
        divergences = _divergences(table, words, alternatives)
    return ConfluenceReport(
        max_len=max_len,
        strategies=("leftmost", *(s for s, _, _ in alternatives)),
        words_checked=checked,
        words_skipped=skipped,
        divergences=divergences,
    )
