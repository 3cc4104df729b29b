"""Tensor-square/cube arithmetic and Hopf structures.

Two presentations ship here: the coordinate algebra (group-like x, the
twisted primitive y, the primitive z) and the Lie-generator algebra with
the group-like K = q**Tx that makes its coproducts finite expressions.
The duality module builds a third presentation on the same machinery.
All Hopf-carrying letters have form degree zero, so tensor slots multiply
and normalize independently with no crossing signs.  A tensor's linear
structure is :class:`~qcartan.words.Linear`'s, as an element's is.

Coproduct, counit and antipode are one fold, :meth:`HopfPresentation.fold`,
which extends a map's letter images over a word one signed letter at a
time (a power is its letter repeated): from the tensor unit with
:func:`tensor_mul`, from 1 with the scalar product, and from the unit
element with :func:`~qcartan.normalizer.multiply` right to left.  The
products are looked up by name each time a fold runs, never held on a
presentation, so a tracer that rebinds them sees every call.  The coproduct
and the antipode of each word are computed once per presentation and
kept in the relation table's "coproduct" and "antipode" memos through
the one memoized loop, :func:`~qcartan.words.linear_image`, keyed by the
presentation object itself and the word, so two presentations never
share an entry, even under one name; each map wraps the loop's terms as
its own result.  Tensor slots multiply with
:func:`~qcartan.normalizer.multiply`.
"""

from __future__ import annotations

from functools import cache
from operator import mul

from .scalars import ONE, QScalar
from .words import (EMPTY_WORD, GENERATORS, Element, Linear, Word, add_term,
                    canonical_codes, concat, linear_image)
from .normalizer import multiply, normalize
from .report import CheckReport, CheckResult, Record


class TensorElement(Linear):
    """Linear combination of word tuples (arity 2 or 3), slotwise canonical.

    Its linear structure is :class:`~qcartan.words.Linear`'s, between
    tensors of one arity.
    """

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms=None):
        if arity not in (2, 3):
            raise ValueError("tensor arity must be 2 or 3")
        self.arity = arity
        super().__init__(terms)

    @classmethod
    def _raw(cls, arity, terms):
        """Wrap a map already free of zero coefficients; checks the arity."""
        t = cls(arity)
        t._terms = terms
        return t

    def _like(self, terms):
        return TensorElement._raw(self.arity, terms)

    def _kind(self):
        return TensorElement, self.arity

    @classmethod
    def unit(cls, arity: int) -> "TensorElement":
        return cls(arity, {(EMPTY_WORD,) * arity: ONE})

    def __str__(self):
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda k: tuple(w.sort_key() for w in k))
        parts = []
        for k in keys:
            c = self._terms[k]
            body = " (x) ".join(str(w) for w in k)
            parts.append(body if c == ONE else f"({c}) {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"TensorElement({self})"


def _add_outer(out: dict, elements, scale=None) -> None:
    """Add the outer product of the elements, times scale, into out."""
    first, *rest = elements
    acc = [((w,), c) for w, c in first.terms()]
    for e in rest:
        acc = [(key + (w,), kc * c) for key, kc in acc for w, c in e.terms()]
    for key, c in acc:
        add_term(out, key, c if scale is None else c * scale)


def tensor(*elements: Element) -> TensorElement:
    """Outer product of 2 or 3 elements."""
    out = {}
    _add_outer(out, elements)
    return TensorElement._raw(len(elements), out)


def tensor_mul(a: TensorElement, b: TensorElement, table) -> TensorElement:
    """(u1 (x) u2)(v1 (x) v2) = u1 v1 (x) u2 v2, slots normalized."""
    if a.arity != b.arity:
        raise ValueError("tensor arities differ")
    out = {}
    for ka, ca in a.terms():
        for kb, cb in b.terms():
            slots = [multiply(Element.from_word(wa), Element.from_word(wb),
                              table) for wa, wb in zip(ka, kb)]
            _add_outer(out, slots, ca * cb)
    return TensorElement._raw(a.arity, out)


def map_slot(t: TensorElement, slot: int, fn) -> TensorElement:
    """Replace the word in one slot by its image under fn, linearly.

    fn maps a word to an Element, which keeps the arity, or to a
    TensorElement (a coproduct, say), whose slots are spliced in place of
    the one slot, so the arity grows by the image's arity minus one.
    """
    out = {}
    arity = t.arity
    for key, c in t.terms():
        img = fn(key[slot])
        if isinstance(img, TensorElement):
            arity = t.arity - 1 + img.arity
            pieces = img.terms()
        else:
            pieces = (((w,), ic) for w, ic in img.terms())
        head, tail = key[:slot], key[slot + 1:]
        for ikey, ic in pieces:
            add_term(out, head + ikey + tail, c * ic)
    return TensorElement._raw(arity, out)


class HopfPresentation(Record):
    """Generator images of coproduct, counit and antipode for one algebra.

    Maps are keyed by signed letter name, and :meth:`fold` extends one of
    them over a word: multiplicatively for the coproduct and counit,
    anti-multiplicatively for the antipode.  An immutable
    :class:`Record` whose equality and hashing are by identity: memoized
    coproducts are stored under the presentation object, not under its
    name.
    """

    __slots__ = ("name", "letters", "delta", "eps", "antipode_map")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, letters: tuple[str, ...], delta: dict,
                 eps: dict, antipode_map: dict):
        self._fill(name, letters, delta, eps, antipode_map)

    def fold(self, word: Word, images: dict, unit, product, reverse=False):
        """product(...product(unit, images[a1])..., images[an]) over the
        signed letters a1 ... an of word, one per unit power, taken
        right to left when reverse is set.  Every letter is checked
        first; the leftmost one outside the presentation is named."""
        names = [g.name for g in word.letters()]
        for name in names:
            if name not in self.delta:
                raise ValueError(f"letter {name} is outside the "
                                 f"{self.name} presentation")
        acc = unit
        for name in reversed(names) if reverse else names:
            acc = product(acc, images[name])
        return acc


def _coordinate_presentation() -> HopfPresentation:
    x = Element.from_letter("x")
    xinv = Element.from_letter("x", -1)
    y = Element.from_letter("y")
    z = Element.from_letter("z")
    one = Element.one()
    delta = {
        "x": tensor(x, x),
        "xinv": tensor(xinv, xinv),  # forced by group-likeness of x
        "y": tensor(x, y) + tensor(y, x),
        "z": tensor(z, one) + tensor(one, z),
    }
    eps = {"x": ONE, "xinv": ONE, "y": QScalar.zero(), "z": QScalar.zero()}
    antipode = {
        "x": xinv,
        "xinv": x,
        "y": -concat(concat(xinv, y), xinv),
        "z": -z,
    }
    return HopfPresentation("A", ("x", "xinv", "y", "z"), delta, eps, antipode)


def _lie_presentation() -> HopfPresentation:
    tx = Element.from_letter("Tx")
    ty = Element.from_letter("Ty")
    tz = Element.from_letter("Tz")
    k = Element.from_letter("K")
    kinv = Element.from_letter("K", -1)
    one = Element.one()
    delta = {
        "Tx": tensor(tx, one) + tensor(one, tx),
        "Ty": tensor(ty, one) + tensor(k, ty),
        "Tz": tensor(tz, one) + tensor(k, tz),
        "K": tensor(k, k),
        "Kinv": tensor(kinv, kinv),
    }
    zero = QScalar.zero()
    eps = {"Tx": zero, "Ty": zero, "Tz": zero, "K": ONE, "Kinv": ONE}
    antipode = {
        "Tx": -tx,
        "Ty": -concat(kinv, ty),
        "Tz": -concat(kinv, tz),
        "K": kinv,
        "Kinv": k,
    }
    return HopfPresentation("U", ("Tx", "Ty", "Tz", "K", "Kinv"),
                            delta, eps, antipode)


@cache
def _presentations() -> dict[str, HopfPresentation]:
    return {"A": _coordinate_presentation(), "U": _lie_presentation()}


def presentation(alg) -> HopfPresentation:
    if isinstance(alg, HopfPresentation):
        return alg
    try:
        return _presentations()[alg]
    except KeyError:
        raise ValueError(f"unknown Hopf presentation {alg!r}") from None


def coproduct(alg, e: Element, table) -> TensorElement:
    """Multiplicative extension of the generator coproducts, summed over
    the terms of e from the per-word coproducts in the table's memo,
    under the key (presentation, word)."""
    pres = presentation(alg)

    def word_coproduct(word):
        return pres.fold(word, pres.delta, TensorElement.unit(2),
                         lambda a, b: tensor_mul(a, b, table))

    return TensorElement._raw(2, linear_image(
        e._terms, table.memo("coproduct"), word_coproduct, pres))


def counit(alg, e: Element) -> QScalar:
    """Multiplicative-linear extension of the generator counits."""
    pres = presentation(alg)
    total = QScalar.zero()
    for word, coeff in e.terms():
        total = total + coeff * pres.fold(word, pres.eps, ONE, mul)
    return total


def antipode(alg, e: Element, table) -> Element:
    """Anti-multiplicative extension of the generator antipodes, summed
    over the terms of e from the per-word antipodes in the table's memo,
    under the key (presentation, word)."""
    pres = presentation(alg)

    def word_antipode(word):
        return pres.fold(word, pres.antipode_map, Element.one(),
                         lambda a, b: multiply(a, b, table), reverse=True)

    return Element._raw(linear_image(e._terms, table.memo("antipode"),
                                     word_antipode, pres))


# ---------------------------------------------------------------------------
# axiom sweep

def _letter_products(names, max_len: int):
    """All products of the named letters up to the given length."""
    letters = [GENERATORS[name].position for name in names]
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for seq in frontier:
            for c in letters:
                new = seq + (c,)
                codes = canonical_codes(new)
                if codes is not None:
                    nxt.append(new)
                    words.append(codes)
        frontier = nxt
    return [Word(codes) for codes in dict.fromkeys(words)]


def check_hopf_axioms(alg, max_len: int, table) -> CheckReport:
    """Coassociativity, counit and antipode laws, and the homomorphism
    property of the coproduct, on all letter products up to max_len."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    pres = presentation(alg)
    words = _letter_products(pres.letters, max_len)
    results = []
    delta = {}
    for w in words:
        e = normalize(Element.from_word(w), table)
        d = coproduct(pres, e, table)
        delta[w] = d

        cop_left = map_slot(d, 0, lambda wd: coproduct(pres, Element.from_word(wd), table))
        cop_right = map_slot(d, 1, lambda wd: coproduct(pres, Element.from_word(wd), table))
        results.append(CheckResult.compare(
            f"{pres.name} coassociativity {w}", cop_left, cop_right))

        collapse_l = Element.zero()
        collapse_r = Element.zero()
        for (w1, w2), c in d.terms():
            collapse_l = collapse_l + (c * counit(pres, Element.from_word(w1))) * Element.from_word(w2)
            collapse_r = collapse_r + (c * counit(pres, Element.from_word(w2))) * Element.from_word(w1)
        ok = collapse_l == e and collapse_r == e
        results.append(CheckResult(
            f"{pres.name} counit law {w}", ok,
            "" if ok else f"{collapse_l} / {collapse_r} != {e}"))

        target = Element.scalar(counit(pres, e))
        left = Element.zero()
        right = Element.zero()
        for (w1, w2), c in d.terms():
            left = left + c * multiply(antipode(pres, Element.from_word(w1), table),
                                       Element.from_word(w2), table)
            right = right + c * multiply(Element.from_word(w1),
                                         antipode(pres, Element.from_word(w2), table),
                                         table)
        ok = left == target and right == target
        results.append(CheckResult(
            f"{pres.name} antipode law {w}", ok,
            "" if ok else f"{left} / {right} != {target}"))

    # homomorphism property on pairs
    for a in words:
        if a.is_empty():
            continue
        for b in words:
            if b.is_empty() or len(a) + len(b) > max_len:
                continue
            ea, eb = Element.from_word(a), Element.from_word(b)
            lhs = coproduct(pres, multiply(ea, eb, table), table)
            rhs = tensor_mul(delta[a], delta[b], table)
            results.append(CheckResult.compare(
                f"{pres.name} coproduct homomorphism {a} | {b}", lhs, rhs))
    return CheckReport(f"Hopf axioms ({pres.name})", tuple(results))
