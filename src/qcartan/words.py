"""Generator alphabet, noncommutative words, and their linear spans.

The alphabet covers the coordinates of the quantum 3d space together with
their differentials, Cartan-Maurer one-forms, partial derivatives, the
tangent/Lie generators, the group-like pair K = q**Tx and its inverse, the
inner derivations and the Lie derivatives.  Normal order is by sector,

    FORM < COORD < PARTIAL < LIE < GROUPLIKE < INNER < LIEDERIV,

and alphabetically inside each sector; every commutation rule of the
calculus moves letters toward this order.

A word is its letter codes: :class:`Word` is a tuple of the positions of
its signed letters, one per unit power (x**-2*y is (6, 6, 8), since xinv
sits just before x).  Normal order is then plain integer order of
adjacent codes, and :func:`canonical_codes` brings any code sequence to
canonical form in one integer pass.  It is the one place where letters
cancel or vanish: the rewrite kernel in :mod:`qcartan.normalizer` and
every other builder of words splice code tuples through it, and the
kernel, :func:`make_word` and :func:`concat` skip it where no seam can
cancel or vanish.  The engine reads a word letter by letter, as the tuple
it is or through ``word.letters()``: d, the operator words, the Hopf maps
and the pairing are all defined one letter at a time.  d, the actions,
the operator words' letter steps, the coproduct and the antipode read
and fill their memos through one loop, :func:`linear_image`, and its two
folds, :func:`linear_steps` and :func:`linear_sum`.  The (Generator,
exponent) factor view serves printing and input only: it is derived from
the codes when a word is printed, and :func:`make_word` checks written
powers and expands them to codes.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from itertools import groupby, repeat

from .report import Record
from .scalars import ONE, QScalar


class Sector(IntEnum):
    FORM = 0
    COORD = 1
    PARTIAL = 2
    LIE = 3
    GROUPLIKE = 4
    INNER = 5
    LIEDERIV = 6


# Sectors whose letters act like vector fields: they annihilate the unit,
# so words ending in them are dropped by operator application.
OPERATOR_SECTORS = frozenset(
    (Sector.PARTIAL, Sector.LIE, Sector.INNER, Sector.LIEDERIV)
)
# Sectors outside the function/form subalgebra: all but FORM and COORD.
NON_FORM_SECTORS = frozenset(Sector) - {Sector.FORM, Sector.COORD}


class Generator(Record):
    """One letter of the alphabet, an immutable :class:`Record`.

    Generators are singletons (:data:`GENERATORS`), so equality and
    hashing are by identity.  For x and K, inverse_name is the alias
    letter naming the inverse power (and back).  The repr is the name.
    """

    __slots__ = ("name", "sector", "form_degree", "position",
                 "inverse_name", "is_alias")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, sector: Sector, form_degree: int,
                 position: int, inverse_name: str | None = None,
                 is_alias: bool = False):
        self._fill(name, sector, form_degree, position, inverse_name,
                   is_alias)

    def __repr__(self):
        return self.name


def _build_alphabet():
    entries = [
        # FORM
        ("dx", Sector.FORM, 1), ("dy", Sector.FORM, 1), ("dz", Sector.FORM, 1),
        ("wx", Sector.FORM, 1), ("wy", Sector.FORM, 1), ("wz", Sector.FORM, 1),
        # COORD (xinv sorts before x so inverse powers lead)
        ("xinv", Sector.COORD, 0), ("x", Sector.COORD, 0),
        ("y", Sector.COORD, 0), ("z", Sector.COORD, 0),
        # PARTIAL
        ("px", Sector.PARTIAL, 0), ("py", Sector.PARTIAL, 0), ("pz", Sector.PARTIAL, 0),
        # LIE
        ("Tx", Sector.LIE, 0), ("Ty", Sector.LIE, 0), ("Tz", Sector.LIE, 0),
        # GROUPLIKE
        ("K", Sector.GROUPLIKE, 0), ("Kinv", Sector.GROUPLIKE, 0),
        # INNER
        ("ix", Sector.INNER, -1), ("iy", Sector.INNER, -1), ("iz", Sector.INNER, -1),
        # LIEDERIV
        ("Lx", Sector.LIEDERIV, 0), ("Ly", Sector.LIEDERIV, 0), ("Lz", Sector.LIEDERIV, 0),
    ]
    inverses = {"x": "xinv", "xinv": "x", "K": "Kinv", "Kinv": "K"}
    aliases = {"xinv", "Kinv"}
    letters = {}
    for pos, (name, sector, deg) in enumerate(entries):
        letters[name] = Generator(
            name=name,
            sector=sector,
            form_degree=deg,
            position=pos,
            inverse_name=inverses.get(name),
            is_alias=name in aliases,
        )
    return letters


GENERATORS: dict[str, Generator] = _build_alphabet()

# Largest |exponent| a written power may carry.  A word stores one letter
# code per unit power, so the cap bounds the memory a single power can ask
# for; it applies to every '^' in expressions and relation files.
MAX_EXPONENT = 100_000

# Per letter code (a letter's position): the letter, the generator it is a
# power of and the sign of that power, the code that cancels it (-1 if
# none) and whether its square vanishes.
LETTERS = tuple(sorted(GENERATORS.values(), key=lambda g: g.position))
_BASE = tuple(GENERATORS[g.inverse_name] if g.is_alias else g for g in LETTERS)
_SIGN = tuple(-1 if g.is_alias else 1 for g in LETTERS)
_INVERSE = tuple(
    GENERATORS[g.inverse_name].position if g.inverse_name else -1
    for g in LETTERS
)
_NILPOTENT = tuple(g.form_degree != 0 for g in LETTERS)
# The codes of the OPERATOR_SECTORS letters and of the coordinate
# letters, so a word is tested with OPERATOR_CODES.isdisjoint(word) or
# COORD_CODES.issuperset(word) instead of building its sectors.
OPERATOR_CODES = frozenset(g.position for g in LETTERS
                           if g.sector in OPERATOR_SECTORS)
COORD_CODES = frozenset(g.position for g in LETTERS
                        if g.sector is Sector.COORD)
# _SEAM[a][b]: whether letter b right after letter a cancels (x/xinv,
# K/Kinv) or vanishes (a repeated form letter).  The relation is symmetric.
_SEAM = tuple(
    tuple(b == _INVERSE[a] or (a == b and _NILPOTENT[a])
          for b in range(len(LETTERS)))
    for a in range(len(LETTERS))
)
_NO_SEAM = (False,) * len(LETTERS)


def generator(name: str) -> Generator:
    try:
        return GENERATORS[name]
    except KeyError:
        raise KeyError(f"unknown generator name {name!r}") from None


class Word(tuple):
    """A canonical product of generator powers: the tuple of its letter codes.

    A word is the positions of its signed letters, one per unit power, so
    x**-2*y is (6, 6, 8).  The tuple is canonical (adjacent x/xinv and
    K/Kinv cancelled, no form letter repeated next to itself).  Equality,
    the hash and ``len`` are the tuple's, so a Word and a plain tuple with
    the same codes are the same dict key, and the empty word is falsy.
    Only ``<``, which sorting uses, is not the tuple's: it is the printed
    order of :meth:`sort_key`.  `factors` views the same word as
    (Generator, exponent) pairs with nonzero exponents, adjacent equal
    generators merged, negative exponents only on x and K, and
    wedge-nilpotent letters (form degree != 0) carrying exponent 1; it is
    derived from the codes when read.  Construct through
    :func:`make_word`, or from codes that :func:`canonical_codes`
    returned; the constructor trusts its input.
    """

    __slots__ = ()

    @property
    def factors(self) -> tuple:
        return tuple((_BASE[c], _SIGN[c] * n) for c, n in _runs(self))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        """(position, |exponent|) per factor: the printed term order, in
        which x*y sorts before x**2."""
        return tuple(_runs(self))

    def is_empty(self) -> bool:
        return len(self) == 0

    def form_degree(self) -> int:
        return sum(LETTERS[c].form_degree for c in self)

    def letters(self):
        """The signed letters of the word, one per unit power."""
        return [LETTERS[c] for c in self]

    def sectors(self):
        return {LETTERS[c].sector for c in self}

    def __str__(self):
        return self.format("*")

    def format(self, sep: str) -> str:
        """The factors, `name` or `name^exp`, joined by sep; "1" if empty."""
        if self.is_empty():
            return "1"
        return sep.join(
            g.name if e == 1 else f"{g.name}^{e}" for g, e in self.factors
        )

    def __repr__(self):
        return f"Word({self})"


def _runs(codes):
    """(code, run length) for each maximal run of equal codes."""
    return [(c, len(list(run))) for c, run in groupby(codes)]


EMPTY_WORD = Word(())


def canonical_codes(codes) -> tuple | None:
    """The canonical code tuple of a letter-code sequence, or None if 0.

    One pass with a stack: adjacent x/xinv and K/Kinv cancel (cascading
    outward), and a form letter meeting itself makes the monomial vanish.
    This is the engine's only rule for cancelling and vanishing letters;
    :func:`make_word` and every splice of code tuples go through it.
    """
    out = []
    for c in codes:
        if out:
            top = out[-1]
            if top == c:
                if _NILPOTENT[c]:
                    return None
            elif top == _INVERSE[c]:
                out.pop()
                continue
        out.append(c)
    return tuple(out)


def make_word(pairs) -> Word | None:
    """Build the canonical word for a factor sequence, or None if it is 0.

    Accepts generator objects or names; xinv/Kinv fold into negative powers
    of x/K.  Every factor is checked (an integer exponent within
    MAX_EXPONENT, negative only on x and K) before the word is formed, and
    expanded to its letter codes; zero powers are skipped.  The codes go
    through :func:`canonical_codes` only when a seam between factors can
    cancel or vanish, or a form letter is raised to a power; a monomial
    that vanishes is reported as None.
    """
    codes = []
    clash = False
    for g, e in pairs:
        if isinstance(g, str):
            g = generator(g)
        if g.is_alias:
            g = GENERATORS[g.inverse_name]
            e = -e
        if e == 0:
            continue
        if not isinstance(e, int):
            raise ValueError(f"exponent {e!r} of {g.name} is not an integer")
        if not -MAX_EXPONENT <= e <= MAX_EXPONENT:
            raise ValueError(
                f"exponent {e} of {g.name} exceeds the limit {MAX_EXPONENT}"
            )
        c = g.position
        if e < 0:
            c = _INVERSE[c]
            if c < 0:
                raise ValueError(f"negative power of {g.name} is not defined")
            e = -e
        if (codes and _SEAM[codes[-1]][c]) or (e > 1 and _NILPOTENT[c]):
            clash = True
        codes.extend(repeat(c, e))
    if not clash:
        return Word(codes)
    codes = canonical_codes(codes)
    return None if codes is None else Word(codes)


def add_term(terms: dict, key, c) -> None:
    """Add c into terms[key], deleting the key when the sum is zero.

    The one accumulate path for the engine's sparse maps with QScalar
    values: elements keyed by words, tensors keyed by word tuples, and
    normal forms.  Adding zero to an absent key stores nothing, so a map
    built only through this helper never holds a zero coefficient.
    QScalar keeps its own loops over {half_exponent: coefficient}: each
    coefficient there passes through ``scalars._exact`` so that integral
    values stay ints, and sharing this helper would make it branch on
    its caller.  :func:`~qcartan.normalizer.normalize` sums a normal
    word's later coefficients on such a map, in place, and makes it a
    QScalar once (``scalars.summed``).
    """
    prev = terms.get(key)
    s = c if prev is None else prev + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def single(name: str, exponent: int = 1) -> Word:
    w = make_word([(name, exponent)])
    assert w is not None
    return w


class Element:
    """A finite linear combination of words with QScalar coefficients.

    Canonical: no zero coefficients are stored, equality is map equality.
    Scalar multiples use ``*``; products of elements need a relation table
    and live in :mod:`qcartan.normalizer`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {}
        for w, c in (terms or {}).items():
            if w is not None:
                add_term(self._terms, w, c)

    @classmethod
    def _raw(cls, terms: dict) -> "Element":
        e = cls.__new__(cls)
        e._terms = terms
        return e

    @classmethod
    def zero(cls) -> "Element":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Element":
        return cls._raw({EMPTY_WORD: ONE})

    @classmethod
    def scalar(cls, c) -> "Element":
        c = c if isinstance(c, QScalar) else QScalar.rational(c)
        return cls._raw({EMPTY_WORD: c} if c else {})

    @classmethod
    def from_word(cls, word: Word | None, coeff=ONE) -> "Element":
        coeff = coeff if isinstance(coeff, QScalar) else QScalar.rational(coeff)
        if word is None or not coeff:
            return cls._raw({})
        return cls._raw({word: coeff})

    @classmethod
    def from_letter(cls, name: str, exponent: int = 1) -> "Element":
        return cls.from_word(make_word([(name, exponent)]))

    # -- queries -----------------------------------------------------

    def terms(self):
        return self._terms.items()

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, Element) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset((w, c) for w, c in self._terms.items()))

    def coefficient(self, word: Word) -> QScalar:
        return self._terms.get(word, QScalar.zero())

    def form_degree(self) -> int | None:
        """Common form degree of all terms; None if mixed, 0 if zero."""
        degrees = {w.form_degree() for w in self._terms}
        if not degrees:
            return 0
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def sectors(self):
        out = set()
        for w in self._terms:
            out |= w.sectors()
        return out

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        terms = dict(self._terms)
        for w, c in other._terms.items():
            add_term(terms, w, c)
        return Element._raw(terms)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element._raw({w: -c for w, c in self._terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, Element):
            raise TypeError(
                "products of elements need a relation table; "
                "use qcartan.normalizer.multiply"
            )
        scalar = scalar if isinstance(scalar, QScalar) else QScalar.rational(scalar)
        if not scalar:
            return Element._raw({})
        return Element._raw({w: c * scalar for w, c in self._terms.items()})

    __rmul__ = __mul__

    # -- specialization & printing -------------------------------------

    def evaluate(self, q_value) -> dict[Word, Fraction]:
        """Specialize every coefficient at a rational q; exact."""
        out = {}
        for w, c in self._terms.items():
            v = c.evaluate(q_value)
            if v:
                out[w] = v
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            if w.is_empty():
                text = str(c) if c.is_monomial() else f"({c})"
            elif c == ONE:
                text = str(w)
            else:
                text = f"({c}) {w}"
            parts.append(text)
        return " + ".join(parts)

    def __repr__(self):
        return f"Element({self})"


def linear_image(terms: dict, memo: dict, image, tag=None) -> dict:
    """The terms of the image of {word: coeff} under the linear map with
    value image(w) on a word w, as a dict the caller must not mutate.

    The engine's one loop for a memoized linear map: each word's image is
    computed once and stored in memo under (tag, w), or under w when tag
    is None; later calls, with these terms or any others holding w, read
    it from there.  An image is anything with sparse ``_terms``, an
    Element or a tensor, and the caller wraps the result as one.  A
    one-term dict with coefficient ONE returns the image's own terms;
    any other sums c * image with :func:`add_term`.
    """
    out = {}
    for w, c in terms.items():
        key = w if tag is None else (tag, w)
        img = memo.get(key)
        if img is None:
            img = memo[key] = image(w)
        if c is ONE and len(terms) == 1:
            return img._terms
        for iw, ic in img._terms.items():
            add_term(out, iw, ic if c is ONE else c * ic)
    return out


def linear_steps(terms: dict, steps) -> dict:
    """The terms after each (memo, tag, image) step in turn, through
    :func:`linear_image`."""
    for memo, tag, image in steps:
        terms = linear_image(terms, memo, image, tag)
    return terms


def linear_sum(terms: dict, parts) -> dict:
    """The sum of coeff * linear_steps(terms, steps) over the (coeff,
    steps) parts, in a new dict."""
    out = {}
    for coeff, steps in parts:
        for w, c in linear_steps(terms, steps).items():
            add_term(out, w, c if coeff is ONE else coeff * c)
    return out


def concat(a: Element, b: Element) -> Element:
    """Free (unnormalized) product: wordwise concatenation.

    Adjacent powers merge; monomials killed by wedge nilpotency drop out.
    Both words are canonical, so only their seam can cancel or vanish:
    :func:`canonical_codes` runs only on a pair whose seam clashes.
    """
    terms: dict[Word, QScalar] = {}
    for wa, ca in a.terms():
        seam = _SEAM[wa[-1]] if wa else _NO_SEAM
        for wb, cb in b.terms():
            if wb and seam[wb[0]]:
                codes = canonical_codes(wa + wb)
                if codes is None:
                    continue
                w = Word(codes)
            else:
                w = Word(wa + wb)
            add_term(terms, w, cb if ca is ONE else ca * cb)
    return Element._raw(terms)
