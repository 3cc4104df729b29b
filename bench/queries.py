"""The expand-session query stream and its independent q = 1 references.

A query parses a power or product of sums of 2-4 letters, normalizes it
and applies one operation of the calculus.  Its answer is checked after
the stream against the classical limit, computed here with integer
Laurent polynomials in commuting x, y, z: at q = 1 normal ordering is
commutative multiplication, partials are d/dx, d/dy, d/dz, the Lie
generators are the vector fields Tx = x d/dx + y d/dy, Ty = x d/dy,
Tz = d/dz, the Lie derivative along a is d/da on functions, and the
pairing with the dual letters X, Y, Z evaluates those vector fields at
the unit (x, y, z) = (1, 0, 0).

Only this module knows the query format; it imports nothing from qcartan.
"""

from __future__ import annotations

import random
from fractions import Fraction

# exponent vector (x, y, z) of each coordinate letter
COORDS = {"x": (1, 0, 0), "x^-1": (-1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
PARTIALS = ("px", "py", "pz")
LIE = ("Tx", "Ty", "Tz")
DUAL = ("X", "Y", "Z")
# coefficient text and its value at q = 1
COEFFS = (("", 1), ("2*", 2), ("3*", 3), ("q*", 1), ("q^-1*", 1), ("2*q*", 2))

# Query classes: (kind, function shape, operator shape).  A shape is a
# tuple of (letters in the sum, power); the stream holds every class
# equally often, so the work per stream does not depend on the seed.
CLASSES = (
    ("d", ((3, 4),), None),
    ("d", ((2, 4), (3, 3)), None),
    ("d", ((3, 7),), None),
    ("d", ((4, 5),), None),
    ("act", ((3, 4),), ((3, 2),)),
    ("act", ((2, 3), (3, 2)), ((2, 1), (3, 1))),
    ("act", ((3, 5),), ((3, 1),)),
    ("lapply", ((3, 5),), None),
    ("lapply", ((2, 3), (4, 2)), None),
    ("iapply", ((3, 4),), None),
    ("pair", ((3, 4),), ((3, 2),)),
    ("pair", ((2, 3), (3, 2)), ((2, 1), (2, 1))),
)


def _sum(rng: random.Random, pool, k: int):
    """Text of a sum of k distinct letters with random coefficients, and
    its q = 1 coefficients {letter: value}."""
    letters = rng.sample(list(pool), k)
    parts, values = [], {}
    for name in letters:
        text, value = rng.choice(COEFFS)
        parts.append(text + name)
        values[name] = value
    return "(" + " + ".join(parts) + ")", values


def _product(rng, pool, shape):
    """Text of a product of powers of sums, and its factors as
    [(q = 1 coefficients, power)]."""
    texts, factors = [], []
    for k, power in shape:
        text, values = _sum(rng, pool, k)
        texts.append(text if power == 1 else f"{text}^{power}")
        factors.append((values, power))
    return "*".join(texts), factors


def make_stream(seed: int, n: int) -> list[dict]:
    """n queries; the classes cycle in a seeded order."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        batch = list(CLASSES)
        rng.shuffle(batch)
        for kind, fshape, oshape in batch[: n - len(out)]:
            f_text, f_factors = _product(rng, COORDS, fshape)
            q = {"kind": kind, "f": f_text, "f_factors": f_factors}
            if kind == "act":
                pool = PARTIALS if rng.random() < 0.5 else LIE
                q["op"], q["op_factors"] = _product(rng, pool, oshape)
            elif kind == "pair":
                q["op"], q["op_factors"] = _product(rng, DUAL, oshape)
            elif kind == "lapply":
                q["a"] = rng.choice("xyz")
            elif kind == "iapply":
                q["a"] = rng.choice("xyz")
                q["f"] = f"{f_text}*(dx + dy + dz)"
            out.append(q)
    return out


# --- commutative Laurent polynomials {(i, j, k): int} -----------------------

def _add_into(acc: dict, key, value):
    s = acc.get(key, 0) + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j, k), c in a.items():
        for (u, v, w), d in b.items():
            _add_into(out, (i + u, j + v, k + w), c * d)
    return out


def expand(factors) -> dict:
    """The product of powers of sums, multiplied out commutatively."""
    out = {(0, 0, 0): 1}
    for values, power in factors:
        base = {COORDS[name]: c for name, c in values.items()}
        for _ in range(power):
            out = poly_mul(out, base)
    return out


def partial(p: dict, axis: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        if e[axis]:
            lowered = tuple(n - (m == axis) for m, n in enumerate(e))
            _add_into(out, lowered, c * e[axis])
    return out


def _times(p: dict, axis: int) -> dict:
    return {tuple(n + (m == axis) for m, n in enumerate(e)): c
            for e, c in p.items()}


def vector_field(name: str, p: dict) -> dict:
    """One classical first-order operator applied to p."""
    if name in ("px", "py", "pz"):
        return partial(p, "xyz".index(name[1]))
    if name in ("Tx", "X"):
        out = dict(_times(partial(p, 0), 0))
        for e, c in _times(partial(p, 1), 1).items():
            _add_into(out, e, c)
        return out
    if name in ("Ty", "Y"):
        return _times(partial(p, 1), 0)
    if name in ("Tz", "Z"):
        return partial(p, 2)
    raise ValueError(f"no classical operator {name}")


def apply_operator(factors, p: dict) -> dict:
    """A product of powers of operator sums acting on p, rightmost first."""
    for values, power in reversed(factors):
        for _ in range(power):
            out: dict = {}
            for name, c in values.items():
                for e, v in vector_field(name, p).items():
                    _add_into(out, e, c * v)
            p = out
    return p


# --- the program's answers at q = 1 -----------------------------------------

def at_q1(scalar) -> Fraction:
    return sum((c for _, c in scalar.terms()), Fraction(0))


def _exponents(factors) -> tuple:
    e = [0, 0, 0]
    for g, n in factors:
        if g.name not in ("x", "y", "z"):
            raise ValueError(f"{g.name} is not a coordinate letter")
        e["xyz".index(g.name)] += n
    return tuple(e)


def function_at_q1(element) -> dict:
    """A function element at q = 1 as {(i, j, k): value}."""
    out: dict = {}
    for word, c in element.terms():
        _add_into(out, _exponents(word.factors), at_q1(c))
    return out


def one_form_at_q1(element) -> dict:
    """A one-form f dx + g dy + h dz at q = 1 as {axis: polynomial}; the
    normal order puts the differential first."""
    out: dict = {}
    for word, c in element.terms():
        (g, n), rest = word.factors[0], word.factors[1:]
        if g.name not in ("dx", "dy", "dz") or n != 1:
            raise ValueError(f"{word} is not a one-form word")
        _add_into(out.setdefault("xyz".index(g.name[1]), {}),
                  _exponents(rest), at_q1(c))
    return {axis: p for axis, p in out.items() if p}


def input_at_q1(q: dict, normal_form) -> bool:
    """Whether the normalized input agrees with the commutative expansion."""
    f = expand(q["f_factors"])
    if q["kind"] == "iapply":
        return one_form_at_q1(normal_form) == {0: f, 1: f, 2: f}
    return function_at_q1(normal_form) == f


def expected(q: dict):
    """The q = 1 reference answer of one query."""
    f = expand(q["f_factors"])
    kind = q["kind"]
    if kind == "d":
        return {axis: p for axis in range(3) if (p := partial(f, axis))}
    if kind == "act":
        return apply_operator(q["op_factors"], f)
    if kind == "lapply":
        return partial(f, "xyz".index(q["a"]))
    if kind == "iapply":
        # i_a (f (dx + dy + dz)) = f at q = 1
        return f
    if kind == "pair":
        value = apply_operator(q["op_factors"], f)
        return sum((c for (_, j, k), c in value.items() if j == 0 and k == 0),
                   Fraction(0))
    raise ValueError(f"unknown query kind {kind}")


def answer_at_q1(q: dict, answer):
    if q["kind"] == "d":
        return one_form_at_q1(answer)
    if q["kind"] == "pair":
        return at_q1(answer)
    return function_at_q1(answer)
