import pytest

from qcartan.hopf import (
    HopfPresentation,
    TensorElement,
    antipode,
    check_hopf_axioms,
    coproduct,
    counit,
    map_slot,
    presentation,
    tensor,
    tensor_mul,
)
from qcartan.duality import dual_presentation
from qcartan.normalizer import multiply, normalize
from qcartan.parser import parse_element
from qcartan.relations import RelationTable, builtin_presentation
from qcartan.scalars import ONE, Q
from qcartan.words import Element


def ne(text, table):
    return normalize(parse_element(text), table)


def t2(a, b):
    return tensor(parse_element(a), parse_element(b))


def test_coproduct_of_twisted_primitive(table):
    assert coproduct("A", parse_element("y"), table) == t2("x", "y") + t2("y", "x")


def test_coproduct_of_primitive_square(table):
    got = coproduct("A", ne("z^2", table), table)
    assert got == t2("z^2", "1") + 2 * t2("z", "z") + t2("1", "z^2")


def test_coproduct_in_lie_presentation(table):
    assert coproduct("U", parse_element("Ty"), table) == \
        t2("Ty", "1") + t2("K", "Ty")
    assert coproduct("U", parse_element("Tx"), table) == \
        t2("Tx", "1") + t2("1", "Tx")


def test_grouplike_closure(table):
    for k in (-3, -1, 1, 2, 4):
        e = parse_element(f"x^{k}")
        assert coproduct("A", e, table) == tensor(e, e)
        ke = parse_element(f"K^{k}")
        assert coproduct("U", ke, table) == tensor(ke, ke)


def test_coproduct_is_homomorphism_on_a_pair(table):
    # Delta(x y) = x^2 (x) x y + x y (x) x^2
    got = coproduct("A", ne("x*y", table), table)
    assert got == t2("x^2", "x*y") + t2("x*y", "x^2")
    # and it matches the product of the generator images
    prod = tensor_mul(coproduct("A", parse_element("x"), table),
                      coproduct("A", parse_element("y"), table), table)
    assert got == prod


def test_counit_values(table):
    assert counit("A", ne("x^3", table)) == ONE
    assert counit("A", ne("x*y", table)).is_zero()
    assert counit("A", parse_element("xinv")) == ONE
    assert counit("U", parse_element("Tz")).is_zero()
    assert counit("U", parse_element("K^2")) == ONE


def test_antipode_values(table):
    assert antipode("A", parse_element("y"), table) == -Q * ne("x^-2*y", table)
    assert antipode("A", ne("x*y", table), table) == \
        -(Q ** 2) * ne("x^-3*y", table)
    assert antipode("A", parse_element("z"), table) == -parse_element("z")
    assert antipode("U", parse_element("Ty"), table) == -ne("Ty*Kinv", table)
    assert antipode("U", parse_element("K"), table) == parse_element("Kinv")


def test_antipode_is_linear(table):
    for alg, texts in (("A", ("y", "x*y", "z", "x^-1*y^2")),
                       ("U", ("Ty", "K*Tz", "Tx^2", "Kinv"))):
        parts = [ne(text, table) for text in texts]
        coeffs = (ONE, -Q, 3 * Q + 1, ONE)
        total = sum((c * p for c, p in zip(coeffs, parts)), Element.zero())
        expected = sum((c * antipode(alg, p, table)
                        for c, p in zip(coeffs, parts)), Element.zero())
        assert antipode(alg, total, table) == expected
        assert antipode(alg, Element.zero(), table).is_zero()


def test_antipode_law_for_twisted_primitive(table):
    # m (S (x) id) Delta(y) = S(x) y + S(y) x = 0 = eps(y)
    d = coproduct("A", parse_element("y"), table)
    total = Element.zero()
    for (w1, w2), c in d.terms():
        total = total + c * multiply(
            antipode("A", Element.from_word(w1), table),
            Element.from_word(w2), table)
    assert total.is_zero()


def test_antipode_law_in_lie_presentation(table):
    d = coproduct("U", parse_element("Ty"), table)
    total = Element.zero()
    for (w1, w2), c in d.terms():
        total = total + c * multiply(
            antipode("U", Element.from_word(w1), table),
            Element.from_word(w2), table)
    assert total.is_zero()


def test_letter_outside_presentation_rejected(table):
    with pytest.raises(ValueError, match="outside"):
        coproduct("A", parse_element("Tx"), table)
    with pytest.raises(ValueError, match="outside"):
        counit("U", parse_element("x"))
    with pytest.raises(ValueError, match="outside"):
        antipode("A", parse_element("dx"), table)
    # eps(z) = 0 must not hide the out-of-presentation letter after it
    for text in ("z*Tx", "x*Tx"):
        with pytest.raises(ValueError, match="letter Tx is outside the A"):
            counit("A", parse_element(text))
    # of two letters outside, the leftmost is named, also by the antipode,
    # which folds its images right to left
    e = parse_element("z*dx*Tx")
    for fn in (lambda: counit("A", e), lambda: antipode("A", e, table),
               lambda: coproduct("A", e, table)):
        with pytest.raises(ValueError, match="letter dx is outside the A"):
            fn()


def fold_coproduct(pres, names, table):
    """The product of the letter coproducts, with no memo."""
    acc = TensorElement.unit(2)
    for name in names:
        acc = tensor_mul(acc, pres.delta[name], table)
    return acc


def test_coproduct_memo_is_per_presentation():
    # "U" and "dual" share their letters but not their coproducts
    table = RelationTable(builtin_presentation().rules)
    lie, dual = presentation("U"), dual_presentation()
    for names in (("Ty",), ("Ty", "K", "Ty")):
        e = parse_element("*".join(names))
        got_u = coproduct("U", e, table)
        got_dual = coproduct(dual, e, table)
        assert got_u != got_dual
        assert got_u == fold_coproduct(lie, names, table)
        assert got_dual == fold_coproduct(dual, names, table)
        assert coproduct(lie, e, table) == got_u
    assert table.cache_info()["coproduct"] == 4
    # a user-built presentation named "U" with the dual's maps keeps its
    # own entries, apart from the built-in "U"
    impostor = HopfPresentation("U", dual.letters, dual.delta, dual.eps,
                                dual.antipode_map)
    e = parse_element("Ty")
    assert coproduct(impostor, e, table) == fold_coproduct(dual, ("Ty",), table)
    assert coproduct(lie, e, table) == fold_coproduct(lie, ("Ty",), table)


def test_tensor_arity_checks():
    with pytest.raises(ValueError):
        TensorElement(4, {})
    x = parse_element("x")
    with pytest.raises(ValueError):
        tensor(x)
    with pytest.raises(ValueError):
        tensor(x, x, x, x)
    # splicing a coproduct into a slot of an arity-3 tensor gives arity 4
    with pytest.raises(ValueError):
        map_slot(tensor(x, x, x), 0, lambda w: tensor(x, x))


def test_tensor_addition_cancels():
    t = t2("x", "y") + t2("z", "1")
    assert (t - t).is_zero()
    assert (t - t)._terms == {}
    assert (t + TensorElement(2, {k: -c for k, c in t.terms()}))._terms == {}
    assert (t - t2("z", "1"))._terms == t2("x", "y")._terms


def test_tensor_linear_structure_keeps_kind_and_arity():
    t = t2("x", "y") + 2 * t2("z", "1")
    assert -t == TensorElement(2, {k: -c for k, c in t.terms()})
    assert (-t).arity == 2 and (t + (-t)).is_zero()
    x = parse_element("x")
    with pytest.raises(TypeError, match="products of elements need a "
                       "relation table"):
        t * x
    t3 = tensor(x, x, x)
    for left, right in ((x, t), (t, x), (t, t3), (t3, t)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    assert TensorElement(2) != TensorElement(3)
    assert TensorElement(2) == TensorElement(2) and not TensorElement(3)
    assert t != x and x != t


def test_tensor_with_zero_factor_is_zero():
    x = parse_element("x")
    t = tensor(x + (-x), parse_element("y"))
    assert t.is_zero() and t._terms == {}
    assert tensor(x, x - x, x)._terms == {}


def test_tensor_mul_cancels_cross_terms(table):
    # (x (x) 1 - 1 (x) x)(x (x) 1 + 1 (x) x) = x^2 (x) 1 - 1 (x) x^2
    a = t2("x", "1") - t2("1", "x")
    b = t2("x", "1") + t2("1", "x")
    got = tensor_mul(a, b, table)
    assert got == t2("x^2", "1") - t2("1", "x^2")
    assert len(got._terms) == 2


def test_map_slot_images_cancel():
    y = parse_element("y")
    t = t2("x", "z") + t2("y", "z")
    # x -> y and y -> -y: the two images cancel
    images = {"x": y, "y": -y}
    got = map_slot(t, 0, lambda w: images[str(w)])
    assert got.arity == 2 and got.is_zero() and got._terms == {}
    # the same with tensor-valued images, which raise the arity
    got = map_slot(t, 0, lambda w: tensor(images[str(w)], y))
    assert got.arity == 3 and got.is_zero() and got._terms == {}
    # a surviving image keeps its coefficient
    got = map_slot(t, 1, lambda w: 2 * y)
    assert got == 2 * (t2("x", "y") + t2("y", "y"))


def test_hopf_axioms_coordinate_algebra(table):
    report = check_hopf_axioms("A", 3, table)
    assert report.passed, "\n".join(str(r) for r in report.failures[:5])


def test_hopf_axioms_lie_algebra(table):
    report = check_hopf_axioms("U", 3, table)
    assert report.passed, "\n".join(str(r) for r in report.failures[:5])
