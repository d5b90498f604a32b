import gc
import weakref

import pytest

from qfca.errors import InvalidParams
from qfca.qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    compose_functors,
    discrete_category,
    dualize_category,
    dualize_functor,
    identity_functor,
    is_essentially_surjective,
    is_fully_faithful,
    is_separated,
    singleton_category,
    underlying_order,
    validate_category,
    validate_functor,
)
from qfca.qdist import dualize_distributor
from qfca.presheaf import materialize_presheaves

from _helpers import find_equivalence, functor_leq, skeletal_quotient


def test_validate_discrete(two):
    A = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    assert validate_category(A).ok


def test_validate_unit_violation(two):
    zero = two.arrow("*", "*", "0")
    A = QCategory(two, ("x",), ("*",), [[zero]])
    report = validate_category(A)
    assert not report.ok
    assert report.issues[0].code == "category.unit" and report.issues[0].where == ("x",)


def test_validate_stops_at_an_unknown_type_or_a_mistyped_entry(two, diag3):
    # the first typing fault is the whole report: nothing else is checkable
    report = validate_category(QCategory(two, ("x", "y"), ("*", "zz"), [[None] * 2] * 2))
    assert [(i.code, i.where) for i in report.issues] == [("type.unknown", ("y",))]
    a = diag3.arrow
    hom = [[a("2", "2", "2"), a("1", "2", "1")], [a("1", "2", "0"), a("1", "1", "1")]]
    report = validate_category(QCategory(diag3, ("x", "y"), ("2", "1"), hom))
    assert [(i.code, i.where) for i in report.issues] == [("hom.typing", ("x", "y"))]
    assert "should live in (2,1)" in report.issues[0].detail


def test_validate_fixdl3(fixdl3):
    assert validate_category(fixdl3.A).ok
    assert validate_category(fixdl3.B).ok
    from qfca.qdist import validate_distributor
    assert validate_distributor(fixdl3.phi).ok


def test_underlying_order_discrete(two):
    A = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    order = underlying_order(A)
    assert order.leq("x", "x") and not order.leq("x", "y")


def test_underlying_order_codiscrete(two):
    top = two.arrow("*", "*", "1")
    A = QCategory(two, ("x", "y"), ("*", "*"), [[top, top], [top, top]])
    order = underlying_order(A)
    assert order.leq("x", "y") and order.leq("y", "x")


def test_underlying_order_luk3(luk3):
    one, half = luk3.arrow("*", "*", "1"), luk3.arrow("*", "*", "1/2")
    A = QCategory(luk3, ("x", "y"), ("*", "*"), [[one, half], [one, one]])
    order = underlying_order(A)
    assert order.leq("y", "x") and not order.leq("x", "y")


def test_skeletal_quotient(two):
    top = two.arrow("*", "*", "1")
    A = QCategory(two, ("x", "y"), ("*", "*"), [[top, top], [top, top]])
    skel, proj = skeletal_quotient(A)
    assert len(skel) == 1 and is_separated(skel)
    assert validate_functor(proj).ok and is_essentially_surjective(proj)
    B = discrete_category(two, QTypedSet(("u",), ("*",)))
    skel2, proj2 = skeletal_quotient(B)
    assert skel2.objects == B.objects and proj2.mapping == {"u": "u"}


def test_presheaf_space_separated(luk3):
    S = discrete_category(luk3, QTypedSet(("a",), ("*",)))
    assert is_separated(materialize_presheaves(S).category)


def test_discrete_category(two, luk3):
    S = discrete_category(luk3, QTypedSet(("q",), ("*",)))
    assert S.hom_of("q", "q") == luk3.unit("*")
    assert singleton_category(luk3, "*").hom_of("*", "*") == luk3.unit("*")
    E = discrete_category(two, QTypedSet((), ()))
    assert len(E) == 0 and validate_category(E).ok
    D = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    assert D.hom_of("x", "y") == two.bottom("*", "*")


def test_dualize_involution(fixdl3):
    A = fixdl3.A
    assert dualize_category(dualize_category(A)) == A
    F = identity_functor(A)
    assert dualize_functor(dualize_functor(F)) == F
    assert dualize_distributor(dualize_distributor(fixdl3.phi)) == fixdl3.phi


def test_dual_is_cached_without_a_reference_cycle(fixdl3):
    A, phi = fixdl3.A, fixdl3.phi
    assert dualize_category(A) is dualize_category(A)
    assert dualize_distributor(phi) is dualize_distributor(phi)
    assert dualize_distributor(phi).dom is dualize_category(phi.cod)
    B = A.full_subcategory(A.objects)
    refs = [weakref.ref(B), weakref.ref(dualize_category(B))]
    gc.disable()
    try:
        del B  # freed by reference counting alone: no cycle holds it
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_dualize_values(fixl3, two):
    op = dualize_distributor(fixl3.phi)
    assert op.at("b", "a").index == fixl3.phi.at("a", "b").index
    D = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    assert dualize_category(D).hom == D.hom


def test_functor_order(luk3, two):
    A = discrete_category(two, QTypedSet(("x",), ("*",)))
    i = identity_functor(A)
    assert functor_leq(i, i)
    one, half = luk3.arrow("*", "*", "1"), luk3.arrow("*", "*", "1/2")
    B = QCategory(luk3, ("u", "v"), ("*", "*"), [[one, half], [half, one]])
    F = QFunctor(B, B, {"u": "u", "v": "v"})
    G = QFunctor(B, B, {"u": "v", "v": "u"})
    assert validate_functor(G).ok
    assert not functor_leq(F, G)  # hom(u, v) = 1/2 is not above the unit


def test_validate_functor_failure(two):
    A = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    one = two.arrow("*", "*", "1")
    B = QCategory(two, ("u", "v"), ("*", "*"),
                  [[one, two.arrow("*", "*", "0")], [two.arrow("*", "*", "0"), one]])
    codisc = QCategory(two, ("x", "y"), ("*", "*"), [[one, one], [one, one]])
    F = QFunctor(codisc, B, {"x": "u", "y": "v"})
    report = validate_functor(F)
    assert not report.ok and report.issues[0].code == "functor.hom"


def test_fully_faithful_essentially_surjective(fix2id):
    A = fix2id.A
    i = identity_functor(A)
    assert is_fully_faithful(i) and is_essentially_surjective(i)
    space = materialize_presheaves(A)
    y = space.yoneda_functor()
    assert is_fully_faithful(y) and not is_essentially_surjective(y)
    assert len(space.category) == 4 > len(A)


def test_find_equivalence_identity(fixdl3):
    F = find_equivalence(fixdl3.A, fixdl3.A)
    assert F is not None and is_fully_faithful(F) and is_essentially_surjective(F)


def test_find_equivalence_with_skeleton(two):
    top = two.arrow("*", "*", "1")
    A = QCategory(two, ("x", "y"), ("*", "*"), [[top, top], [top, top]])
    skel, _ = skeletal_quotient(A)
    assert find_equivalence(A, skel) is not None
    assert find_equivalence(skel, A) is not None


def test_find_equivalence_negative(two):
    A = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    B = discrete_category(two, QTypedSet(("u",), ("*",)))
    assert find_equivalence(A, B) is None
    assert find_equivalence(B, A) is None


def test_compose_functor_mismatch(two, luk3):
    A = discrete_category(two, QTypedSet(("x",), ("*",)))
    B = discrete_category(luk3, QTypedSet(("y",), ("*",)))
    from qfca.errors import TypeMismatch
    with pytest.raises(TypeMismatch):
        compose_functors(identity_functor(B), identity_functor(A))


def test_duplicate_labels_rejected():
    with pytest.raises(InvalidParams):
        QTypedSet(("x", "x"), ("*", "*"))
