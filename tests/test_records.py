"""The record classes: equality, hashing, repr, immutability and constructors.

These pin what the records promise to their callers, independently of how the
classes are written, so the pins hold for a dataclass and a plain class alike.
"""

import pathlib

import pytest

from qfca.cli import ContextDocument, load_document
from qfca.concept import IsbellPair, KanPair
from qfca.errors import (
    Condition,
    InvalidParams,
    Issue,
    Report,
    TypeMismatch,
    ValidationReport,
)
from qfca.presheaf import Copresheaf, Presheaf
from qfca.qcat import Preorder, QFunctor, QTypedSet, identity_functor
from qfca.quantaloid import Arrow, CyclicDualizingFamily, find_cyclic_dualizing_family
from qfca.represent import CanonicalAdjunction, _elementary, canonical_adjunction

from _helpers import ChuTransform, serialize_document, value_at


CONTEXTS = pathlib.Path(__file__).resolve().parent.parent / "contexts"


def _frozen(obj, *names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def _unhashable(*objs):
    for obj in objs:
        with pytest.raises(TypeError):
            hash(obj)


def test_arrow():
    a = Arrow("*", "*", 1)
    assert a == Arrow(src="*", dst="*", index=1) == Arrow("*", dst="*", index=1)
    assert a != Arrow("*", "*", 0) and a != ("*", "*", 1)
    assert hash(a) == hash(("*", "*", 1))
    assert repr(a) == "Arrow(src='*', dst='*', index=1)" == str(a)
    _frozen(a, "src", "dst", "index")
    with pytest.raises(TypeError):
        Arrow("*", "*")


def test_arrow_orders_as_its_tuple():
    arrows = [Arrow(s, d, i) for s in "ba" for d in "ab" for i in (1, 0)]
    assert sorted(arrows) == [Arrow(*t) for t in sorted((a.src, a.dst, a.index) for a in arrows)]
    a, b = Arrow("a", "b", 0), Arrow("a", "b", 1)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or a > b or a < a)
    assert Arrow("a", "z", 9) < Arrow("b", "a", 0)
    with pytest.raises(TypeError):
        a < ("a", "b", 1)


def test_cyclic_dualizing_family(luk3):
    fam = find_cyclic_dualizing_family(luk3)
    made = CyclicDualizingFamily(d=(("*", Arrow("*", "*", 0)),), cyclic=True, dualizing=True)
    assert fam == made and hash(fam) == hash(made)
    assert repr(made) == ("CyclicDualizingFamily(d=(('*', Arrow(src='*', dst='*', index=0)),), "
                          "cyclic=True, dualizing=True)")
    assert made != CyclicDualizingFamily(made.d, True, False)
    _frozen(made, "d", "cyclic", "dualizing")


def test_issue_and_validation_report():
    issue = Issue("poset.reflexive", ("x",), "x <= x fails")
    assert issue == Issue(code="poset.reflexive", where=("x",), detail="x <= x fails")
    assert hash(issue) == hash(Issue("poset.reflexive", ("x",), "x <= x fails"))
    assert issue != Issue("poset.reflexive", ("y",), "x <= x fails")
    assert repr(issue) == "Issue(code='poset.reflexive', where=('x',), detail='x <= x fails')"
    _frozen(issue, "code", "where", "detail")
    report = ValidationReport("s")
    assert report.issues == [] and report.issues is not ValidationReport("s").issues
    report.add("poset.reflexive", ("x",), "x <= x fails")
    assert report == ValidationReport(subject="s", issues=[issue])
    assert report != ValidationReport("t", [issue]) and report != ValidationReport("s")
    assert repr(report) == f"ValidationReport(subject='s', issues=[{issue!r}])"
    report.subject = "t"
    assert report.subject == "t"
    _unhashable(report)


def test_condition_and_report():
    c = Condition("law", True)
    assert c == Condition(name="law", passed=True, detail="") and c != Condition("law", False)
    assert repr(c) == "Condition(name='law', passed=True, detail='')"
    report = Report("r")
    assert report.conditions == [] and report.conditions is not Report("r").conditions
    report.check("law", True)
    assert report == Report(name="r", conditions=[c]) and report != Report("r")
    assert repr(report) == f"Report(name='r', conditions=[{c!r}])"
    c.passed = False
    assert c == Condition("law", False)
    _unhashable(c, report)


def test_typed_set_and_preorder():
    s = QTypedSet(("a", "b"), ("*", "*"))
    assert s == QTypedSet(elements=("a", "b"), type_of=("*", "*")) and hash(s) == hash(
        QTypedSet(("a", "b"), ("*", "*")))
    assert s != QTypedSet(("a", "b"), ("*", "q"))
    assert repr(s) == "QTypedSet(elements=('a', 'b'), type_of=('*', '*'))"
    _frozen(s, "elements", "type_of")
    with pytest.raises(InvalidParams, match="differ in length"):
        QTypedSet(("a", "b"), ("*",))
    with pytest.raises(InvalidParams, match="duplicate element labels"):
        QTypedSet(elements=("a", "a"), type_of=("*", "*"))
    p = Preorder(("a",), frozenset({("a", "a")}))
    assert p == Preorder(elements=("a",), pairs=frozenset({("a", "a")}))
    assert hash(p) == hash(Preorder(("a",), frozenset({("a", "a")})))
    assert repr(p) == "Preorder(elements=('a',), pairs=frozenset({('a', 'a')}))"
    _frozen(p, "elements", "pairs")


def test_chu_transform(fix2id, fixl3):
    phi, F = fix2id.phi, identity_functor(fix2id.A)
    G = identity_functor(fix2id.B)
    c = ChuTransform(frm=phi, to=phi, F=F, G=G)
    assert c == ChuTransform(phi, phi, F, G) and hash(c) == hash(ChuTransform(phi, phi, F, G))
    assert c == ChuTransform(phi, phi, F, identity_functor(fix2id.B))  # an equal G
    assert c != ChuTransform(phi, phi, F, QFunctor(G.dom, G.cod, {"b1": "b2", "b2": "b1"}))
    assert repr(c) == f"ChuTransform(frm={phi!r}, to={phi!r}, F={F!r}, G={G!r})"
    _frozen(c, "frm", "to", "F", "G")
    with pytest.raises(TypeMismatch, match="source rows"):
        ChuTransform(frm=phi, to=phi, F=G, G=G)
    with pytest.raises(TypeMismatch, match="target columns"):
        ChuTransform(phi, phi, F, F)
    with pytest.raises(TypeMismatch, match="source rows"):
        ChuTransform(phi, fixl3.phi, F, G)


def test_presheaf_and_copresheaf(fix2id):
    A = fix2id.A
    v = (Arrow("*", "*", 1), Arrow("*", "*", 0))
    p = Presheaf(A, "*", v)
    assert p == Presheaf(base=A, type="*", values=v) and hash(p) == hash((A, "*", v))
    assert p != Presheaf(A, "*", v[::-1])
    assert p != Copresheaf(A, "*", v) and Copresheaf(A, "*", v) == Copresheaf(A, "*", v)
    assert hash(Copresheaf(A, "*", v)) == hash(p)
    assert repr(p) == f"Presheaf(base={A!r}, type='*', values={v!r})"
    assert repr(Copresheaf(A, "*", v)) == f"Copresheaf(base={A!r}, type='*', values={v!r})"
    _frozen(p, "base", "type", "values")
    assert value_at(p, "a2") == v[1] and p.key() == ("*", v)


def test_closure_pairs(fix2id, fixl3):
    phi = fix2id.phi
    isb, kan = IsbellPair(phi), KanPair(phi=phi)
    assert isb == IsbellPair(phi=phi) and hash(isb) == hash(IsbellPair(phi))
    assert kan == KanPair(phi) and hash(kan) == hash(KanPair(phi))
    assert isb != kan and isb != IsbellPair(fixl3.phi)
    assert repr(isb) == f"IsbellPair(phi={phi!r})" and repr(kan) == f"KanPair(phi={phi!r})"
    assert (isb.kind, isb.base, kan.kind, kan.base) == ("fca", phi.dom, "rst", phi.cod)
    _frozen(isb, "phi")
    _frozen(kan, "phi")


def test_represent_records(fix2id):
    phi = fix2id.phi
    d = _elementary(phi, "fca")
    assert d == d and hash(d) == hash(d) and d.pair == IsbellPair(phi)
    assert repr(d).startswith(f"_Elementary(pair=IsbellPair(phi={phi!r}), f_pairs=(")
    _frozen(d, "pair", "named")
    adj = canonical_adjunction(phi, "fca")
    same = CanonicalAdjunction(kind=adj.kind, phi=adj.phi, S=adj.S, T=adj.T,
                               C_space=adj.C_space, D_space=adj.D_space)
    assert adj == same and adj != CanonicalAdjunction("rst", phi, adj.S, adj.T,
                                                      adj.C_space, adj.D_space)
    assert repr(adj).startswith(f"CanonicalAdjunction(kind='fca', phi={phi!r}, S=")
    adj.kind = "x"
    assert adj.kind == "x"
    _unhashable(adj)


def test_context_document():
    doc = load_document(str(CONTEXTS / "fix_l3.json"))
    again = load_document(str(CONTEXTS / "fix_l3.json"))
    # field by field: a second load builds its own quantaloid, so it is another document
    assert doc == doc and doc != again and serialize_document(doc) == serialize_document(again)
    assert doc != load_document(str(CONTEXTS / "godel3.json"))
    made = ContextDocument(quantaloid=doc.quantaloid, quantaloid_spec=doc.quantaloid_spec,
                           categories=doc.categories, distributors=doc.distributors,
                           functors=doc.functors)
    assert made == doc
    assert repr(doc).startswith(f"ContextDocument(quantaloid={doc.quantaloid!r}, "
                                f"quantaloid_spec={doc.quantaloid_spec!r}, categories=")
    _unhashable(doc)
