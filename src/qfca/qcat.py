"""Categories enriched in a quantaloid: typed sets, hom matrices, functors.

Objects carry a type drawn from the quantaloid's objects; the hom entry
between two objects is an arrow between their types.  The underlying order of
a category is the preorder  x <= y  iff  |x| = |y| and  1 <= hom(x, y); it is
a preorder, not a partial order, and separation (skeletality) is opt-in via
``skeletal_quotient``.

Hom matrices are dense tuples indexed by carrier ordinals; object labels are
strings and equality of labels is equality of objects.
"""

from __future__ import annotations

import itertools

from .errors import (
    InvalidParams,
    SearchBudgetExceeded,
    TypeMismatch,
    ValidationReport,
    _Frozen,
    budget,
)
from .quantaloid import Arrow, Quantaloid, _kept


class QTypedSet(_Frozen):
    """A set of labelled elements, each with a type from the quantaloid."""

    _fields = ("elements", "type_of")

    def __init__(self, elements: tuple[str, ...], type_of: tuple[str, ...]):
        if len(elements) != len(type_of):
            raise InvalidParams("elements and types differ in length")
        if len(set(elements)) != len(elements):
            raise InvalidParams(f"duplicate element labels: {elements}")
        self._set(elements, type_of)


class QCategory:
    """A typed carrier plus a hom matrix ``hom[i][j]`` of type arrows."""

    def __init__(self, q: Quantaloid, objects, types, hom, name: str = ""):
        self.q = q
        self.objects = tuple(objects)
        self.types = tuple(types)
        if len(set(self.objects)) != len(self.objects):
            raise InvalidParams(f"duplicate object labels: {self.objects}")
        if len(self.objects) != len(self.types):
            raise InvalidParams("objects and types differ in length")
        self.hom = tuple(tuple(row) for row in hom)
        if len(self.hom) != len(self.objects) or any(
                len(row) != len(self.objects) for row in self.hom):
            raise InvalidParams("hom matrix has wrong shape")
        self.name = name or f"category({','.join(self.objects)})"
        self._index = {x: i for i, x in enumerate(self.objects)}

    def __len__(self) -> int:
        return len(self.objects)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise InvalidParams(f"no object {x!r} in {self.name}") from None

    def type_of(self, x: str) -> str:
        return self.types[self.index(x)]

    def hom_of(self, x: str, y: str) -> Arrow:
        return self.hom[self.index(x)][self.index(y)]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, QCategory) and self.q is other.q
            and self.objects == other.objects and self.types == other.types
            and self.hom == other.hom)

    def __hash__(self) -> int:
        return hash((id(self.q), self.objects, self.types, self.hom))

    def __repr__(self) -> str:
        return f"QCategory({self.name!r}, {len(self)} objects)"

    def full_subcategory(self, labels, name: str = "") -> "QCategory":
        keep = [self.index(x) for x in labels]
        return QCategory(
            self.q,
            [self.objects[i] for i in keep],
            [self.types[i] for i in keep],
            [[self.hom[i][j] for j in keep] for i in keep],
            name=name or f"{self.name}|{','.join(labels)}",
        )


def discrete_category(q: Quantaloid, typed: QTypedSet, name: str = "") -> QCategory:
    """Hom is the unit on the diagonal and the bottom arrow elsewhere."""
    n = len(typed.elements)
    hom = [[q.unit(typed.type_of[i]) if i == j else q.bottom(typed.type_of[i], typed.type_of[j])
            for j in range(n)] for i in range(n)]
    return QCategory(q, typed.elements, typed.type_of, hom, name=name or "discrete")


def singleton_category(q: Quantaloid, obj: str) -> QCategory:
    """The one-object category on a quantaloid object, hom the unit arrow."""
    return QCategory(q, (obj,), (obj,), ((q.unit(obj),),), name=f"{{{obj}}}")


def validate_category(A: QCategory) -> ValidationReport:
    report = ValidationReport(f"category {A.name}")
    q = A.q
    for i, t in enumerate(A.types):
        if t not in q.objects:
            report.add("type.unknown", (A.objects[i],), f"type {t!r} not in quantaloid")
            return report
    for i, j in itertools.product(range(len(A)), repeat=2):
        a = A.hom[i][j]
        if (a.src, a.dst) != (A.types[i], A.types[j]):
            report.add("hom.typing", (A.objects[i], A.objects[j]),
                       f"entry {a} should live in ({A.types[i]},{A.types[j]})")
            return report
    for i in range(len(A)):
        if not q.leq(q.unit(A.types[i]), A.hom[i][i]):
            report.add("category.unit", (A.objects[i],), "unit <= hom(x,x) fails")
    for i, j, k in itertools.product(range(len(A)), repeat=3):
        if not q.leq(q.compose(A.hom[j][k], A.hom[i][j]), A.hom[i][k]):
            report.add("category.compose", (A.objects[i], A.objects[j], A.objects[k]),
                       "hom(y,z).hom(x,y) <= hom(x,z) fails")
    return report


# -- the underlying preorder ---------------------------------------------------


class Preorder(_Frozen):
    """The underlying preorder of a category, with iso-class helpers."""

    _fields = ("elements", "pairs")

    def __init__(self, elements: tuple[str, ...], pairs: frozenset[tuple[str, str]]):
        self._set(elements, pairs)

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.pairs

    def iso(self, x: str, y: str) -> bool:
        return (x, y) in self.pairs and (y, x) in self.pairs

    def iso_classes(self) -> tuple[tuple[str, ...], ...]:
        seen, classes = set(), []
        for x in self.elements:
            if x in seen:
                continue
            cls = tuple(y for y in self.elements if self.iso(x, y))
            seen.update(cls)
            classes.append(cls)
        return tuple(classes)

    def hasse_edges(self) -> tuple[tuple[str, str], ...]:
        """Cover edges between iso-class representatives (least labels)."""
        reps = [min(cls) for cls in self.iso_classes()]
        strict = {(x, y) for x in reps for y in reps
                  if x != y and self.leq(x, y) and not self.leq(y, x)}
        above = {x: set() for x in reps}
        below = {x: set() for x in reps}
        for x, y in strict:
            above[x].add(y)
            below[y].add(x)
        return tuple((x, y) for x, y in sorted(strict) if above[x].isdisjoint(below[y]))


def underlying_order(A: QCategory) -> Preorder:
    q = A.q
    above_unit = {t: q.hom(t, t).up[q.units[t]] for t in set(A.types)}
    pairs = frozenset(
        (x, y)
        for x, t, row in zip(A.objects, A.types, A.hom)
        for y, s, a in zip(A.objects, A.types, row)
        if s == t and above_unit[t] >> a.index & 1
    )
    return Preorder(A.objects, pairs)


def is_separated(A: QCategory) -> bool:
    order = underlying_order(A)
    return all(len(cls) == 1 for cls in order.iso_classes())


# -- functors ------------------------------------------------------------------


class QFunctor:
    """A type-preserving map on carriers; mapping stored as a label dict."""

    def __init__(self, dom: QCategory, cod: QCategory, mapping: dict[str, str], name: str = ""):
        self.dom = dom
        self.cod = cod
        try:
            self.mapping = {x: mapping[x] for x in dom.objects}
        except KeyError as e:
            raise InvalidParams(f"functor map misses object {e.args[0]!r}") from None
        self.name = name or "functor"

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QFunctor) and self.dom == other.dom
                and self.cod == other.cod and self.mapping == other.mapping)

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, tuple(sorted(self.mapping.items()))))

    def __repr__(self) -> str:
        return f"QFunctor({self.name!r}: {self.dom.name} -> {self.cod.name})"


def identity_functor(A: QCategory) -> QFunctor:
    return QFunctor(A, A, {x: x for x in A.objects}, name=f"1_{A.name}")


def compose_functors(G: QFunctor, F: QFunctor) -> QFunctor:
    if F.cod != G.dom:
        raise TypeMismatch(f"cannot compose {G} after {F}")
    return QFunctor(F.dom, G.cod, {x: G(F(x)) for x in F.dom.objects},
                    name=f"{G.name}.{F.name}")


def validate_functor(F: QFunctor) -> ValidationReport:
    report = ValidationReport(f"functor {F.name}")
    A, B = F.dom, F.cod
    for x in A.objects:
        if F(x) not in B._index:
            report.add("functor.image", (x,), f"{F(x)!r} is not an object of {B.name}")
            return report
    for x in A.objects:
        if A.type_of(x) != B.type_of(F(x)):
            report.add("functor.type", (x,), f"|{x}| = {A.type_of(x)} but |F{x}| = {B.type_of(F(x))}")
    if report.ok:
        for x, y in itertools.product(A.objects, repeat=2):
            if not A.q.leq(A.hom_of(x, y), B.hom_of(F(x), F(y))):
                report.add("functor.hom", (x, y), "hom(x,y) <= hom(Fx,Fy) fails")
    return report


def functor_leq(F: QFunctor, G: QFunctor) -> bool:
    """The pointwise order: F <= G iff 1 <= hom(Fx, Gx) for every x."""
    if F.dom != G.dom or F.cod != G.cod:
        raise TypeMismatch("functor order needs equal endpoints")
    B = F.cod
    return all(
        B.q.leq(B.q.unit(B.type_of(F(x))), B.hom_of(F(x), G(x)))
        for x in F.dom.objects
    )


def functor_iso(F: QFunctor, G: QFunctor) -> bool:
    return functor_leq(F, G) and functor_leq(G, F)


def is_fully_faithful(F: QFunctor) -> bool:
    A, B = F.dom, F.cod
    return all(A.hom_of(x, y) == B.hom_of(F(x), F(y))
               for x, y in itertools.product(A.objects, repeat=2))


def is_essentially_surjective(F: QFunctor) -> bool:
    order = underlying_order(F.cod)
    image = {F(x) for x in F.dom.objects}
    return all(any(order.iso(fx, y) for fx in image) for y in F.cod.objects)


# -- separation ---------------------------------------------------------------


def skeletal_quotient(A: QCategory) -> tuple[QCategory, QFunctor]:
    """Identify isomorphic objects, keeping the least label of each class."""
    order = underlying_order(A)
    rep = {}
    for cls in order.iso_classes():
        r = min(cls)
        for x in cls:
            rep[x] = r
    reps = sorted(set(rep.values()), key=A.index)
    B = A.full_subcategory(reps, name=f"skeleton({A.name})")
    return B, QFunctor(A, B, rep, name="skeletal-projection")


# -- duality ------------------------------------------------------------------


def _dual_category(A: QCategory) -> QCategory:
    hom = [A.q.dual_arrows(col) for col in zip(*A.hom)]
    return QCategory(A.q.opposite(), A.objects, A.types, hom, name=f"{A.name}^op")


def dualize_category(A: QCategory) -> QCategory:
    """The same objects over the opposite quantaloid, hom matrix transposed; kept on A."""
    return _kept(A, "_dual", _dual_category)


def dualize_functor(F: QFunctor) -> QFunctor:
    return QFunctor(dualize_category(F.dom), dualize_category(F.cod),
                    dict(F.mapping), name=f"{F.name}^op")


# -- equivalence search --------------------------------------------------------


def find_equivalence(A: QCategory, B: QCategory):
    """Search for an equivalence A -> B; ``None`` if there is none.

    Backtracks over type-preserving assignments from a skeleton of A into B,
    pruning with the fully-faithfulness equations, in label order for
    reproducibility.  Worst case is exponential; a node budget guards it.
    """
    cap = budget("search")
    skel, proj = skeletal_quotient(A)
    xs = sorted(skel.objects)
    nodes = 0

    def extend(assign: dict[str, str]):
        nonlocal nodes
        if len(assign) == len(xs):
            F0 = QFunctor(skel, B, dict(assign))
            if is_essentially_surjective(F0):
                return F0
            return None
        x = xs[len(assign)]
        for y in sorted(B.objects):
            if B.type_of(y) != skel.type_of(x):
                continue
            nodes += 1
            if nodes > cap:
                raise SearchBudgetExceeded("search", cap, nodes,
                                           f"the equivalence search from {A.name} to {B.name}")
            ok = skel.hom_of(x, x) == B.hom_of(y, y)
            for x2, y2 in assign.items():
                if not ok:
                    break
                ok = (skel.hom_of(x, x2) == B.hom_of(y, y2)
                      and skel.hom_of(x2, x) == B.hom_of(y2, y))
            if ok:
                found = extend({**assign, x: y})
                if found is not None:
                    return found
        return None

    F0 = extend({})
    if F0 is None:
        return None
    return QFunctor(A, B, {x: F0(proj(x)) for x in A.objects},
                    name=f"equivalence({A.name},{B.name})")
