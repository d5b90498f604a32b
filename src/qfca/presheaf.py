"""Presheaves and copresheaves: the currency of enriched concept lattices.

A presheaf on A with type q is a distributor from A into the one-object
category on q; concretely a vector of arrows ``values[i]: |x_i| -> q`` with
``values[i] . hom(x_j, x_i) <= values[j]`` for all i, j.  A copresheaf points
the other way: ``values[i]: q -> |x_i|``.

A copresheaf on A over Q is a presheaf on the dual A^op over Q^op, so each
copresheaf operation here is its presheaf twin applied to that dual.

Order warning: the copresheaf category on A is the opposite of the presheaf
category on A^op, so its underlying order is the *reverse* of the entrywise
arrow order.  Functions here always state which order they use;
``pointwise_leq`` is always the entrywise one.

Presheaf and copresheaf categories are never materialized implicitly;
``materialize_presheaves``/``materialize_copresheaves`` build them explicitly
behind the enumeration cap, for oracle tests and for functors that need the
whole space (transposes, generator maps, the adjunction of the general and
dense canonical representation data).
"""

from __future__ import annotations

import itertools
import math

from .errors import BaseMismatch, BudgetExceeded, ColimitMissing, QfcaError, _Frozen, budget
from .qcat import (
    QCategory,
    QFunctor,
    dualize_category,
    dualize_functor,
    identity_functor,
    underlying_order,
    validate_functor,
)
from .qdist import (
    cograph,
    dist_left_imp,
    graph,
    hom_ix,
    identity_dist,
    is_adjoint_functor_pair,
    tensor_ix,
)
from .quantaloid import Arrow, _kept


class _Vector(_Frozen):
    """The fields and lookups that presheaves and copresheaves share; a presheaf
    never equals a copresheaf.  Equality and hashing run in every space lookup."""

    _fields = ("base", "type", "values")

    def __init__(self, base: QCategory, type: str, values: tuple[Arrow, ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.type, self.values) == (other.base, other.type, other.values)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.type, self.values))

    def at(self, x: str) -> Arrow:
        return self.values[self.base.index(x)]

    def key(self):
        return (self.type, self.values)


class Presheaf(_Vector):
    """A vector ``values[i]: |x_i| -> type`` over the base carrier."""


class Copresheaf(_Vector):
    """A vector ``values[i]: type -> |x_i|`` over the base carrier."""


def _presheaf_of(lam: Copresheaf, base: QCategory | None = None) -> Presheaf:
    """lam as a presheaf over the opposite quantaloid on ``base``, the dual of
    lam's base (by default ``dualize_category(lam.base)``).

    Kept on lam, so each copresheaf is converted at most once; one made by
    ``_copresheaf_of`` starts out with it.
    """
    return _kept(lam, "_dual", lambda lam: Presheaf(
        dualize_category(lam.base) if base is None else base, lam.type,
        lam.base.q.dual_arrows(lam.values)))


def _copresheaf_of(mu: Presheaf, base: QCategory) -> Copresheaf:
    """mu, a presheaf on the dual of ``base``, as a copresheaf on ``base``."""
    lam = Copresheaf(base, mu.type, mu.base.q.dual_arrows(mu.values))
    lam.__dict__["_dual"] = mu
    return lam


def _require(kind: type, base: QCategory, where: str, v, w=None) -> None:
    """Refuse v, and w if given, unless each is a ``kind`` on ``base``, which ``where``
    describes; bases are compared by ``is`` before the Python call ``==``."""
    if (v.__class__ is kind and (v.base is base or v.base == base)
            and (w is None or w.__class__ is kind and (w.base is base or w.base == base))):
        return
    got = v if v.__class__ is not kind or v.base != base else w
    on = f" on {got.base.name}" if isinstance(got, _Vector) else ""
    raise BaseMismatch(f"expected a {kind.__name__.lower()} on {where} {base.name}, "
                       f"got a {got.__class__.__name__.lower()}{on}")


def presheaf_law_ok(p: Presheaf) -> bool:
    A, q = p.base, p.base.q
    n = len(A)
    return all(
        q.leq(q.compose(p.values[i], A.hom[j][i]), p.values[j])
        for i in range(n) for j in range(n)
    )


def copresheaf_law_ok(lam: Copresheaf) -> bool:
    return presheaf_law_ok(_presheaf_of(lam))


def pointwise_leq(a, b) -> bool:
    """Entrywise arrow order (the distributor-calculus order)."""
    _require(a.__class__, a.base, "the first operand's base", a, b)
    q = a.base.q
    return all(q.leq(x, y) for x, y in zip(a.values, b.values))


# -- homs, joins, meets ---------------------------------------------------------


def presheaf_hom(mu: Presheaf, nu: Presheaf) -> Arrow:
    """The hom arrow from mu to nu: meet over a of left_imp(nu(a), mu(a))."""
    _require(Presheaf, mu.base, "the first operand's base", mu, nu)
    return hom_ix(mu.base.q, mu.base.types, mu.type, nu.type, nu.values, mu.values)


def copresheaf_hom(lam: Copresheaf, kap: Copresheaf) -> Arrow:
    """The hom arrow from lam to kap: meet over a of right_imp(kap(a), lam(a)).

    It is the presheaf hom from kap to lam on the dual base.
    """
    _require(Copresheaf, lam.base, "the first operand's base", lam, kap)
    mu = _presheaf_of(kap)
    return mu.base.q.dual_arrows([presheaf_hom(mu, _presheaf_of(lam))])[0]


def top_presheaf(A: QCategory, qobj: str) -> Presheaf:
    return Presheaf(A, qobj, tuple(A.q.top(t, qobj) for t in A.types))


def _pointwise_bound(A: QCategory, qobj: str, parts, bound) -> Presheaf:
    """``bound`` (``Quantaloid.hom_meet`` or ``hom_join``) at each position."""
    parts = list(parts)
    return Presheaf(A, qobj, tuple(bound(t, qobj, [p.values[i] for p in parts])
                                   for i, t in enumerate(A.types)))


def presheaf_meet(A: QCategory, qobj: str, parts) -> Presheaf:
    """Pointwise meet; the empty meet is the top presheaf."""
    return _pointwise_bound(A, qobj, parts, A.q.hom_meet)


def presheaf_join(A: QCategory, qobj: str, parts) -> Presheaf:
    """Pointwise join; the empty join is the bottom presheaf."""
    return _pointwise_bound(A, qobj, parts, A.q.hom_join)


# -- Yoneda ---------------------------------------------------------------------


def yoneda(A: QCategory, a: str) -> Presheaf:
    """a |-> hom(-, a), of type |a|."""
    i = A.index(a)
    return Presheaf(A, A.types[i], tuple(A.hom[j][i] for j in range(len(A))))


def coyoneda(A: QCategory, a: str) -> Copresheaf:
    """a |-> hom(a, -), of type |a|: the Yoneda embedding of A^op."""
    return _copresheaf_of(yoneda(dualize_category(A), a), A)


def presheaf_residual(A: QCategory, a: str, u: Arrow) -> Presheaf:
    """u residuated by the corepresentable at a: ``left_imp(u, hom(a, -))``, type cod(u)."""
    q = A.q
    i = A.index(a)
    return Presheaf(A, u.dst, tuple(q.left_imp(u, A.hom[i][j]) for j in range(len(A))))


# -- suprema, infima, weighted (co)limits ----------------------------------------


def sup(A: QCategory, mu: Presheaf):
    """The least-label object x with hom(x, -) = hom <l mu, or ``None``: colim(mu, 1_A)."""
    _require(Presheaf, A, "the category", mu)
    return weighted_colimit(mu, identity_functor(A))


def inf(A: QCategory, lam: Copresheaf):
    """The least-label object x with hom(-, x) = lam >r hom, or ``None``."""
    _require(Copresheaf, A, "the category", lam)
    return sup(dualize_category(A), _presheaf_of(lam))


def weighted_colimit(mu: Presheaf, F: QFunctor):
    """Colimit of F weighted by mu, on dom(F): the least-label object whose hom row
    is ``graph(F) <l mu``, or ``None``."""
    _require(Presheaf, F.dom, "the functor's domain", mu)
    A, q, s = F.cod, F.cod.q, mu.type
    target = tuple(hom_ix(q, F.dom.types, s, t, col, mu.values)
                   for t, col in zip(A.types, graph(F).columns))
    return min((x for x, t, row in zip(A.objects, A.types, A.hom) if t == s and row == target),
               default=None)


def weighted_limit(lam: Copresheaf, F: QFunctor):
    """Limit of F weighted by lam: the colimit of F^op weighted by lam^op."""
    _require(Copresheaf, F.dom, "the functor's domain", lam)
    return weighted_colimit(_presheaf_of(lam), dualize_functor(F))


def pushforward(F: QFunctor, mu: Presheaf) -> Presheaf:
    """Transport a presheaf along F: ``mu . cograph(F)``, a presheaf on cod(F)."""
    _require(Presheaf, F.dom, "the functor's domain", mu)
    q, types, t = F.cod.q, F.dom.types, mu.type
    return Presheaf(F.cod, t, tuple(tensor_ix(q, types, p, t, row, mu.values)
                                    for p, row in zip(F.cod.types, cograph(F).matrix)))


# -- pointwise Kan extensions ----------------------------------------------------


def lan(K: QFunctor, F: QFunctor) -> QFunctor:
    """The pointwise left Kan extension of F along K (same domain).

    Raises :class:`ColimitMissing` naming the first point of cod(K) whose
    weighted colimit does not exist.  The graph identity graph(result) =
    graph(F) <l graph(K) holds by construction (each value's hom row is a
    row of the right side) and is pinned by a test.
    """
    if K.dom != F.dom:
        raise BaseMismatch("Kan extension needs functors with a common domain")
    B, gK = K.cod, graph(K)
    mapping = {}
    for b, t, weight in zip(B.objects, B.types, gK.columns):
        c = weighted_colimit(Presheaf(K.dom, t, weight), F)
        if c is None:
            raise ColimitMissing(b, "colimit")
        mapping[b] = c
    G = QFunctor(B, F.cod, mapping, name=f"lan({K.name},{F.name})")
    validate_functor(G).require()
    return G


def ran(H: QFunctor, G: QFunctor) -> QFunctor:
    """The pointwise right Kan extension of G along H (same domain): lan(H^op, G^op).

    The graph identity that holds there by construction is the cograph
    identity cograph(result) = cograph(H) >r cograph(G) here (pinned by a
    test), and a colimit missing there is a limit missing here.
    """
    try:
        L = lan(dualize_functor(H), dualize_functor(G))
    except ColimitMissing as e:
        raise ColimitMissing(e.point, "limit") from None
    return QFunctor(H.cod, G.cod, L.mapping, name=f"ran({H.name},{G.name})")


def find_right_adjoint(F: QFunctor):
    """Try lan(F, identity); adjointness is then tested, not assumed."""
    try:
        G = lan(F, identity_functor(F.dom))
    except ColimitMissing:
        return None
    return G if is_adjoint_functor_pair(F, G) else None


def find_left_adjoint(F: QFunctor):
    """A right adjoint of F^op read back from F.cod to F.dom, or ``None``."""
    G = find_right_adjoint(dualize_functor(F))
    return None if G is None else QFunctor(F.cod, F.dom, G.mapping,
                                           name=f"ran({F.name},1_{F.dom.name})")


# -- density ---------------------------------------------------------------------


def is_dense(F: QFunctor) -> bool:
    """Exact test: graph(F) <l graph(F) equals the identity distributor."""
    g = graph(F)
    return dist_left_imp(g, g) == identity_dist(F.cod)


def is_codense(F: QFunctor) -> bool:
    """F is codense when F^op is dense."""
    return is_dense(dualize_functor(F))


# -- enumeration -----------------------------------------------------------------


def _enumerate(A: QCategory, qobj: str, space: str) -> tuple[Presheaf, ...]:
    """All presheaves of one type on A; ``space`` names them in the budget error."""
    pools = [A.q.arrows(t, qobj) for t in A.types]
    count = math.prod(map(len, pools))
    limit = budget("enumeration")
    if count > limit:
        raise BudgetExceeded("enumeration", limit, count, f"the {space} at type {qobj!r}")
    out = []
    for values in itertools.product(*pools):
        p = Presheaf(A, qobj, values)
        if presheaf_law_ok(p):
            out.append(p)
    return tuple(out)


def enumerate_presheaves(A: QCategory, qobj: str) -> tuple[Presheaf, ...]:
    """All presheaves of one type, in lexicographic value order."""
    return _enumerate(A, qobj, f"presheaf space on {A.name}")


def enumerate_copresheaves(A: QCategory, qobj: str) -> tuple[Copresheaf, ...]:
    """All copresheaves of one type, in lexicographic value order."""
    space = _enumerate(dualize_category(A), qobj, f"copresheaf space on {A.name}")
    return tuple(_copresheaf_of(mu, A) for mu in space)


def is_complete(A: QCategory) -> bool:
    """Does every presheaf on A have a supremum?  Decided on A's hom rows, enumerating none.

    A is complete iff tensored and conically cocomplete (Stubbe, *TAC* 14, 2005).  A
    supremum of mu has the row ``hom <l mu``, which sends joins of presheaves to meets
    of rows, and every presheaf is a join of tensors ``u . hom(-, a)``.  So for each
    type s the rows of the objects of type s must hold the top row, each tensor row
    ``z |-> left_imp(hom(a, z), u)`` for u: |a| -> s, and the meet of any two.

    A row is coded as its values' down-sets side by side, so the meet of two rows is
    one ``&`` of their codes and the top row sets every bit."""
    q, types = A.q, A.types
    for s in q.objects:
        downs, offset = [], 0
        for t in types:
            hom = q.homs[(s, t)]
            downs.append([d << offset for d in hom.down])
            offset += len(hom)

        def code(indices) -> int:
            return sum(d[k] for d, k in zip(downs, indices))

        rows = {code(w.index for w in row) for row, t in zip(A.hom, types) if t == s}
        tensors = (code(r) for row in A.hom
                   for r in zip(*(q.limp_table[(w.src, s, w.dst)][w.index] for w in row)))
        meets = (r1 & r2 for r1, r2 in itertools.combinations(rows, 2))
        if not rows.issuperset(itertools.chain([(1 << offset) - 1], tensors, meets)):
            return False
    return True


# -- materialized (co)presheaf categories ------------------------------------------


def _value_labels(p) -> tuple[str, ...]:
    """The labels of p's values in base order: the printed form of a (co)presheaf."""
    return tuple(map(p.base.q.label, p.values))


def _printed(p, values) -> str:
    return p.type + "|" + ",".join(f"{x}:{v}" for x, v in zip(p.base.objects, values))


def presheaf_label(p) -> str:
    """Deterministic readable label: ``type|x1:v1,x2:v2``."""
    return _printed(p, _value_labels(p))


class PresheafFamily:
    """Labelled (co)presheaves on one base, and the category they span.

    ``members`` keep the order they are given in; their ``value_labels`` and
    ``labels`` (``presheaf_label``s) are computed here, once per member, for
    serializers to read by position.  The lookups of ``label_of`` and
    ``member_of``, and ``category`` (the members' homs), are built on first use.
    """

    def __init__(self, base: QCategory, members, name: str):
        self.base = base
        self.members = tuple(members)
        self.value_labels = tuple(map(_value_labels, self.members))
        self.labels = tuple(map(_printed, self.members, self.value_labels))
        self.name = name

    def _hom(self) -> list:
        return [[presheaf_hom(m, m2) for m2 in self.members] for m in self.members]

    @property
    def category(self) -> QCategory:
        return _kept(self, "category", lambda s: QCategory(
            s.base.q, s.labels, [m.type for m in s.members], s._hom(), name=s.name))

    def __len__(self) -> int:
        return len(self.members)

    def label_of(self, m) -> str:
        by_key = _kept(self, "_by_key", lambda s: dict(zip(map(_Vector.key, s.members), s.labels)))
        try:
            return by_key[m.key()]
        except KeyError:
            raise QfcaError(f"{presheaf_label(m)} is not a member of {self.name}") from None

    def member_of(self, label: str):
        return _kept(self, "_by_label", lambda s: dict(zip(s.labels, s.members)))[label]

    def functor_from(self, dom: QCategory, assignment, name: str = "") -> QFunctor:
        """Build a functor into this family from a member-valued map on dom's objects."""
        mapping = {x: self.label_of(assignment(x)) for x in dom.objects}
        return QFunctor(dom, self.category, mapping, name=name or "into-presheaves")

    def functor_to(self, other: "PresheafFamily", f, name: str = "") -> QFunctor:
        """Build a functor into another family that sends each member m to f(m)."""
        mapping = {lbl: other.label_of(f(m)) for lbl, m in zip(self.labels, self.members)}
        return QFunctor(self.category, other.category, mapping, name=name or "between-spaces")


class PresheafSpace(PresheafFamily):
    """The category of all (co)presheaves on a base, with value lookups.

    Members are enumerated per type in quantaloid object order, lexicographic
    within a type, so labels and hom matrices are reproducible.  The
    copresheaf flavour is the opposite of the presheaf category on the dual
    base, which makes its underlying order the correct (reversed) one.
    """

    def __init__(self, base: QCategory, kind: str = "presheaf"):
        if kind not in ("presheaf", "copresheaf"):
            raise QfcaError(f"unknown flavour {kind!r}")
        self.kind = kind
        enumerate_kind = enumerate_presheaves if kind == "presheaf" else enumerate_copresheaves
        members = [m for qobj in base.q.objects for m in enumerate_kind(base, qobj)]
        super().__init__(base, members, f"{'P' if kind == 'presheaf' else 'P+'}({base.name})")

    def _hom(self) -> list:
        if self.kind == "presheaf":
            return super()._hom()
        # the opposite of the presheaf category on the dual base
        duals = [_presheaf_of(m) for m in self.members]
        hom = [[presheaf_hom(d, d2) for d2 in duals] for d in duals]
        return [self.base.q.opposite().dual_arrows(col) for col in zip(*hom)]

    def yoneda_functor(self) -> QFunctor:
        if self.kind == "presheaf":
            return self.functor_from(self.base, lambda a: yoneda(self.base, a), name="yoneda")
        return self.functor_from(self.base, lambda a: coyoneda(self.base, a), name="coyoneda")


def materialize_presheaves(base: QCategory) -> PresheafSpace:
    return PresheafSpace(base, "presheaf")


def materialize_copresheaves(base: QCategory) -> PresheafSpace:
    return PresheafSpace(base, "copresheaf")


# -- order-level density -----------------------------------------------------------


def _join_dense(X: QCategory, image) -> bool:
    """Is every object of X the underlying join of objects from ``image``?  X is not checked.

    Uses the canonical witness: the set of all image objects below y.  If any
    subset of the image joins to y then that canonical set does too (joins
    are monotone in the subset), so this decides the subset search exactly.
    The witness join is the supremum of the pointwise join of the representables;
    where that is missing, as it may be in an incomplete X, y is not a join."""
    order = underlying_order(X)
    image = sorted(set(image), key=X.index)
    for y in X.objects:
        below = [s for s in image if X.type_of(s) == X.type_of(y) and order.leq(s, y)]
        mu = presheaf_join(X, X.type_of(y), [yoneda(X, s) for s in below])
        j = sup(X, mu)
        if j is None or not order.iso(j, y):
            return False
    return True


def image_join_dense(X: QCategory, image) -> bool:
    """Is every object of X the underlying join of objects from ``image``?  X must be complete."""
    if not is_complete(X):
        raise QfcaError(f"{X.name} is not complete; join-density is undefined here")
    return _join_dense(X, image)


def image_meet_dense(X: QCategory, image) -> bool:
    """Is every object of X the underlying meet of objects from ``image``?  X must be
    complete; meets in X are joins in X^op, so this is join-density there."""
    if not is_complete(X):
        raise QfcaError(f"{X.name} is not complete; meet-density is undefined here")
    return _join_dense(dualize_category(X), image)


def is_join_dense(F: QFunctor) -> bool:
    return image_join_dense(F.cod, {F(x) for x in F.dom.objects})


def is_meet_dense(F: QFunctor) -> bool:
    return image_meet_dense(F.cod, {F(x) for x in F.dom.objects})
