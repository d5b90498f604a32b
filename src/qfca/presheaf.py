"""Presheaves and copresheaves: the currency of enriched concept lattices.

A presheaf on A with type q is a distributor from A into the one-object
category on q; concretely a vector of arrows ``values[i]: |x_i| -> q`` with
``values[i] . hom(x_j, x_i) <= values[j]`` for all i, j.  A copresheaf points
the other way: ``values[i]: q -> |x_i|``.

A copresheaf on A over Q is a presheaf on the dual A^op over Q^op, so the
copresheaf enumeration (whose codes the adjunction laws' dual context shares),
right Kan extensions and codensity are their presheaf twins run on that dual.
A copresheaf's code is laid out on A itself (a co ``_SetCode``), and its homs,
meets of right residuals, are read off ``rimp_table`` on A (``right_rows``).

Order warning: the copresheaf category on A is the opposite of the presheaf
category on A^op, so its underlying order is the *reverse* of the entrywise
arrow order.  Functions here always state which order they use.

``materialize_presheaves``/``materialize_copresheaves`` build the presheaf and
copresheaf categories, for oracle tests and for what needs the whole space
(the density suite, the adjunction of the general and dense canonical
representation data).  A space is enumerated as the join closure of the
tensors ``u . hom(-, a)`` on int codes, so it costs what it holds, and the
enumeration cap bounds the members produced.  What depends on the base alone
is built once and kept on the base: the code layouts, the member codes and
their order, their value rows and down-set codes, and each space's rows and
category.  ``PresheafFamily`` is the one family class: every family holds its
members as runs of a ``_SetCode`` and codes, decodes each run once, in one
batch, into value rows, and builds its members on those rows; a space checks
the cap on every call.  The same code lays out the hom rows that
``is_complete`` compares, as copresheaves on A.
Every hom between (co)presheaves, one or a whole family's matrix, is one call
of a residuation kernel of ``qdist`` on the members' own value rows:
``hom_rows`` (left residuals) for presheaves, ``right_rows`` (right
residuals) for copresheaves.  A functor into a family takes value rows, and a
family map of them (``_per_type``), and looks each image up once.  A weighted
colimit is one lookup, ``_suprema``, from a hom row to its least-label object;
``lan`` and the join-density test read it.  A join-density witness is a fold of
join tables over hom indices; no ``Arrow`` operation of the quantaloid runs there.
"""

from __future__ import annotations

import itertools

from .errors import (BaseMismatch, BudgetExceeded, ColimitMissing, InvalidParams, QfcaError,
                     TypeMismatch, _Frozen, budget)
from .qcat import (
    QCategory,
    QFunctor,
    dualize_category,
    dualize_functor,
    identity_functor,
    underlying_order,
    validate_functor,
)
from .qdist import hom_rows, right_rows
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

    def key(self):
        return (self.type, self.values)


class Presheaf(_Vector):
    """A vector ``values[i]: |x_i| -> type`` over the base carrier."""


class Copresheaf(_Vector):
    """A vector ``values[i]: type -> |x_i|`` over the base carrier."""


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


# -- homs, joins, meets ---------------------------------------------------------


def presheaf_hom(mu: Presheaf, nu: Presheaf) -> Arrow:
    """The hom arrow from mu to nu: meet over a of left_imp(nu(a), mu(a)); ``hom_rows``."""
    _require(Presheaf, mu.base, "the first operand's base", mu, nu)
    return next(hom_rows(mu.base.q, mu.base.types, [mu.key()], [nu.key()]))[0]


def copresheaf_hom(lam: Copresheaf, kap: Copresheaf) -> Arrow:
    """The hom arrow from lam to kap: meet over a of right_imp(kap(a), lam(a)), one
    ``right_rows`` entry read off ``rimp_table`` on lam's own base."""
    _require(Copresheaf, lam.base, "the first operand's base", lam, kap)
    return next(right_rows(lam.base.q, lam.base.types, [lam.key()], [kap.key()]))[0]


def presheaf_meet(A: QCategory, qobj: str, parts) -> Presheaf:
    """Pointwise meet; the empty meet is the top presheaf."""
    parts = list(parts)
    return Presheaf(A, qobj, tuple(A.q.hom_meet(t, qobj, [p.values[i] for p in parts])
                                   for i, t in enumerate(A.types)))


# -- Yoneda ---------------------------------------------------------------------


def yoneda(A: QCategory, a: str) -> Presheaf:
    """a |-> hom(-, a), of type |a|."""
    i = A.index(a)
    return Presheaf(A, A.types[i], tuple(A.hom[j][i] for j in range(len(A))))


def coyoneda(A: QCategory, a: str) -> Copresheaf:
    """a |-> hom(a, -), of type |a|: row a of the hom matrix."""
    i = A.index(a)
    return Copresheaf(A, A.types[i], A.hom[i])


def presheaf_residual(A: QCategory, a: str, u: Arrow) -> Presheaf:
    """u residuated by the corepresentable at a: ``left_imp(u, hom(a, -))``, type cod(u).
    Read off ``limp_table``."""
    q, i, t = A.q, A.index(a), u.dst
    if u.src != A.types[i]:
        raise TypeMismatch(f"{u} does not start at the type of {a}")
    return Presheaf(A, t, tuple(q.arrow_table[p, t][q.limp_table[u.src, p, t][u.index][h.index]]
                                for p, h in zip(A.types, A.hom[i])))


# -- weighted colimits ------------------------------------------------------------


def _graph_columns(F: QFunctor) -> list[tuple[str, tuple[Arrow, ...]]]:
    """Each object y of cod(F) as ``(|y|, graph(F)(-, y))``, the column of hom(F-, y)
    read off the hom rows of cod(F) at the images; F must preserve types."""
    B = F.cod
    images = [B.index(F(x)) for x in F.dom.objects]
    if any(B.types[i] != s for i, s in zip(images, F.dom.types)):
        raise TypeMismatch(f"{F.name} does not preserve types, so it has no graph")
    return [(t, tuple(B.hom[i][j] for i in images)) for j, t in enumerate(B.types)]


def _suprema(F: QFunctor, weights):
    """Per weight ``(s, values)`` on dom(F), in order: its colimit along F, the
    least-label object of cod(F) whose hom row is ``graph(F) <l weight``, or ``None``.

    One ``hom_rows`` call runs over all the weights, and each row is looked up in
    one dict from a hom row of cod(F) to its least-label object.  The arrows of a
    row start at its object's type, so the row alone fixes that type.  The lookups
    are yielded as the rows are, so a caller may stop after any weight."""
    B, least = F.cod, {}
    for x, row in zip(B.objects, B.hom):
        if least.setdefault(row, x) > x:
            least[row] = x
    return map(least.get, map(tuple, hom_rows(B.q, F.dom.types, weights, _graph_columns(F))))


# -- pointwise Kan extensions ----------------------------------------------------


def lan(K: QFunctor, F: QFunctor) -> QFunctor:
    """The pointwise left Kan extension of F along K (same domain), weighted by the
    columns of graph(K) as read off the hom rows of cod(K) (``_graph_columns``).

    Raises :class:`ColimitMissing` naming the first point of cod(K) whose
    weighted colimit does not exist.  The graph identity graph(result) =
    graph(F) <l graph(K) holds by construction (each value's hom row is a
    row of the right side) and is pinned by a test.
    """
    if K.dom != F.dom:
        raise BaseMismatch("Kan extension needs functors with a common domain")
    B = K.cod
    mapping = dict(zip(B.objects, _suprema(F, _graph_columns(K))))
    for b, c in mapping.items():
        if c is None:
            raise ColimitMissing(b, "colimit")
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


# -- density ---------------------------------------------------------------------


def is_dense(F: QFunctor) -> bool:
    """Exact test: graph(F) <l graph(F) equals the identity distributor.  Its rows are
    compared with the hom rows of cod(F) as the kernel yields them, up to the first
    that differs."""
    B, cols = F.cod, _graph_columns(F)
    return all(line == list(row)
               for line, row in zip(hom_rows(B.q, F.dom.types, cols, cols), B.hom))


def is_codense(F: QFunctor) -> bool:
    """F is codense when F^op is dense."""
    return is_dense(dualize_functor(F))


# -- enumeration -----------------------------------------------------------------


class _SetCode:
    """Presheaves of one type on a base as ints: their values' down-sets (or
    up-sets, ``sets="up"``) side by side, ``q.homs[(|x_i|, qobj)].down[v_i]``
    in ``fields[i]``.  In a lattice the down-set of a meet is the intersection
    of the down-sets, and the up-set of a join that of the up-sets, so ``&``
    is the pointwise meet of down-set codes and the join of up-set codes.
    ``top`` sets every bit: the top presheaf, or the bottom one on up-sets.
    With ``co`` the codes are copresheaves, laid out from ``q.homs[(qobj, |x_i|)]``:
    Q^op holds these as its homs into qobj, so this is the plain layout on the dual
    base bit for bit, and it decodes the codes there straight to q's arrows.
    Codes are read back a batch at a time, one position at a time for all of
    them, through a table from the bits of its field to the value there: its
    ``Arrow`` for ``value_rows``, built on first use, or its label for
    ``printed``.  ``decode`` is the one-code call of ``value_rows``.
    """

    def __init__(self, base: QCategory, qobj: str, sets: str = "down", co: bool = False):
        self.base, self.qobj, self.co = base, qobj, co
        self.rows, self.fields, self.top = _kept(base, f"_{sets}-sets {qobj}{' co' * co}",
                                                 lambda A: _layout(A, qobj, sets, co))

    def pack(self, indices) -> int:
        return sum(rows[k] for rows, k in zip(self.rows, indices))

    def _read(self, values) -> list[dict]:
        """Per position i, the bits of its field to ``values(hom)`` by value index,
        for the position's hom ``(|x_i|, qobj)``, or ``(qobj, |x_i|)`` if ``co``."""
        s, co = self.qobj, self.co
        return [dict(zip(rows, values((s, t) if co else (t, s))))
                for t, rows in zip(self.base.types, self.rows)]

    def value_rows(self, codes) -> list[tuple[Arrow, ...]]:
        """The value rows of ``codes``, decoded in one batch: each position's values
        are read for all the codes at once, by one ``map`` through a table from the
        bits of its field to the value's ``Arrow``, and zipped into one tuple per
        code."""
        if not self.fields or not codes:  # no objects: one empty row per code
            return [()] * len(codes)
        at = _kept(self, "_arrows", lambda s: s._read(s.base.q.arrow_table.__getitem__))
        return list(zip(*[map(values.__getitem__, map(field.__and__, codes))
                          for field, values in zip(self.fields, at)]))

    def decode(self, code: int) -> Presheaf | Copresheaf:
        return (Copresheaf if self.co else Presheaf)(self.base, self.qobj,
                                                     self.value_rows([code])[0])

    def printed(self, codes) -> tuple[list[str], list[tuple]]:
        """The codes' ``presheaf_label``s and value labels, decoding nothing: each
        position's value labels and ``x:v`` strings are read for all codes at
        once, through two tables, and zipped into one tuple and label per code."""
        head = self.qobj + "|"
        labels = self._read(lambda pq: self.base.q.homs[pq].elements)
        pairs = [{bits: f"{x}:{v}" for bits, v in at.items()}
                 for x, at in zip(self.base.objects, labels)]
        values, shown = [()] * len(codes), [()] * len(codes)
        if self.fields:  # a base with no objects prints ``qobj|`` and ``()``
            bits = [list(map(field.__and__, codes)) for field in self.fields]
            values = list(zip(*[map(at.__getitem__, bs) for at, bs in zip(labels, bits)]))
            shown = zip(*[map(at.__getitem__, bs) for at, bs in zip(pairs, bits)])
        return [head + ",".join(xs) for xs in shown], values


def _layout(A: QCategory, qobj: str, sets: str, co: bool) -> tuple[tuple, tuple, int]:
    """A ``_SetCode``'s rows, fields and top, kept on A: ints only.  A type that
    is not an object of A's quantaloid is refused here, before anything is kept."""
    if qobj not in A.q.objects:
        raise InvalidParams(f"type {qobj!r} is not an object of {A.q.name}; "
                            f"its objects are {list(A.q.objects)}")
    rows, fields, offset = [], [], 0
    for t in A.types:
        sets_at = getattr(A.q.homs[(qobj, t) if co else (t, qobj)], sets)
        rows.append(tuple(d << offset for d in sets_at))
        fields.append(((1 << len(sets_at)) - 1) << offset)
        offset += len(sets_at)
    return tuple(rows), tuple(fields), (1 << offset) - 1


def _and_closure(generators, kind: str, error: type, what: str) -> list[int]:
    """The generator codes closed under ``&``, in insertion order.

    Each generator that is not yet present is added, followed by its ``&`` with
    every code present before it.  That keeps the set closed, since
    ``(g & x) & (g & y) == g & (x & y)``, so the closure costs one AND per
    generator and code.  More codes than the ``kind`` cap raise ``error``
    (a :class:`BudgetExceeded`) naming ``what`` and the count reached.
    """
    limit = budget(kind)
    codes: list[int] = []
    seen: set[int] = set()
    for g in generators:
        if g in seen:
            continue
        for m in [g] + [g & x for x in codes]:
            if m not in seen:
                seen.add(m)
                codes.append(m)
                if len(codes) > limit:
                    raise error(kind, limit, len(codes), what)
    return codes


def _member_codes(A: QCategory, qobj: str, space: str,
                  sets: str = "up") -> tuple[_SetCode, tuple[int, ...]]:
    """All presheaves of one type on A as codes of ``_SetCode(A, qobj, sets)``, in
    lexicographic value order: the ``_SetCode`` and the codes; ``space`` names
    them in the budget error.

    The up-set codes are kept on A with the size of the closure that produced
    them, so a kept space trips a lower cap set later exactly as a fresh
    enumeration would.  The down-set codes are packed from ``_member_rows`` on
    first use and kept beside them, under their layout's name.
    """
    what = f"the {space} at type {qobj!r}"
    closed, codes = _kept(A, f"_members {qobj}", lambda A: _closed_members(A, qobj, what))
    limit = budget("enumeration")
    if closed > limit:  # the closure raises on reaching limit + 1 codes
        raise BudgetExceeded("enumeration", limit, limit + 1, what)
    code = _SetCode(A, qobj, sets)
    if sets == "down":
        codes = _kept(A, f"_members {qobj} down", lambda A: tuple(
            code.pack(v.index for v in values) for values in _member_rows(A, qobj, space)))
    return code, codes


def _member_rows(A: QCategory, qobj: str, space: str) -> tuple[tuple[Arrow, ...], ...]:
    """The value rows of ``_member_codes``, decoded in one batch and kept on A
    beside the codes."""
    code, codes = _member_codes(A, qobj, space)
    return _kept(A, f"_rows {qobj}", lambda A: tuple(code.value_rows(codes)))


def _closed_members(A: QCategory, qobj: str, what: str) -> tuple[int, tuple[int, ...]]:
    """The size of the closure below and the member codes it leaves, sorted.

    By Yoneda every presheaf mu is the join of its tensors ``mu(a) . hom(-, a)``, and
    every join of tensors is a presheaf.  So the space is the join closure of the
    tensors ``v . hom(-, a)``, over objects a and arrows v: |a| -> qobj, with the
    bottom presheaf as the empty join: on up-set codes, the ``&`` closure of their
    codes and the full code.  The enumeration cap bounds the members produced.

    The closure is exact on any tables, valid or not: where a tensor falls below v
    at a itself, the vector with v at a and the bottom elsewhere generates instead,
    and each member is kept only if the join of its own tensors lies below it, which
    is the presheaf law.
    """
    code, comp, types = _SetCode(A, qobj, "up"), A.q.compose_table, A.types
    tensors = [[code.pack(comp[p, t, qobj][v][row[i].index] for p, row in zip(types, A.hom))
                for v in range(len(rows))] for i, (t, rows) in enumerate(zip(types, code.rows))]
    generators = [code.top] + [
        c if c & field & ~up == 0 else code.top & ~field | up
        for field, rows, cs in zip(code.fields, code.rows, tensors) for up, c in zip(rows, cs)]
    codes = _and_closure(generators, "enumeration", BudgetExceeded, what)
    value_at = [dict(zip(rows, itertools.count())) for rows in code.rows]

    def indices(c: int) -> list[int]:
        return [at[c & field] for field, at in zip(code.fields, value_at)]

    def law_ok(c: int) -> bool:
        joined = -1
        for v, cs in zip(indices(c), tensors):
            joined &= cs[v]
        return c & ~joined == 0

    return len(codes), tuple(sorted(filter(law_ok, codes), key=indices))


def enumerate_presheaves(A: QCategory, qobj: str) -> tuple[Presheaf, ...]:
    """All presheaves of one type, in lexicographic value order: ``_member_rows``."""
    return tuple(Presheaf(A, qobj, values)
                 for values in _member_rows(A, qobj, f"presheaf space on {A.name}"))


def enumerate_copresheaves(A: QCategory, qobj: str) -> tuple[Copresheaf, ...]:
    """All copresheaves of one type, in lexicographic value order, enumerated on A^op."""
    _, codes = _member_codes(dualize_category(A), qobj, f"copresheaf space on {A.name}")
    return tuple(Copresheaf(A, qobj, values)
                 for values in _SetCode(A, qobj, "up", co=True).value_rows(codes))


def is_complete(A: QCategory) -> bool:
    """Does every presheaf on A have a supremum?  Decided on A's hom rows, enumerating none.

    A is complete iff tensored and conically cocomplete (Stubbe, *TAC* 14, 2005).  A
    supremum of mu has the row ``hom <l mu``, which sends joins of presheaves to meets
    of rows, and every presheaf is a join of tensors ``u . hom(-, a)``.  So for each
    type s the rows of the objects of type s must hold the top row, each tensor row
    ``z |-> left_imp(hom(a, z), u)`` for u: |a| -> s, and the meet of any two.

    A row ``hom(x, -)`` is coded as a copresheaf on A of type s, by its values'
    down-sets side by side (the co ``_SetCode`` of A at s), so the meet of two rows
    is one ``&`` of their codes and the top row sets every bit."""
    q, types = A.q, A.types
    for s in q.objects:
        code = _SetCode(A, s, co=True)
        rows = {code.pack(w.index for w in row) for row, t in zip(A.hom, types) if t == s}
        tensors = (code.pack(r) for row in A.hom
                   for r in zip(*(q.limp_table[(w.src, s, w.dst)][w.index] for w in row)))
        meets = (r1 & r2 for r1, r2 in itertools.combinations(rows, 2))
        if not rows.issuperset(itertools.chain([code.top], tensors, meets)):
            return False
    return True


# -- materialized (co)presheaf categories ------------------------------------------


def presheaf_label(p) -> str:
    """Deterministic readable label: ``type|x1:v1,x2:v2``."""
    label = p.base.q.label
    return p.type + "|" + ",".join(f"{x}:{label(v)}" for x, v in zip(p.base.objects, p.values))


class PresheafFamily:
    """Labelled (co)presheaves on one base, held as codes, and the category they span.

    ``coded`` holds runs of a ``_SetCode`` and its members' codes, in member
    order.  ``value_rows``, the members' pairs (type, values), are decoded in
    one batch per run on first use; every reader of the members' values reads
    them.  ``members``, the ``_vector``s built on those rows, their
    ``value_labels`` and ``labels`` (``presheaf_label``s), read off the codes
    for serializers to read by position, the lookup of ``labels_of``, and
    ``category`` (the members' homs) are built on first use.  A functor into
    a family is given by value rows, each sent to its member directly or
    through a family map f: a map ``f(s, rows)`` from value rows of one type s
    to their image rows, such as a closure pair's ``lefts``, ``rights`` and
    ``closures``.
    """

    _tag = None  # set on a family that its base alone determines
    _vector = Presheaf  # the class of the members

    def __init__(self, base: QCategory, coded, name: str):
        self.base, self.coded, self.name = base, tuple(coded), name

    def _keep(self, attr: str, build):
        """``build(self)``, kept on the family; with a ``_tag``, kept on the base under
        ``attr`` and the tag, so every family built on that base reads it."""
        if self._tag is None:
            return _kept(self, attr, build)
        return _kept(self.base, f"{attr} {self._tag}", lambda _: build(self))

    @property
    def value_rows(self) -> tuple:
        """The members' pairs (type, values) in member order; kept by ``_keep``, so a
        family that its base determines keeps them on the base.  They hold only
        strings and interned arrows."""
        return self._keep("_value_rows", lambda s: tuple(
            (code.qobj, values) for code, codes in s.coded for values in s._decoded(code, codes)))

    def _decoded(self, code, codes):
        """The value rows of one run, decoded in one batch."""
        return code.value_rows(codes)

    @property
    def members(self) -> tuple:
        """The ``_vector``s on ``value_rows``, kept on the family: they refer to the base."""
        return _kept(self, "_members", lambda s: tuple(
            s._vector(s.base, t, values) for t, values in s.value_rows))

    labels = property(lambda self: self._printed_forms()[0])
    value_labels = property(lambda self: self._printed_forms()[1])

    def _printed_forms(self) -> tuple[tuple, tuple]:
        """``(labels, value_labels)``, read off each run's codes on first use."""
        def build(s):
            runs = [code.printed(codes) for code, codes in s.coded]
            return (tuple(label for labels, _ in runs for label in labels),
                    tuple(vs for _, values in runs for vs in values))
        return self._keep("_labels", build)

    @property
    def category(self) -> QCategory:
        return self._keep("category", PresheafFamily._span)

    def _span(self) -> QCategory:
        """The members' homs, one kernel call on ``value_rows``: ``hom_rows`` for
        presheaves, ``right_rows`` for copresheaves."""
        kernel, rows = right_rows if self._vector is Copresheaf else hom_rows, self.value_rows
        return QCategory(self.base.q, self.labels, [t for t, _ in rows],
                         list(kernel(self.base.q, self.base.types, rows, rows)), name=self.name)

    def __len__(self) -> int:
        return sum(len(codes) for _, codes in self.coded)

    def labels_of(self, rows, f=None) -> list[str]:
        """The labels of the members whose value rows are ``rows``, pairs (type, values),
        or, given a family map f, their images ``_per_type(f, rows)``."""
        by_key = self._keep("_by_key", lambda s: dict(zip(s.value_rows, s.labels)))
        if f is not None:
            rows = zip([s for s, _ in rows], _per_type(f, rows))
        try:
            return [by_key[s, tuple(values)] for s, values in rows]
        except KeyError as missing:
            shown = presheaf_label(Presheaf(self.base, *missing.args[0]))
            raise QfcaError(f"{shown} is not a member of {self.name}") from None

    def label_of(self, m) -> str:
        return self.labels_of([m.key()])[0]

    def functor_from(self, dom: QCategory, rows, f=None, name: str = "") -> QFunctor:
        """The functor into this family that sends each object of dom, whose value row
        ``rows`` holds in dom's order, to its member (``labels_of``)."""
        return QFunctor(dom, self.category, dict(zip(dom.objects, self.labels_of(rows, f))),
                        name=name or "into-presheaves")

    def functor_to(self, other: "PresheafFamily", f=None, name: str = "") -> QFunctor:
        """The functor into another family that sends each member, as its value row, to
        its image under the family map f, or to itself (``functor_from``)."""
        return other.functor_from(self.category, self.value_rows, f,
                                  name=name or "between-spaces")


def _per_type(f, rows) -> list:
    """A family map f on ``rows``, pairs (type, values): one call ``f(s, the values of
    type s)`` per type s, whose image rows come back in the order of ``rows``."""
    runs: dict[str, list[int]] = {}
    for k, (s, _) in enumerate(rows):
        runs.setdefault(s, []).append(k)
    images = [None] * len(rows)
    for s, ks in runs.items():
        for k, image in zip(ks, f(s, [rows[k][1] for k in ks])):
            images[k] = image
    return images


class PresheafSpace(PresheafFamily):
    """The category of all (co)presheaves on a base, with value lookups.

    Members are enumerated per type in quantaloid object order, lexicographic
    within a type, so labels and hom matrices are reproducible.  The
    copresheaf flavour is the opposite of the presheaf category on the dual
    base, which makes its underlying order the correct (reversed) one.  Its
    codes are those of the presheaves on the dual base, enumerated and kept
    there (``_member_codes``), on the co layout of its own base, so its value
    rows decode straight to its own arrows.  The space's rows, labels and
    category are kept on its own base; the presheaf flavour's rows are the
    base's kept ``_member_rows``, the same tuples, decoded once.
    """

    def __init__(self, base: QCategory, kind: str = "presheaf"):
        if kind not in ("presheaf", "copresheaf"):
            raise QfcaError(f"unknown flavour {kind!r}")
        self.kind, self._tag = kind, kind
        co = kind == "copresheaf"
        self._vector = Copresheaf if co else Presheaf
        on, what = dualize_category(base) if co else base, f"{kind} space on {base.name}"
        super().__init__(base, [(_SetCode(base, qobj, "up", co), _member_codes(on, qobj, what)[1])
                                for qobj in base.q.objects],
                         f"{'P+' if co else 'P'}({base.name})")

    def _decoded(self, code, codes):
        if self.kind == "copresheaf":
            return code.value_rows(codes)
        return _member_rows(self.base, code.qobj, f"presheaf space on {self.base.name}")

    def yoneda_functor(self) -> QFunctor:
        A = self.base
        if self.kind == "presheaf":
            return self.functor_from(A, [yoneda(A, a).key() for a in A.objects], name="yoneda")
        return self.functor_from(A, [coyoneda(A, a).key() for a in A.objects], name="coyoneda")


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
    The witness, the pointwise join of their representables, is at each position x
    a fold of the ``joins`` table over the indices ``X.hom[x][s]``.  Its supremum is
    its colimit along the identity (``_suprema``); where that is missing, as it may
    be in an incomplete X, y is not a join."""
    order, q = underlying_order(X), X.q
    image = [(s, X.index(s)) for s in sorted(set(image), key=X.index)]
    folds = {t: [(q.homs[p, t].joins, q.homs[p, t].bottom, q.arrow_table[p, t]) for p in X.types]
             for t in set(X.types)}

    def witnesses():
        for y, t in zip(X.objects, X.types):
            below = [i for s, i in image if X.types[i] == t and order.leq(s, y)]
            values = []
            for (joins, k, arrows), row in zip(folds[t], X.hom):
                for i in below:
                    k = joins[k][row[i].index]
                values.append(arrows[k])
            yield t, values

    return all(j is not None and order.iso(j, y)
               for y, j in zip(X.objects, _suprema(identity_functor(X), witnesses())))
