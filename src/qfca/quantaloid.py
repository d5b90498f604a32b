"""Finite quantaloids: hom-lattices, composition, residuation, presets.

A quantaloid here is a small category whose hom-sets are finite complete
lattices and whose composition preserves joins in each variable.  Everything
is exact and symbolic: an arrow is an index into an explicit element list, and
no floating point is used anywhere.

Lattice operations and both residuations read integer tables, built when a
quantaloid is constructed and never changed afterwards:

* per hom (``HomLattice``): the order as bitmask rows, binary join and meet
  tables, top and bottom; on a poset the join of i and j is read off a dict
  as the element whose up-set is up[i] & up[j].  The quantaloid adds one
  interned ``Arrow`` per element;
* per object triple (p, q, r), beside ``compose_table[(p, q, r)]``: the
  residuations ``limp_table`` and ``rimp_table``, derived from the
  composition table by the join formula

    left_imp(w, u)  = join { v | v . u <= w }
    right_imp(v, w) = join { u | v . u <= w }

Each set on the right is flagged, one byte per element, by a single
``bytes.translate`` of a row or column of the composition table.  On valid
tables it is a principal down-set, whose top is one dict lookup; any other
set is folded by binary joins.  So the adjunction
v.u <= w  iff  v <= left_imp(w,u)  iff  u <= right_imp(v,w)  holds by
construction on valid input.  ``validate_quantaloid`` decides the laws on
``bytes`` too, comparing translated rows, and scans the tables entry by
entry only when a law fails, to write the report.  The opposite quantaloid,
built on first use, shares the hom tables and transposes the others.

Tables are built once per distinct hom and table, not per object triple.
Triples whose three homs and composition table are the same objects share
the checked rows, both residuation tables and the validator's decision of
the adjunction, and the opposite transposes each distinct table once; only
the unit laws and associativity are decided per triple.  The frame-diagonal
presets build their homs and tables this way (``_frame_diagonal``).

A quantaloid is built only over complete lattices: the constructor refuses
a hom that breaks a poset or lattice law (``HomLattice.issues``) with a
:class:`ValidationFailed` report of every broken law, so every table entry
exists.  The chain presets are product tables, built by the same builder as
a custom quantale.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no locking.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import (
    InvalidParams,
    NotGirard,
    SearchBudgetExceeded,
    TypeMismatch,
    ValidationFailed,
    ValidationReport,
    _Frozen,
    budget,
)


class Arrow(_Frozen):
    """An arrow src -> dst, identified by its ordinal in that hom-lattice; arrows
    order as ``(src, dst, index)`` tuples.  Equality and hashing are spelled
    out: they run wherever arrows are compared or hashed, as in (co)presheaf and
    distributor equality and the value-row lookups of ``PresheafFamily.labels_of``."""

    _fields = ("src", "dst", "index")

    def __init__(self, src: str, dst: str, index: int):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.src, self.dst, self.index) == (other.src, other.dst, other.index)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.index))

    def _order(op):
        def compare(self, other):
            if other.__class__ is self.__class__:
                return op((self.src, self.dst, self.index), (other.src, other.dst, other.index))
            return NotImplemented
        return compare

    __lt__, __le__, __gt__, __ge__ = map(_order, (operator.lt, operator.le, operator.gt,
                                                  operator.ge))
    del _order


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*rows))


def _kept(owner, attr: str, build):
    """``build(owner)``, built on first use and kept on ``owner`` as ``attr``.

    Every lazily built value is kept this way, on the object it belongs to;
    there is no module-level cache.  ``dict.setdefault`` publishes the value
    atomically: callers racing here all get the one value stored.

    A base category keeps its dual and what the presheaf verifiers compute from
    it alone: the ``_SetCode`` layouts, plain and co, the member codes and their
    order, their value rows and down-set codes, and the value rows, categories,
    labels and label lookups of its (co)presheaf spaces and residual category,
    with the residual members' provenance.  A context keeps its columns, its dual,
    the passing verdict of ``validate_distributor`` (a bare ``True``; a failing
    one is not kept) and, per kind and type, its closure pairs' code tables with
    their ``_SetCode`` layouts and closure.  These hold only ints, strings,
    arrows, functions of them and categories over the quantaloid, so none
    refers back to its owner, which reference counting alone still frees.  A
    quantaloid keeps only its opposite, and a hom-lattice only its ``_below``
    tables.
    """
    value = owner.__dict__.get(attr)
    if value is None:
        value = owner.__dict__.setdefault(attr, build(owner))
    return value


class HomLattice:
    """A finite lattice of arrow labels with an explicit order relation.

    The order is kept as bitmask rows: bit j of ``up[i]`` and bit i of
    ``down[j]`` are set when i <= j.  ``joins[i][j]``/``meets[i][j]``, ``top``
    and ``bottom`` are computed once, here, equal to what ``bound`` gives; an
    entry is ``None`` where that bound does not exist.  ``issues`` records each broken poset or
    lattice law as ``(code, element labels, detail)``, in the order a
    ``Quantaloid`` refusing the hom reports them; it is empty exactly when the
    hom is a complete lattice.
    """

    def __init__(self, elements: tuple[str, ...], leq_pairs: frozenset[tuple[int, int]]):
        if len(set(elements)) != len(elements):
            raise InvalidParams(f"duplicate element labels in hom: {elements}")
        self.elements = el = tuple(elements)
        n = len(el)
        self.leq_pairs = frozenset(leq_pairs)
        up, down = [0] * n, [0] * n
        for i, j in self.leq_pairs:
            up[i] |= 1 << j
            down[j] |= 1 << i
        self.up, self.down = tuple(up), tuple(down)
        self._all = (1 << n) - 1
        issues = [("poset.reflexive", (el[i],), "x <= x fails")
                  for i in range(n) if not up[i] >> i & 1]
        issues += [("poset.antisymmetric", (el[i], el[j]),
                    "x <= y and y <= x for distinct elements")
                   for i in range(n) for j in _bits(up[i] & down[i] & ~(1 << i))]
        issues += [("poset.transitive", (el[i], el[j], el[k]), "x <= y <= z but not x <= z")
                   for i in range(n) for j in _bits(up[i]) for k in _bits(up[j] & ~up[i])]
        self.top = self.bound((), self.down)
        self.bottom = self.bound((), self.up)
        if issues:
            def pair(i, j, cone, _):
                return self.bound((i, j), cone)
        else:  # on a poset, i v j is the element whose up-set is up[i] & up[j], if one is
            def pair(i, j, cone, principal):
                return principal.get(cone[i] & cone[j])
        ups, downs = {m: k for k, m in enumerate(up)}, {m: k for k, m in enumerate(down)}
        joins = [[None] * n for _ in range(n)]
        meets = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                joins[i][j] = joins[j][i] = pair(i, j, up, ups)
                meets[i][j] = meets[j][i] = pair(i, j, down, downs)
        self.joins = tuple(map(tuple, joins))
        self.meets = tuple(map(tuple, meets))
        if self.top is None:
            issues.append(("lattice.top", (), "no greatest element"))
        if self.bottom is None:
            issues.append(("lattice.bottom", (), "no least element"))
        for i, j in itertools.combinations(range(n), 2):
            if joins[i][j] is None:
                issues.append(("lattice.join", (el[i], el[j]), "pairwise join missing"))
            if meets[i][j] is None:
                issues.append(("lattice.meet", (el[i], el[j]), "pairwise meet missing"))
        self.issues = tuple(issues)

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise InvalidParams(f"unknown arrow label {label!r}; have {self.elements}") from None

    def bound(self, indices, cone) -> int | None:
        """The join of ``indices`` with ``cone`` the up-sets, their meet with the down-sets.

        That is the one element of their common cone whose own cone holds all
        of it, or ``None``; the empty join is the bottom, the empty meet the top.
        """
        mask = self._all
        for i in indices:
            mask &= cone[i]
        found = None
        for k in _bits(mask):
            if mask & ~cone[k] == 0:
                if found is not None:
                    return None
                found = k
        return found

    @staticmethod
    def from_labels(elements, leq_label_pairs) -> "HomLattice":
        """Build from labels; the given pairs are closed reflexively/transitively."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in leq_label_pairs:
            unknown = [x for x in (a, b) if x not in idx]
            if unknown:
                raise InvalidParams(f"unknown arrow label {unknown[0]!r}; have {elements}")
            up[idx[a]] |= 1 << idx[b]
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return HomLattice(elements, frozenset((i, j) for i in range(n) for j in _bits(up[i])))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _flags(masks, n: int) -> list[bytes]:
    """Each bitmask as one byte per position 0..n-1, 1 where its bit is set,
    padded with zeros to 256 bytes: a ``bytes.translate`` table when n <= 256."""
    return [f"{m:0{n}b}"[::-1].encode().translate(_BITS).ljust(256, b"\0") for m in masks]


def _below(hom: HomLattice):
    """``(below, principal)``: ``below[w]`` flags the x <= w, and ``principal``
    maps the flags of each principal down-set to its top; kept on the hom."""
    def build(hom):
        n = len(hom)
        below = _flags(hom.down, n)
        return below, {row[:n]: m for m, row in enumerate(below)}
    return _kept(hom, "_below_tables", build)


def _join_of(hom: HomLattice, principal, flags: bytes) -> int:
    """The join of the elements of ``hom`` flagged 1: read off when they form a
    principal down-set, else folded from the bottom by binary joins."""
    m = principal.get(flags)
    if m is None:
        m, joins = hom.bottom, hom.joins
        for i in itertools.compress(range(len(flags)), flags):
            m = joins[m][i]
    return m


def _residuation_tables(homs, compose_table):
    """``limp[(p,q,r)][w][u]`` and ``rimp[(p,q,r)][v][w]`` by the join formula.

    For u: p -> q, v: q -> r and w: p -> r, left_imp(w, u) is the join in
    Q(q, r) of the v with v.u <= w, and right_imp(v, w) the join in Q(p, q)
    of the u with v.u <= w.  The v with v.u <= w are flagged by translating
    the column of u through the flags of the x <= w; on valid tables they are
    the down-set of left_imp(w, u), whose top is one lookup.  Triples with the
    same three homs and the same table object share one pair of results.
    """
    limp, rimp, done = {}, {}, {}
    for (p, q, r), comp in compose_table.items():
        dom, mid, cod = homs[(p, q)], homs[(q, r)], homs[(p, r)]
        key = id(comp), id(dom), id(mid), id(cod)
        if key not in done:
            below = _below(cod)[0]
            if len(below) <= 256:
                rows, flagged = list(map(bytes, comp)), bytes.translate
                cols = list(map(bytes, zip(*rows)))
            else:  # entries do not fit in a byte: flag them one by one
                rows, flagged = comp, lambda seq, table: bytes(map(table.__getitem__, seq))
                cols = list(zip(*rows))
            mid_principal, dom_principal = _below(mid)[1], _below(dom)[1]
            done[key] = (
                tuple(tuple([_join_of(mid, mid_principal, flagged(col, table)) for col in cols])
                      for table in below),
                tuple(tuple([_join_of(dom, dom_principal, flagged(row, table)) for table in below])
                      for row in rows))
        limp[(p, q, r)], rimp[(p, q, r)] = done[key]
    return limp, rimp


class Quantaloid:
    """Objects, a hom-lattice per ordered object pair, composition and units.

    ``compose_table[(p, q, r)][j][i]`` is the index of ``v_j . u_i`` in
    ``Q(p, r)`` for ``u_i`` in ``Q(p, q)`` and ``v_j`` in ``Q(q, r)``.  Beside
    it, ``limp_table[(p, q, r)][w][u]`` indexes ``left_imp(w, u)`` in
    ``Q(q, r)`` and ``rimp_table[(p, q, r)][v][w]`` indexes
    ``right_imp(v, w)`` in ``Q(p, q)``, for ``w`` in ``Q(p, r)``.
    ``arrow_table[(p, q)][i]`` is the one interned ``Arrow(p, q, i)``.
    Construction raises :class:`ValidationFailed` when a hom is not a
    complete lattice, and :class:`InvalidParams` when a compose entry or a
    unit is not an index of its hom, an ``int`` that is not a ``bool``.
    Equality of quantaloids is identity; fixtures share one instance.
    """

    def __init__(self, objects, homs, compose_table, units, name: str = "quantaloid"):
        self.name = name
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise InvalidParams(f"duplicate object ids: {self.objects}")
        self.homs: dict[tuple[str, str], HomLattice] = dict(homs)
        for p, q in itertools.product(self.objects, repeat=2):
            if (p, q) not in self.homs:
                raise InvalidParams(f"missing hom-lattice for ({p},{q})")
            if len(self.homs[(p, q)]) == 0:
                raise InvalidParams(f"empty hom ({p},{q}): a complete lattice is nonempty")
        report = ValidationReport(f"quantaloid {name}")
        for (p, q), hom in sorted(self.homs.items()):
            for code, labels, detail in hom.issues:
                report.add(code, (p, q, *labels), detail)
        if not report.ok:
            raise ValidationFailed([report])
        self.compose_table: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]] = {}
        # a table object given to several triples with the same homs is checked
        # once; the value keeps the table alive, so its id names only it
        checked, homs = {}, self.homs
        for pqr in itertools.product(self.objects, repeat=3):
            p, q, r = pqr
            table = compose_table[pqr]
            dom, mid, cod = homs[(p, q)], homs[(q, r)], homs[(p, r)]
            key = id(table), id(dom), id(mid), id(cod)
            if key not in checked:
                rows = tuple(tuple(row) for row in table)
                if len(rows) != len(mid) or any(len(row) != len(dom) for row in rows):
                    raise InvalidParams(f"compose table for ({p},{q},{r}) has wrong shape")
                n = len(cod)
                for j, row in enumerate(rows):
                    if not {int}.issuperset(map(type, row)) or min(row) < 0 or max(row) >= n:
                        i = next(i for i, k in enumerate(row)
                                 if type(k) is not int or not 0 <= k < n)
                        raise InvalidParams(f"compose table for ({p},{q},{r}) has entry "
                                            f"{row[i]!r} at [{j}][{i}], not an index of hom "
                                            f"({p},{r})")
                checked[key] = table, rows
            self.compose_table[pqr] = checked[key][1]
        self.units: dict[str, int] = dict(units)
        for q in self.objects:
            if q not in self.units:
                raise InvalidParams(f"missing unit for object {q}")
            if type(self.units[q]) is not int or not 0 <= self.units[q] < len(self.homs[(q, q)]):
                raise InvalidParams(f"unit {self.units[q]!r} of object {q} "
                                    f"is not an index of hom ({q},{q})")
        self.limp_table, self.rimp_table = _residuation_tables(self.homs, self.compose_table)
        self._finish()

    def _finish(self) -> None:
        """Intern one arrow per hom element."""
        self.arrow_table = {(p, q): tuple(Arrow(p, q, i) for i in range(len(hom)))
                            for (p, q), hom in self.homs.items()}

    def _transposed(self) -> "Quantaloid":
        """The opposite quantaloid, its tables transposed from this one's."""
        op = Quantaloid.__new__(Quantaloid)
        op.name = f"{self.name}^op"
        op.objects, op.units = self.objects, self.units
        triples = list(itertools.product(self.objects, repeat=3))
        op.homs = {(p, q): self.homs[(q, p)] for p, q in itertools.product(self.objects, repeat=2)}
        # v .op u = u . v, and each residuation of the opposite is the other
        # residuation of this quantaloid with its arguments swapped.  Each
        # distinct table is transposed once: this quantaloid keeps every source
        # alive, so an id names one table throughout.
        done = {}

        def transposed(table):
            key = id(table)
            if key not in done:
                done[key] = _transpose(table)
            return done[key]

        op.compose_table = {(p, q, r): transposed(self.compose_table[(r, q, p)])
                            for p, q, r in triples}
        op.limp_table = {(p, q, r): transposed(self.rimp_table[(r, q, p)]) for p, q, r in triples}
        op.rimp_table = {(p, q, r): transposed(self.limp_table[(r, q, p)]) for p, q, r in triples}
        op._finish()
        op._opposite = self
        return op

    # -- basic access -------------------------------------------------------

    def hom(self, p: str, q: str) -> HomLattice:
        try:
            return self.homs[(p, q)]
        except KeyError:
            raise TypeMismatch(f"no hom ({p},{q}) in {self.name}") from None

    def arrows(self, p: str, q: str) -> tuple[Arrow, ...]:
        try:
            return self.arrow_table[(p, q)]
        except KeyError:
            raise TypeMismatch(f"no hom ({p},{q}) in {self.name}") from None

    def arrow(self, p: str, q: str, label: str) -> Arrow:
        return self.arrows(p, q)[self.hom(p, q).index(label)]

    def label(self, a: Arrow) -> str:
        return self.hom(a.src, a.dst).elements[a.index]

    def unit(self, q: str) -> Arrow:
        return self.arrow_table[(q, q)][self.units[q]]

    def top(self, p: str, q: str) -> Arrow:
        return self._hom_bound(p, q, (), "meet")

    def bottom(self, p: str, q: str) -> Arrow:
        return self._hom_bound(p, q, (), "join")

    def leq(self, a: Arrow, b: Arrow) -> bool:
        if (a.src, a.dst) != (b.src, b.dst):
            raise TypeMismatch(f"cannot compare {a} with {b}")
        return self.hom(a.src, a.dst).leq(a.index, b.index)

    @property
    def one_object(self) -> bool:
        return len(self.objects) == 1

    def __repr__(self) -> str:
        return f"Quantaloid({self.name!r}, {len(self.objects)} objects)"

    # -- composition and residuation ---------------------------------------

    def compose(self, v: Arrow, u: Arrow) -> Arrow:
        """v . u for u: p -> q and v: q -> r."""
        if u.dst != v.src:
            raise TypeMismatch(f"cannot compose {v} after {u}")
        k = self.compose_table[(u.src, u.dst, v.dst)][v.index][u.index]
        return self.arrow_table[(u.src, v.dst)][k]

    def hom_join(self, p: str, q: str, arrows) -> Arrow:
        """Least upper bound; the empty join is the bottom arrow."""
        return self._hom_bound(p, q, arrows, "join")

    def hom_meet(self, p: str, q: str, arrows) -> Arrow:
        """Greatest lower bound; the empty meet is the top arrow."""
        return self._hom_bound(p, q, arrows, "meet")

    def _hom_bound(self, p: str, q: str, arrows, kind: str) -> Arrow:
        """Fold the hom's pairwise table from its empty bound; every hom is a lattice."""
        hom = self.hom(p, q)
        table, k = (hom.joins, hom.bottom) if kind == "join" else (hom.meets, hom.top)
        for a in arrows:
            if (a.src, a.dst) != (p, q):
                raise TypeMismatch(f"{a} is not in hom ({p},{q})")
            k = table[k][a.index]
        return self.arrow_table[(p, q)][k]

    def left_imp(self, w: Arrow, u: Arrow) -> Arrow:
        """left_imp(w, u) for u: p -> q, w: p -> r, giving q -> r."""
        if w.src != u.src:
            raise TypeMismatch(f"left_imp needs a common source, got {w} and {u}")
        q, r = u.dst, w.dst
        return self.arrow_table[(q, r)][self.limp_table[(u.src, q, r)][w.index][u.index]]

    def right_imp(self, v: Arrow, w: Arrow) -> Arrow:
        """right_imp(v, w) for v: q -> r, w: p -> r, giving p -> q."""
        if v.dst != w.dst:
            raise TypeMismatch(f"right_imp needs a common target, got {v} and {w}")
        p, q = w.src, v.src
        return self.arrow_table[(p, q)][self.rimp_table[(p, q, v.dst)][v.index][w.index]]

    # -- duality ------------------------------------------------------------

    def opposite(self) -> "Quantaloid":
        """The opposite quantaloid: 1-cells reverse, hom-orders stay.

        Built on first use, not at construction, because the two instances
        refer to each other and so are freed only by the cycle collector.
        """
        return _kept(self, "_opposite", Quantaloid._transposed)

    def dual_arrows(self, arrows) -> tuple[Arrow, ...]:
        """The same arrows seen in the opposite quantaloid, interned there."""
        table = self.opposite().arrow_table
        return tuple([table[a.dst, a.src][a.index] for a in arrows])


# -- validation --------------------------------------------------------------


def _byte_rows(rows, height: int, width: int, size: int):
    """``rows`` as ``bytes``, or ``None`` unless they are ``height`` rows of
    ``width`` indices into a hom of ``size`` elements."""
    try:
        rows = list(map(bytes, rows))
    except (TypeError, ValueError):
        return None
    if list(map(len, rows)) != [width] * height or max(map(max, rows)) >= size:
        return None
    return rows


def _adjunction_rows(comp, limp, rimp, dom, mid, cod):
    """``(rows, cols, flat)`` of one triple's composition table as
    ``bytes``, or ``None`` when one of its three tables cannot be read that way
    or they break the adjunction v.u <= w iff v <= left_imp(w, u) iff
    u <= right_imp(v, w).  ``dom``, ``mid`` and ``cod`` are the flag tables
    ``_laws_hold`` keeps per hom."""
    nd, nm, nc = len(dom[1]), len(mid[1]), len(cod[1])
    rows = _byte_rows(comp, nm, nd, nc)
    limp = _byte_rows(limp, nc, nd, nm)
    rimp = _byte_rows(rimp, nm, nc, nd)
    if rows is None or limp is None or rimp is None:
        return None
    cols = list(map(bytes, zip(*rows)))
    # the adjunction over (u, w, v)
    flags = b"".join([col.translate(below) for col in cols for below in cod[0]])
    lefts = b"".join(map(mid[1].__getitem__, b"".join(map(bytes, zip(*limp)))))
    rights = b"".join(map(b"".join(map(bytes, zip(*rimp))).translate, dom[2][:nd]))
    if flags != lefts or flags != rights:
        return None
    return rows, cols, b"".join(rows)


def _laws_hold(Q: Quantaloid) -> bool:
    """Whether ``_law_report`` would find nothing, decided on ``bytes``.

    Each law compares ``bytes`` strings built by ``translate`` and ``join``
    from the tables of one object triple: the units, the adjunction
    v.u <= w iff v <= left_imp(w, u) iff u <= right_imp(v, w), and
    associativity.  The rest follows over lattice homs: the adjunction makes
    each residuation table the join formula, and makes v.- and -.u left
    adjoints, which preserve joins.  False also when a table cannot be read
    this way: a hom of more than 256 elements, a table of the wrong shape or
    an entry out of range.
    """
    homs, objects = Q.homs, Q.objects
    if max(map(len, homs.values()), default=0) > 256:
        return False
    tables = {}  # per hom: flags of the x <= w as translate tables, of each down-set, of the x >= u
    for hom in {id(hom): hom for hom in homs.values()}.values():
        below = _below(hom)[0]
        tables[id(hom)] = below, [row[:len(hom)] for row in below], _flags(hom.up, len(hom))
    # Triples with the same homs and the same three table objects share one
    # decision of the adjunction, and one copy of the composition rows: ``Q``
    # keeps every table alive, so an id names one table throughout.
    decided = {}
    rows_of, flat_of = {}, {}
    compose, limps, rimps = Q.compose_table, Q.limp_table, Q.rimp_table
    for pqr in itertools.product(objects, repeat=3):
        p, q, r = pqr
        dom, mid, cod = homs[(p, q)], homs[(q, r)], homs[(p, r)]
        comp, limp, rimp = compose[pqr], limps[pqr], rimps[pqr]
        key = id(comp), id(limp), id(rimp), id(dom), id(mid), id(cod)
        if key not in decided:
            decided[key] = _adjunction_rows(comp, limp, rimp, tables[id(dom)], tables[id(mid)],
                                            tables[id(cod)])
        if decided[key] is None:
            return False
        rows, cols, flat = decided[key]
        rows_of[pqr], flat_of[pqr] = rows, flat
        # the unit laws, per triple: of the triples sharing a table, only some carry them
        if q == r and rows[Q.units[q]] != bytes(range(len(dom))):
            return False
        if p == q and cols[Q.units[q]] != bytes(range(len(mid))):
            return False
    # w.(v.u) == (w.v).u for u: p -> q, v: q -> r and w: r -> s, over (s, w, v, u)
    # for each (p, q, r): composing after w translates, composing before u
    # indexes the rows of (p, q, s) for all s, laid end to end
    pairs = list(itertools.product(objects, repeat=2))
    padded = {id(rows): [row.ljust(256, b"\0") for row in rows] for rows, _, _ in decided.values()}
    after = {(p, r): [row for s in objects for row in padded[id(rows_of[(p, r, s)])]]
             for p, r in pairs}
    before = {(p, q): [row for s in objects for row in rows_of[(p, q, s)]] for p, q in pairs}
    start = {}
    for q in objects:
        offset = 0
        for s in objects:
            start[(q, s)], offset = offset, offset + len(homs[(q, s)])
    composite = {(q, r): [start[(q, s)] + x for s in objects for x in flat_of[(q, r, s)]]
                 for q, r in pairs}
    return all(
        b"".join(map(flat.translate, after[(p, r)]))
        == b"".join(map(before[(p, q)].__getitem__, composite[(q, r)]))
        for (p, q, r), flat in flat_of.items())


def validate_quantaloid(Q: Quantaloid) -> ValidationReport:
    """Check the quantaloid laws of the lattice homs on the tables (units, associativity,
    join preservation, residuation), reporting all violations as data.

    The laws are decided on ``bytes``; only when one fails, or the tables
    cannot be read that way, does ``_law_report`` scan them entry by entry
    to write the report.
    """
    if _laws_hold(Q):
        return ValidationReport(f"quantaloid {Q.name}")
    return _law_report(Q)


def _law_report(Q: Quantaloid) -> ValidationReport:
    """Every violation of a quantaloid law, found by a scan of all entry triples."""
    report = ValidationReport(f"quantaloid {Q.name}")

    def lbl(p, q, i):
        return Q.homs[(p, q)].elements[i]

    comp = Q.compose_table
    for q in Q.objects:
        one = Q.units[q]
        for p in Q.objects:
            for u, vu in enumerate(comp[(p, q, q)][one]):
                if vu != u:
                    report.add("unit.left", (p, q, lbl(p, q, u)), "1.u != u")
        for r in Q.objects:
            for v, row in enumerate(comp[(q, q, r)]):
                if row[one] != v:
                    report.add("unit.right", (q, r, lbl(q, r, v)), "v.1 != v")

    for p, q, r, s in itertools.product(Q.objects, repeat=4):
        pqr, qrs, prs, pqs = comp[(p, q, r)], comp[(q, r, s)], comp[(p, r, s)], comp[(p, q, s)]
        for u in range(len(Q.homs[(p, q)])):
            for v, row in enumerate(pqr):
                vu = row[u]
                for w, w_row in enumerate(qrs):
                    if pqs[w_row[v]][u] != prs[w][vu]:
                        report.add("compose.associative",
                                   (lbl(r, s, w), lbl(q, r, v), lbl(p, q, u)),
                                   "(w.v).u != w.(v.u)")

    # Join preservation in each variable: bottom plus binary joins suffice
    # for all finite joins; the acceptance suite additionally checks every
    # subset on small homs.
    for p, q, r in itertools.product(Q.objects, repeat=3):
        dom, mid, cod, table = Q.homs[(p, q)], Q.homs[(q, r)], Q.homs[(p, r)], comp[(p, q, r)]
        for u in range(len(dom)):
            if table[mid.bottom][u] != cod.bottom:
                report.add("compose.joins.left", (p, q, r, lbl(p, q, u)), "bottom.u != bottom")
            for v1, v2 in itertools.combinations_with_replacement(range(len(mid)), 2):
                if table[mid.joins[v1][v2]][u] != cod.joins[table[v1][u]][table[v2][u]]:
                    report.add("compose.joins.left",
                               (lbl(q, r, v1), lbl(q, r, v2), lbl(p, q, u)),
                               "(v1 v v2).u != v1.u v v2.u")
        for v, row in enumerate(table):
            if row[dom.bottom] != cod.bottom:
                report.add("compose.joins.right", (p, q, r, lbl(q, r, v)), "v.bottom != bottom")
            for u1, u2 in itertools.combinations_with_replacement(range(len(dom)), 2):
                if row[dom.joins[u1][u2]] != cod.joins[row[u1]][row[u2]]:
                    report.add("compose.joins.right",
                               (lbl(q, r, v), lbl(p, q, u1), lbl(p, q, u2)),
                               "v.(u1 v u2) != v.u1 v v.u2")

    # The residuation tables against the join formula, scanned entry by entry
    # with binary joins, and the adjunction they must satisfy.
    for p, q, r in itertools.product(Q.objects, repeat=3):
        dom, mid, cod, table = Q.homs[(p, q)], Q.homs[(q, r)], Q.homs[(p, r)], comp[(p, q, r)]
        limp, rimp = Q.limp_table[(p, q, r)], Q.rimp_table[(p, q, r)]
        for w in range(len(cod)):
            below = cod.down[w]
            for u in range(len(dom)):
                scan = mid.bottom
                for v, row in enumerate(table):
                    if below >> row[u] & 1:
                        scan = mid.joins[scan][v]
                if scan != limp[w][u]:
                    report.add("residuation.table", (p, q, r, lbl(p, r, w), lbl(p, q, u)),
                               "left_imp(w, u) is not the join of the v with v.u <= w")
            for v, row in enumerate(table):
                scan = dom.bottom
                for u, c in enumerate(row):
                    if below >> c & 1:
                        scan = dom.joins[scan][u]
                if scan != rimp[v][w]:
                    report.add("residuation.table", (p, q, r, lbl(q, r, v), lbl(p, r, w)),
                               "right_imp(v, w) is not the join of the u with v.u <= w")
        for u in range(len(dom)):
            for v, row in enumerate(table):
                for w in range(len(cod)):
                    left = bool(cod.down[w] >> row[u] & 1)
                    mid_ok = bool(mid.up[v] >> limp[w][u] & 1)
                    right = bool(dom.up[u] >> rimp[v][w] & 1)
                    if not (left == mid_ok == right):
                        report.add("residuation.adjunction",
                                   (lbl(p, q, u), lbl(q, r, v), lbl(p, r, w)),
                                   f"v.u<=w is {left}, v<=w<l u is {mid_ok}, "
                                   f"u<=v>r w is {right}")
    return report


# -- cyclic dualizing families ------------------------------------------------


class CyclicDualizingFamily(_Frozen):
    """A choice of endo-arrow per object, with its cyclic/dualizing verdicts."""

    _fields = ("d", "cyclic", "dualizing")

    def __init__(self, d: tuple[tuple[str, Arrow], ...], cyclic: bool, dualizing: bool):
        self._set(d, cyclic, dualizing)

    def arrow(self, q: str) -> Arrow:
        for obj, a in self.d:
            if obj == q:
                return a
        raise KeyError(q)

    def labels(self, Q: Quantaloid) -> dict[str, str]:
        return {obj: Q.label(a) for obj, a in self.d}


def _cyclic_pair(Q: Quantaloid, p: str, q: str, a: int, b: int) -> bool:
    """Is ``left_imp(d_p, u) == right_imp(u, d_q)`` for every u: p -> q, at d_p
    and d_q of indices a and b?  The row of ``limp_table[(p, q, p)]`` at a
    against the column of ``rimp_table[(q, p, q)]`` at b."""
    return Q.limp_table[(p, q, p)][a] == tuple([row[b] for row in Q.rimp_table[(q, p, q)]])


def _dualizing_pair(Q: Quantaloid, p: str, q: str, a: int, b: int) -> bool:
    """Do both round trips through d_p and d_q, of indices a and b, give back every
    u: p -> q, ``right_imp(left_imp(d_p, u), d_p)`` and ``left_imp(d_q, right_imp(u, d_q))``?"""
    left_p, right_p = Q.limp_table[(p, q, p)][a], Q.rimp_table[(p, q, p)]
    left_q, right_q = Q.limp_table[(q, p, q)][b], Q.rimp_table[(q, p, q)]
    return all(right_p[left_p[u]][a] == u and left_q[right_q[u][b]] == u
               for u in range(len(Q.homs[(p, q)])))


def is_cyclic_family(Q: Quantaloid, d: dict[str, Arrow]) -> bool:
    """Is the endo-arrow family d cyclic at every object pair?"""
    return all(_cyclic_pair(Q, p, q, d[p].index, d[q].index)
               for p, q in itertools.product(Q.objects, repeat=2))


def is_dualizing_family(Q: Quantaloid, d: dict[str, Arrow]) -> bool:
    """Is the endo-arrow family d dualizing at every object pair?"""
    return all(_dualizing_pair(Q, p, q, d[p].index, d[q].index)
               for p, q in itertools.product(Q.objects, repeat=2))


def find_cyclic_dualizing_family(Q: Quantaloid):
    """Search all endo-arrow families in lexicographic order.

    Returns the first family that is both cyclic and dualizing; otherwise the
    first cyclic-only family (``dualizing=False``).  The family of tops is
    always cyclic, so ``None`` comes only from tables off the join formula.

    Both verdicts are conjunctions over object pairs (p, q) of a condition on
    d_p and d_q alone, ``_cyclic_pair`` and ``_dualizing_pair``.  So each pair
    is decided once per (d_p, d_q), and the search extends a family object by
    object, dropping every prefix with a pair that is not cyclic; the families
    it reaches come in the same order.  The search cap bounds the prefixes it
    pushes.
    """
    cap, nodes = budget("search"), 0
    objects = Q.objects
    pools = [Q.arrows(q, q) for q in objects]
    cyclic, dualizing = (functools.cache(functools.partial(pair, Q))
                         for pair in (_cyclic_pair, _dualizing_pair))

    # family prefixes, the least on top: families complete in lexicographic order
    best_cyclic, stack = None, [()]
    while stack:
        combo = stack.pop()
        if len(combo) < len(objects):
            q = objects[len(combo)]
            pushed = [(*combo, b) for b in reversed(range(len(pools[len(combo)])))
                      if cyclic(q, q, b, b) and all(cyclic(p, q, a, b) and cyclic(q, p, b, a)
                                                    for p, a in zip(objects, combo))]
            nodes += len(pushed)
            if nodes > cap:
                raise SearchBudgetExceeded("search", cap, nodes, f"the family search on {Q.name}")
            stack += pushed
            continue
        fam = CyclicDualizingFamily(
            tuple(sorted((q, pool[a]) for q, pool, a in zip(objects, pools, combo))), True,
            all(dualizing(p, q, a, b) for (p, a), (q, b) in
                itertools.product(zip(objects, combo), repeat=2)))
        if fam.dualizing:
            return fam
        if best_cyclic is None:
            best_cyclic = fam
    return best_cyclic


def complement_arrow(Q: Quantaloid, fam: CyclicDualizingFamily, u: Arrow) -> Arrow:
    """The complement of u under a cyclic dualizing family; involutive."""
    if not (fam.cyclic and fam.dualizing):
        raise NotGirard("complement needs a cyclic dualizing family")
    return Q.left_imp(fam.arrow(u.src), u)


# -- presets ------------------------------------------------------------------


def _chain_quantaloid(name: str, n: int, tensor) -> Quantaloid:
    """One-object quantaloid on the chain 0 < 1/(n-1) < ... < 1.

    ``tensor`` acts on the numerators 0..n-1; each label is the value in lowest
    terms, as ``str`` of a ``fractions.Fraction`` writes it: "0", "1/3", "1".
    """
    if n < 2:
        raise InvalidParams("chain presets need n >= 2")
    d = n - 1  # 0 and d are the ends; i/d for 0 < i < d is reduced by their gcd
    labels = [f"{i // math.gcd(i, d)}/{d // math.gcd(i, d)}" if i % d else str(i // d)
              for i in range(n)]
    products = [(labels[a], labels[b], labels[tensor(a, b)]) for a in range(n) for b in range(n)]
    return _quantale_from_table(labels, zip(labels, labels[1:]), products, "1", name)


def _chain(labels) -> HomLattice:
    """The chain of the labels in their order."""
    return HomLattice.from_labels(labels, zip(labels, labels[1:]))


def _frame_diagonal(L: HomLattice, name: str) -> Quantaloid:
    """The diagonal quantaloid of a finite frame L.

    Objects are the elements of L; the hom at (p, q) is the downset of
    p meet q; composition is the meet of L; the identity at q is q itself.
    A hom depends only on p meet q, and a compose table only on the meets
    (p^q, q^r, p^r), so one hom is built per element of L and one table per
    distinct meet triple, each shared by every pair or triple with those
    meets: at boolean=3, 8 homs for 64 pairs and 125 tables for 512 triples.
    """
    el, n, meets = L.elements, len(L), L.meets
    below = [list(_bits(L.down[m])) for m in range(n)]  # the indices in L of the down-set of m
    position = [{x: i for i, x in enumerate(xs)} for xs in below]  # x in L -> its index in hom m
    hom_of = [HomLattice.from_labels([el[x] for x in xs],
                                     [(el[x], el[y]) for x in xs for y in xs if L.leq(x, y)])
              for xs in below]
    homs = {(el[p], el[q]): hom_of[meets[p][q]] for p, q in itertools.product(range(n), repeat=2)}
    table, built = {}, {}
    for p, q, r in itertools.product(range(n), repeat=3):
        key = meets[p][q], meets[q][r], meets[p][r]
        if key not in built:
            dom, mid, cod = below[key[0]], below[key[1]], position[key[2]]
            built[key] = tuple(tuple(cod[meets[v][u]] for u in dom) for v in mid)
        table[(el[p], el[q], el[r])] = built[key]
    units = {el[q]: position[q][q] for q in range(n)}
    return Quantaloid(el, homs, table, units, name=name)


def _quantale_from_table(elements, leq_pairs, products, unit, name) -> Quantaloid:
    hom = HomLattice.from_labels(tuple(elements), leq_pairs)
    prod = {(a, b): c for a, b, c in products}
    missing = [(v, u) for v in hom.elements for u in hom.elements if (v, u) not in prod]
    if missing:
        raise InvalidParams(f"product table misses pairs: {missing[:5]}")
    position = {label: i for i, label in enumerate(hom.elements)}

    def index(label):
        try:
            return position[label]
        except (KeyError, TypeError):
            return hom.index(label)  # raises, naming the label

    table = {("*", "*", "*"): tuple(
        tuple([index(prod[(v, u)]) for u in hom.elements]) for v in hom.elements)}
    return Quantaloid(("*",), {("*", "*"): hom}, table, {"*": hom.index(unit)}, name=name)


_PRESET_PARAMS = {"two": (), "lukasiewicz-chain": ("n",), "godel-chain": ("n",),
                  "frame-diagonal": ("chain", "boolean"),
                  "commutative-quantale-from-table": ("elements", "leq", "products", "unit")}


def _int_param(params: dict, key: str, default: int | None = None) -> int:
    """An integer parameter, given as an int or a string of ASCII digits; a bool is neither."""
    value = params.get(key, default)
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if not isinstance(value, (bool, str)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParams(f"parameter {key!r} must be an integer, got {value!r}")


def build_preset(name: str, /, **params) -> Quantaloid:
    """Construct and validate one of the named stock quantaloids; InvalidParams if bad."""
    if name not in _PRESET_PARAMS:
        raise InvalidParams(f"unknown preset {name!r}")
    unknown = sorted(set(params) - set(_PRESET_PARAMS[name]))
    if unknown:
        raise InvalidParams(f"preset {name!r} takes no parameter {unknown[0]!r}; "
                            f"its parameters are {list(_PRESET_PARAMS[name])}")
    if name == "two":
        Q = _chain_quantaloid("two", 2, min)
    elif name == "lukasiewicz-chain":
        n = _int_param(params, "n", 3)
        Q = _chain_quantaloid(f"lukasiewicz-{n}", n, lambda a, b: max(0, a + b - n + 1))
    elif name == "godel-chain":
        n = _int_param(params, "n", 3)
        Q = _chain_quantaloid(f"godel-{n}", n, min)
    elif name == "frame-diagonal":
        if "chain" in params and "boolean" in params:
            raise InvalidParams("frame-diagonal takes chain=<n> or boolean=<k>, not both")
        if "chain" in params:
            n = _int_param(params, "chain")
            if n < 1:
                raise InvalidParams("chain length must be >= 1")
            Q = _frame_diagonal(_chain([str(i) for i in range(n)]), f"diag-chain-{n}")
        elif "boolean" in params:
            k = _int_param(params, "boolean")
            if k < 0 or k > 6:
                raise InvalidParams("boolean frame supports 0..6 atoms")
            # the subsets of k named atoms, by size; "0" is the empty one
            sets = ["".join(c) or "0" for size in range(k + 1)
                    for c in itertools.combinations("abcdef"[:k], size)]
            L = HomLattice.from_labels(sets, [(a, b) for a in sets for b in sets
                                              if set(a) - {"0"} <= set(b)])
            Q = _frame_diagonal(L, f"diag-boolean-{k}")
        else:
            raise InvalidParams("frame-diagonal needs chain=<n> or boolean=<k>")
    else:
        missing = [k for k in ("elements", "leq", "products", "unit") if k not in params]
        if missing:
            raise InvalidParams(f"missing parameter {missing[0]!r}")
        try:
            Q = _quantale_from_table(params["elements"], params["leq"], params["products"],
                                     params["unit"], "quantale")
        except ValidationFailed as e:
            raise InvalidParams(f"preset {name!r} failed validation: "
                                f"{e.reports[0].issues[:3]}") from None
    report = validate_quantaloid(Q)
    if not report.ok:
        raise InvalidParams(f"preset {name!r} failed validation: {report.issues[:3]}")
    return Q
