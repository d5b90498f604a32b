"""Distributors between enriched categories: composition, residuation, graphs.

A distributor from A to B is a matrix of arrows compatible with both hom
structures; it generalizes a multi-typed, multi-valued relation.  The three
operations of the calculus are

    compose:    (psi . phi)(x, z)   = join_y  psi(y, z) . phi(x, y)
    left_imp:   (xi <l phi)(y, z)   = meet_x  left_imp(xi(x, z), phi(x, y))
    right_imp:  (psi >r xi)(x, y)   = meet_z  right_imp(psi(y, z), xi(x, z))

Each entry is computed on the quantaloid's index tables.  ``tensor_ix``, a
fold of one entry's join of composites, carries ``dist_compose``.  The two
residuation kernels yield a whole matrix of homs row by row on one loop,
``_meet_rows``: ``hom_rows``, meets of left residuals off ``limp_table``,
carries ``dist_left_imp``, every presheaf hom, ``presheaf._suprema`` and the
density tests; its twin ``right_rows``, meets of right residuals off
``rimp_table``, carries ``dist_right_imp`` and every copresheaf hom.  So no
hom is computed on a dual and read back; the duals left serve right Kan
extensions, codensity and the verifiers' copresheaf halves, each its
presheaf twin on the dual.  The kernels read only the indices of the arrows
they are given, and the bimodule law is decided on the compose table.  The
closure maps of a context run on its code tables (``concept``), not on these
kernels.  A context keeps (``quantaloid._kept``) its ``columns``, its dual
and, once ``validate_distributor`` has found it valid, that verdict; none
refers back.

Distributor equality is exact entrywise arrow equality; the theorems this
package verifies are equalities at this level, not isomorphisms.
"""

from __future__ import annotations

import itertools

from .errors import TypeMismatch, ValidationReport
from .qcat import QCategory, QFunctor, dualize_category
from .quantaloid import Arrow, _kept


class QDistributor:
    """A matrix ``matrix[i][j]`` of arrows |x_i| -> |y_j| from dom to cod.

    The constructor checks the endpoints, the shape and the type of every
    entry, raising ``TypeMismatch``.  The calculus builds its results with
    ``_derived``, which skips those checks: their entries are read off
    ``q.arrow_table`` at the types of dom and cod, so they hold by
    construction.  Both give equal distributors on the same matrix.
    """

    def __init__(self, dom: QCategory, cod: QCategory, matrix, name: str = ""):
        if dom.q is not cod.q:
            raise TypeMismatch("distributor endpoints live over different quantaloids")
        self._fill(dom, cod, matrix, name)
        if len(self.matrix) != len(dom) or any(len(r) != len(cod) for r in self.matrix):
            raise TypeMismatch("distributor matrix has wrong shape")
        for i, j in itertools.product(range(len(dom)), range(len(cod))):
            a = self.matrix[i][j]
            if (a.src, a.dst) != (dom.types[i], cod.types[j]):
                raise TypeMismatch(
                    f"entry ({dom.objects[i]},{cod.objects[j]}) is {a}, "
                    f"expected an arrow {dom.types[i]} -> {cod.types[j]}")

    def _fill(self, dom: QCategory, cod: QCategory, matrix, name: str) -> None:
        self.dom = dom
        self.cod = cod
        self.matrix = tuple(map(tuple, matrix))
        self.name = name or "distributor"

    @classmethod
    def _derived(cls, dom: QCategory, cod: QCategory, matrix, name: str) -> "QDistributor":
        """A result of the calculus, whose entries ``q.arrow_table`` gave at the
        types of dom and cod: built unchecked."""
        phi = cls.__new__(cls)
        phi._fill(dom, cod, matrix, name)
        return phi

    @property
    def q(self):
        return self.dom.q

    def at(self, x: str, y: str) -> Arrow:
        return self.matrix[self.dom.index(x)][self.cod.index(y)]

    @property
    def columns(self) -> tuple[tuple[Arrow, ...], ...]:
        """The matrix by columns, ``columns[j][i] == matrix[i][j]``; kept on first use."""
        return _kept(self, "columns", lambda phi: tuple(
            tuple(row[j] for row in phi.matrix) for j in range(len(phi.cod))))

    def __eq__(self, other) -> bool:
        return (isinstance(other, QDistributor) and self.dom == other.dom
                and self.cod == other.cod and self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.matrix))

    def __repr__(self) -> str:
        return f"QDistributor({self.name!r}: {self.dom.name} -/-> {self.cod.name})"


def validate_distributor(phi: QDistributor) -> ValidationReport:
    """Check the bimodule law (``_bimodule_law``).

    A distributor found valid keeps that verdict (``_kept``, a bare ``True``), so
    a later call checks nothing; every call returns a new report.  A distributor
    that fails keeps nothing and is checked again on every call."""
    report = ValidationReport(f"distributor {phi.name}")
    if "_valid" not in phi.__dict__:
        _bimodule_law(phi, report)
        if report.ok:
            _kept(phi, "_valid", lambda _: True)
    return report


def _bimodule_law(phi: QDistributor, report: ValidationReport) -> None:
    """Add each quadruple that breaks the bimodule law to ``report``, O(|A|^2 |B|^2),
    on the compose table's indices and the hom orders' ``up`` bits: per row type p,
    the rows ``hom(y, y') . -`` out of p are looked up once."""
    A, B, q = phi.dom, phi.cod, phi.q
    comp, homs = q.compose_table, q.homs
    after = {p: [[comp[p, s, t][h.index] for h, t in zip(b_row, B.types)]
                 for s, b_row in zip(B.types, B.hom)] for p in set(A.types)}
    for xp, p, a_row, target in zip(A.objects, A.types, A.hom, phi.matrix):
        rows = after[p]
        checks = [(homs[p, t].up, e.index, yp) for yp, t, e in zip(B.objects, B.types, target)]
        for x, r, a, entries in zip(A.objects, A.types, a_row, phi.matrix):
            for y, s, e, row in zip(B.objects, B.types, entries, rows):
                k = comp[p, r, s][e.index][a.index]
                for after_k, (up, bound, yp) in zip(row, checks):
                    if not up[after_k[k]] >> bound & 1:
                        report.add("distributor.bimodule", (xp, x, y, yp),
                                   "hom(y,y').phi(x,y).hom(x',x) <= phi(x',y') fails")


def identity_dist(A: QCategory) -> QDistributor:
    return QDistributor(A, A, A.hom, name=f"id({A.name})")


def hom_rows(q, types, rows, cols):
    """The presheaf homs ``meet_x left_imp(ws[x], us[x])`` in hom (s, t) from each row
    ``(s, us)`` to each column ``(t, ws)``, for ``us[x]: types[x] -> s`` and
    ``ws[x]: types[x] -> t``, yielded as one list over cols per row; the empty meet
    is the top.  Each column reads the ``limp_table`` rows at its values
    (``_meet_rows``).  A caller may stop after any row.
    """
    limp = q.limp_table
    return _meet_rows(q, rows, cols, lambda s, t, ws: [
        limp[p, s, t][w.index] for p, w in zip(types, ws)])


def right_rows(q, types, rows, cols):
    """The copresheaf homs ``meet_x right_imp(vs[x], us[x])`` in hom (s, t) from each
    row ``(s, us)`` to each column ``(t, vs)``, for ``us[x]: s -> types[x]`` and
    ``vs[x]: t -> types[x]``: the twin of ``hom_rows`` on ``rimp_table``."""
    rimp = q.rimp_table
    return _meet_rows(q, rows, cols, lambda s, t, vs: [
        rimp[s, t, r][v.index] for r, v in zip(types, vs)])


def _meet_rows(q, rows, cols, hoist):
    """``meet_k hoist(s, t, ws)[k][us[k]]`` in hom (s, t) for each row ``(s, us)``
    and column ``(t, ws)``, yielded as one list over cols per row.

    ``hoist(s, t, ws)`` gives one residuation-table row per position, indexed
    by the row's value there.  The columns are hoisted once per row type s, each
    to those rows and the ``meets``, ``top`` and arrows of its hom, so an entry
    costs one ``meets`` step per position and no call.
    """
    cols, hoisted, homs = tuple(cols), {}, q.homs
    for s, us in rows:
        at_s = hoisted.get(s)
        if at_s is None:
            at_s = hoisted[s] = [(homs[s, t].meets, homs[s, t].top, q.arrow_table[s, t],
                                  hoist(s, t, ws))
                                 for t, ws in cols]
        indices, line = [u.index for u in us], []
        for meets, k, arrows, residuals in at_s:
            for row, u in zip(residuals, indices):
                k = meets[k][row[u]]
            line.append(arrows[k])
        yield line


def tensor_ix(q, types, p: str, r: str, us, vs) -> Arrow:
    """join_y vs[y] . us[y] in hom (p, r), for ``us[y]: p -> types[y]`` and
    ``vs[y]: types[y] -> r``; the empty join is the bottom."""
    comp, hom = q.compose_table, q.homs[p, r]
    joins, k = hom.joins, hom.bottom
    for t, u, v in zip(types, us, vs):
        k = joins[k][comp[p, t, r][v.index][u.index]]
    return q.arrow_table[p, r][k]


def dist_compose(psi: QDistributor, phi: QDistributor) -> QDistributor:
    """psi . phi for phi: A -/-> B and psi: B -/-> C."""
    if phi.cod != psi.dom:
        raise TypeMismatch(f"cannot compose {psi} after {phi}")
    A, B, C, q = phi.dom, phi.cod, psi.cod, phi.q
    matrix = [[tensor_ix(q, B.types, p, r, row, col) for r, col in zip(C.types, psi.columns)]
              for p, row in zip(A.types, phi.matrix)]
    return QDistributor._derived(A, C, matrix, f"{psi.name}.{phi.name}")


def dist_left_imp(xi: QDistributor, phi: QDistributor) -> QDistributor:
    """xi <l phi: B -/-> C for xi: A -/-> C and phi: A -/-> B."""
    if xi.dom != phi.dom:
        raise TypeMismatch("left implication needs a common domain")
    A, B, C = phi.dom, phi.cod, xi.cod
    matrix = hom_rows(phi.q, A.types, zip(B.types, phi.columns), zip(C.types, xi.columns))
    return QDistributor._derived(B, C, matrix, f"({xi.name})<l({phi.name})")


def dist_right_imp(psi: QDistributor, xi: QDistributor) -> QDistributor:
    """psi >r xi: A -/-> B for psi: B -/-> C and xi: A -/-> C: ``right_rows`` from the
    rows of xi to the rows of psi, the meets of right residuals that define it
    (Stubbe, *TAC* 14, 2005).  No dual is built."""
    if psi.cod != xi.cod:
        raise TypeMismatch("right implication needs a common codomain")
    A, B, C = xi.dom, psi.dom, psi.cod
    matrix = right_rows(psi.q, C.types, zip(A.types, xi.matrix), zip(B.types, psi.matrix))
    return QDistributor._derived(A, B, matrix, f"({psi.name})>r({xi.name})")


def _dual_distributor(phi: QDistributor) -> QDistributor:
    matrix = [phi.q.dual_arrows(col) for col in phi.columns]
    return QDistributor._derived(dualize_category(phi.cod), dualize_category(phi.dom), matrix,
                                 f"{phi.name}^op")


def dualize_distributor(phi: QDistributor) -> QDistributor:
    """phi^op: B^op -/-> A^op with transposed matrix; involutive; kept on phi."""
    return _kept(phi, "_dual", _dual_distributor)


# -- graphs and cographs of functors ------------------------------------------


def graph(F: QFunctor) -> QDistributor:
    """F_graph(x, y) = hom(Fx, y): dom(F) -/-> cod(F)."""
    A, B = F.dom, F.cod
    return QDistributor(A, B, [B.hom[B.index(F(x))] for x in A.objects],
                        name=f"graph({F.name})")


def cograph(F: QFunctor) -> QDistributor:
    """F_cograph(y, x) = hom(y, Fx): cod(F) -/-> dom(F)."""
    A, B = F.dom, F.cod
    images = [B.index(F(x)) for x in A.objects]
    return QDistributor(B, A, [[row[i] for i in images] for row in B.hom],
                        name=f"cograph({F.name})")


def is_adjoint_functor_pair(F: QFunctor, G: QFunctor) -> bool:
    """F -| G holds exactly when the graph of F equals the cograph of G."""
    if F.dom != G.cod or F.cod != G.dom:
        raise TypeMismatch("adjoint functors must go in opposite directions")
    return graph(F) == cograph(G)
