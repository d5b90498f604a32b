"""Distributors between enriched categories: composition, residuation, graphs.

A distributor from A to B is a matrix of arrows compatible with both hom
structures; it generalizes a multi-typed, multi-valued relation.  The three
operations of the calculus are

    compose:    (psi . phi)(x, z)   = join_y  psi(y, z) . phi(x, y)
    left_imp:   (xi <l phi)(y, z)   = meet_x  left_imp(xi(x, z), phi(x, y))
    right_imp:  (psi >r xi)(x, y)   = meet_z  right_imp(psi(y, z), xi(x, z))

Each entry is computed on the quantaloid's index tables, by one of two
kernels: ``tensor_ix``, a fold of one entry's join of composites, carries
``dist_compose`` and ``kan_star``; ``hom_rows``, the row
kernel of the presheaf hom (a meet of left residuals), computes a whole
matrix of homs row by row and carries ``dist_left_imp``, every presheaf and
copresheaf hom, ``weighted_colimit``, ``isbell_up``, ``kan_lower`` and the
density tests.  Their duals reduce to these.

Distributor equality is exact entrywise arrow equality; the theorems this
package verifies are equalities at this level, not isomorphisms.
"""

from __future__ import annotations

import itertools

from .errors import TypeMismatch, ValidationReport
from .qcat import QCategory, QFunctor, dualize_category
from .quantaloid import Arrow, _kept


class QDistributor:
    """A matrix ``matrix[i][j]`` of arrows |x_i| -> |y_j| from dom to cod."""

    def __init__(self, dom: QCategory, cod: QCategory, matrix, name: str = ""):
        if dom.q is not cod.q:
            raise TypeMismatch("distributor endpoints live over different quantaloids")
        self.dom = dom
        self.cod = cod
        self.matrix = tuple(tuple(row) for row in matrix)
        if len(self.matrix) != len(dom) or any(len(r) != len(cod) for r in self.matrix):
            raise TypeMismatch("distributor matrix has wrong shape")
        for i, j in itertools.product(range(len(dom)), range(len(cod))):
            a = self.matrix[i][j]
            if (a.src, a.dst) != (dom.types[i], cod.types[j]):
                raise TypeMismatch(
                    f"entry ({dom.objects[i]},{cod.objects[j]}) is {a}, "
                    f"expected an arrow {dom.types[i]} -> {cod.types[j]}")
        self.name = name or "distributor"

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

    def leq(self, other: "QDistributor") -> bool:
        """The local (entrywise) order of distributors."""
        if self.dom != other.dom or self.cod != other.cod:
            raise TypeMismatch("cannot order distributors with different endpoints")
        q = self.q
        return all(q.leq(a, b) for ra, rb in zip(self.matrix, other.matrix)
                   for a, b in zip(ra, rb))


def validate_distributor(phi: QDistributor) -> ValidationReport:
    """Check the bimodule law on all quadruples; O(|A|^2 |B|^2) accepted."""
    report = ValidationReport(f"distributor {phi.name}")
    A, B, q = phi.dom, phi.cod, phi.q
    for xp, x in itertools.product(range(len(A)), repeat=2):
        for y, yp in itertools.product(range(len(B)), repeat=2):
            lhs = q.compose(B.hom[y][yp], q.compose(phi.matrix[x][y], A.hom[xp][x]))
            if not q.leq(lhs, phi.matrix[xp][yp]):
                report.add("distributor.bimodule",
                           (A.objects[xp], A.objects[x], B.objects[y], B.objects[yp]),
                           "hom(y,y').phi(x,y).hom(x',x) <= phi(x',y') fails")
    return report


def identity_dist(A: QCategory) -> QDistributor:
    return QDistributor(A, A, A.hom, name=f"id({A.name})")


def hom_rows(q, types, rows, cols):
    """The presheaf homs ``meet_x left_imp(ws[x], us[x])`` in hom (s, t) from each row
    ``(s, us)`` to each column ``(t, ws)``, for ``us[x]: types[x] -> s`` and
    ``ws[x]: types[x] -> t``, yielded as one list over cols per row; the empty meet
    is the top.

    For each row type s, each column's ``limp_table`` rows at its values and the
    ``meets``, ``top`` and arrows of its hom are looked up once, so an entry costs one
    ``meets`` step per position and no call.  A caller may stop after any row.
    """
    limp, homs, arrow_table = q.limp_table, q.homs, q.arrow_table
    cols, hoisted = tuple(cols), {}
    for s, us in rows:
        at_s = hoisted.get(s)
        if at_s is None:
            at_s = hoisted[s] = []
            for t, ws in cols:
                hom, residuals = homs[s, t], []
                for p, w in zip(types, ws):
                    residuals.append(limp[p, s, t][w.index])
                at_s.append((hom.meets, hom.top, arrow_table[s, t], residuals))
        indices = [u.index for u in us]
        line = []
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
    return QDistributor(A, C, matrix, name=f"{psi.name}.{phi.name}")


def dist_left_imp(xi: QDistributor, phi: QDistributor) -> QDistributor:
    """xi <l phi: B -/-> C for xi: A -/-> C and phi: A -/-> B."""
    if xi.dom != phi.dom:
        raise TypeMismatch("left implication needs a common domain")
    A, B, C = phi.dom, phi.cod, xi.cod
    matrix = hom_rows(phi.q, A.types, zip(B.types, phi.columns), zip(C.types, xi.columns))
    return QDistributor(B, C, matrix, name=f"({xi.name})<l({phi.name})")


def dist_right_imp(psi: QDistributor, xi: QDistributor) -> QDistributor:
    """psi >r xi: A -/-> B for psi: B -/-> C and xi: A -/-> C: the dual of xi^op <l psi^op."""
    if psi.cod != xi.cod:
        raise TypeMismatch("right implication needs a common codomain")
    op = dist_left_imp(dualize_distributor(xi), dualize_distributor(psi))
    return QDistributor(xi.dom, psi.dom, dualize_distributor(op).matrix,
                        name=f"({psi.name})>r({xi.name})")


def _dual_distributor(phi: QDistributor) -> QDistributor:
    matrix = [phi.q.dual_arrows(col) for col in phi.columns]
    return QDistributor(dualize_category(phi.cod), dualize_category(phi.dom), matrix,
                        name=f"{phi.name}^op")


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
