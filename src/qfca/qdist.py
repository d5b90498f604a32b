"""Distributors between enriched categories: composition, residuation, graphs.

A distributor from A to B is a matrix of arrows compatible with both hom
structures; it generalizes a multi-typed, multi-valued relation.  The three
operations of the calculus are

    compose:    (psi . phi)(x, z)   = join_y  psi(y, z) . phi(x, y)
    left_imp:   (xi <l phi)(y, z)   = meet_x  left_imp(xi(x, z), phi(x, y))
    right_imp:  (psi >r xi)(x, y)   = meet_z  right_imp(psi(y, z), xi(x, z))

Each entry is one of two folds over the quantaloid's index tables:
``tensor_ix``, a join of composites, carries ``dist_compose``, ``kan_star``
and ``pushforward``; ``hom_ix``, a meet of left residuals (the presheaf hom),
carries ``dist_left_imp``, ``presheaf_hom``, ``weighted_colimit``,
``isbell_up`` and ``kan_lower``.  Their duals reduce to these.

Distributor equality is exact entrywise arrow equality; the theorems this
package verifies are equalities at this level, not isomorphisms.
"""

from __future__ import annotations

import itertools

from .errors import TypeMismatch, ValidationReport, _Frozen
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


def hom_ix(q, types, s: str, t: str, ws, us) -> Arrow:
    """meet_x left_imp(ws[x], us[x]) in hom (s, t), for ``us[x]: types[x] -> s`` and
    ``ws[x]: types[x] -> t``: the presheaf hom from us to ws; the empty meet is the top."""
    limp, hom = q.limp_table, q.homs[s, t]
    meets, k = hom.meets, hom.top
    for p, w, u in zip(types, ws, us):
        k = meets[k][limp[p, s, t][w.index][u.index]]
    return q.arrow_table[s, t][k]


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
    A, B, C, q = phi.dom, phi.cod, xi.cod, phi.q
    matrix = [[hom_ix(q, A.types, s, t, w, u) for t, w in zip(C.types, xi.columns)]
              for s, u in zip(B.types, phi.columns)]
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
    matrix = [[B.hom_of(F(x), y) for y in B.objects] for x in A.objects]
    return QDistributor(A, B, matrix, name=f"graph({F.name})")


def cograph(F: QFunctor) -> QDistributor:
    """F_cograph(y, x) = hom(y, Fx): cod(F) -/-> dom(F)."""
    A, B = F.dom, F.cod
    matrix = [[B.hom_of(y, F(x)) for x in A.objects] for y in B.objects]
    return QDistributor(B, A, matrix, name=f"cograph({F.name})")


def restrict_distributor(phi: QDistributor, F: QFunctor, G: QFunctor) -> QDistributor:
    """phi(F-, G-): dom(F) -/-> dom(G), equal to cograph(G).phi.graph(F)."""
    if F.cod != phi.dom or G.cod != phi.cod:
        raise TypeMismatch("restriction functors must target the distributor endpoints")
    matrix = [[phi.at(F(x), G(y)) for y in G.dom.objects] for x in F.dom.objects]
    return QDistributor(F.dom, G.dom, matrix, name=f"{phi.name}(F-,G-)")


def dist_adjoint_pair(phi: QDistributor, psi: QDistributor) -> bool:
    """Test phi -| psi in the distributor calculus: unit and counit inequalities."""
    if phi.dom != psi.cod or phi.cod != psi.dom:
        raise TypeMismatch("an adjoint candidate pair must have opposite endpoints")
    A, B = phi.dom, phi.cod
    return (identity_dist(A).leq(dist_compose(psi, phi))
            and dist_compose(phi, psi).leq(identity_dist(B)))


def is_adjoint_functor_pair(F: QFunctor, G: QFunctor) -> bool:
    """F -| G holds exactly when the graph of F equals the cograph of G."""
    if F.dom != G.cod or F.cod != G.dom:
        raise TypeMismatch("adjoint functors must go in opposite directions")
    return graph(F) == cograph(G)


# -- Chu transforms -------------------------------------------------------------


class ChuTransform(_Frozen):
    """A pair of functors relating two contexts: psi(F-, -) = phi(-, G-)."""

    _fields = ("frm", "to", "F", "G")

    def __init__(self, frm: QDistributor, to: QDistributor, F: QFunctor, G: QFunctor):
        if F.dom != frm.dom or F.cod != to.dom:
            raise TypeMismatch("F must map the source rows to the target rows")
        if G.dom != to.cod or G.cod != frm.cod:
            raise TypeMismatch("G must map the target columns to the source columns")
        self._set(frm, to, F, G)


def validate_chu(c: ChuTransform) -> ValidationReport:
    report = ValidationReport("chu transform")
    phi, psi = c.frm, c.to
    for x in phi.dom.objects:
        for y in psi.cod.objects:
            lhs = psi.at(c.F(x), y)
            rhs = phi.at(x, c.G(y))
            if lhs != rhs:
                report.add("chu.square", (x, y),
                           f"psi(F{x},{y}) = {psi.q.label(lhs)} but "
                           f"phi({x},G{y}) = {phi.q.label(rhs)}")
    return report


# -- the eight adjoint-arrow identities -----------------------------------------


def adjoint_arrow_identities_suite(F: QFunctor, phi: QDistributor,
                                   psi: QDistributor) -> ValidationReport:
    """Exact checks of the eight graph/cograph residuation identities.

    Shapes: for F: A -> B, ``phi`` must run B -/-> C and ``psi`` must run
    C -/-> B.  Identities with a free third distributor are instantiated with
    composites of phi, psi and the graphs, which keeps every check closed
    under the two supplied inputs.
    """
    if phi.dom != F.cod or psi.cod != F.cod or phi.cod != psi.dom:
        raise TypeMismatch("need phi: cod(F) -/-> C and psi: C -/-> cod(F)")
    gF, cF = graph(F), cograph(F)
    report = ValidationReport("adjoint arrow identities")

    def check(code: str, lhs: QDistributor, rhs: QDistributor):
        if lhs != rhs:
            report.add(code, (F.name, phi.name, psi.name), "sides differ")

    chi = dist_compose(cF, psi)
    rho = dist_compose(phi, gF)
    # (1) composing with a graph is residuating by the cograph, and dually
    check("compose-graph.left", dist_compose(phi, gF), dist_left_imp(phi, cF))
    check("compose-graph.right", dist_compose(cF, psi), dist_right_imp(gF, psi))
    # (2) graphs slide through residuals of composites
    check("slide.right", dist_right_imp(dist_compose(gF, chi), psi),
          dist_right_imp(chi, dist_compose(cF, psi)))
    check("slide.left", dist_left_imp(dist_compose(phi, gF), rho),
          dist_left_imp(phi, dist_compose(rho, cF)))
    # (3) graphs move in and out of one side of a residual
    check("shift.right", dist_compose(dist_right_imp(phi, phi), gF),
          dist_right_imp(phi, dist_compose(phi, gF)))
    check("shift.left", dist_compose(cF, dist_left_imp(psi, psi)),
          dist_left_imp(dist_compose(cF, psi), psi))
    # (4) a cograph factor trades places with a graph inside a residual
    check("trade.right", dist_compose(cF, dist_right_imp(phi, rho)),
          dist_right_imp(dist_compose(phi, gF), rho))
    check("trade.left", dist_compose(dist_left_imp(psi, psi), gF),
          dist_left_imp(psi, dist_compose(cF, psi)))
    return report
