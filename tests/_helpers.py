"""Shared brute-force machinery for the law and acceptance tests.

Most of what is here recomputes results from first principles (explicit
scans over finite carriers) so that library outputs are checked against
independent oracles, not against themselves.  Among the entrywise oracles
are the bimodule law's quadruple scan, the distributor order and the
``Arrow``-level entries of the elementary theorems, which the library reads
as grids of table indices; ``presheaf_join`` and the witness-based
join-density test are the oracles of the density tests' join folds.  Among them is the
per-position mask method for Hasse covers, which the library used before it
read covers off the generators; the scan of ``weighted_colimit``, before the
library looked suprema up in one dict; ``dual_right_imp``, the right
implication as the dual of a left one, before the library read it off
``rimp_table``; ``oracle_residuals``, the residual
members built one ``Arrow`` vector at a time, before the library read them as
codes; the family search that decided each endo-arrow family whole,
before the library decided each object pair once; and the closure pairs'
maps one (co)presheaf at a time, the Isbell maps and ``kan_lower`` as homs
by ``oracle_presheaf_hom`` and its copresheaf twin, with the fixed-point
filter ``oracle_brute_force_fixed`` on them, before the library mapped
whole families; and ``oracle_lattice_equality``, the two lattices of the
RST-as-FCA check compared as sets of concept keys, before the library
compared their codes.  ``ordinal_quantaloid``
has two homs (0, 1) and (1, 0) that differ, as no preset's do.  Two readers
pick out a verifier report's
failed conditions or one condition by name.  A later section holds lemma
checks that run on library maps: the transpose identities and the eight
adjoint-arrow identities, exact equalities of distributors that no
representation theorem reports on.  The last five sections hold maps that no
``qfca`` command reaches and that the tests use to check the library or to
build its inputs: the closure pairs' four maps and their left and right on
one (co)presheaf (``isbell_up``, ``isbell_down``, ``kan_star``, ``kan_lower``,
``pair_left`` and ``pair_right``), one-row calls of the pairs' family maps;
suprema and infima, adjoint search, order-level density,
the copresheaf Kan maps, the functor order and the equivalence search; the
copresheaf tensors and residuals, and the four generator maps as functors
with their density; a context document
written back as JSON; and Chu transforms with the functorial action of the
concept lattices on them.
"""

import itertools

from qfca.cli import ContextDocument
from qfca.concept import (
    ConceptLattice,
    IsbellPair,
    KanPair,
    ResidualCategory,
    closure_pair,
    fca_lattice,
    residual_category,
    residual_context,
    rst_lattice,
    verify_rst_as_fca,
)
from qfca.errors import (
    BaseMismatch,
    ColimitMissing,
    QfcaError,
    Report,
    SearchBudgetExceeded,
    TypeMismatch,
    ValidationReport,
    _Frozen,
    budget,
)
from qfca.presheaf import (
    Copresheaf,
    Presheaf,
    _SetCode,
    _graph_columns,
    _join_dense,
    _require,
    coyoneda,
    enumerate_presheaves,
    is_complete,
    lan,
    materialize_presheaves,
    presheaf_label,
    presheaf_residual,
    yoneda,
)
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
    underlying_order,
    validate_category,
)
from qfca.qdist import (
    QDistributor,
    cograph,
    dist_compose,
    dist_left_imp,
    dist_right_imp,
    dualize_distributor,
    graph,
    hom_rows,
    is_adjoint_functor_pair,
    tensor_ix,
    validate_distributor,
)
from qfca.quantaloid import (
    Arrow,
    CyclicDualizingFamily,
    HomLattice,
    Quantaloid,
    build_preset,
    is_cyclic_family,
    is_dualizing_family,
)
from qfca.represent import (
    _elementary,
    canonical_adjunction,
    cod_pairs,
    dom_pairs,
    presheaf_tensor,
)


def enumerate_categories(Q, labels):
    """All category structures on the given labels, deterministic order."""
    n = len(labels)
    for types in itertools.product(Q.objects, repeat=n):
        slots = [(i, j) for i in range(n) for j in range(n)]
        pools = [range(len(Q.hom(types[i], types[j]))) for i, j in slots]
        for combo in itertools.product(*pools):
            hom = [[None] * n for _ in range(n)]
            for (i, j), k in zip(slots, combo):
                hom[i][j] = Arrow(types[i], types[j], k)
            A = QCategory(Q, labels, types, hom)
            if validate_category(A).ok:
                yield A


def oracle_is_complete(A):
    """Exhaustive: every enumerated presheaf of every type has a supremum."""
    return all(sup(A, mu) is not None
               for qobj in A.q.objects for mu in enumerate_presheaves(A, qobj))


def composite_witnesses(phi, kind):
    """The witnesses of the ``kind`` representation theorems as composites
    through the materialized spaces C, D of the closure adjunction.

    L is the closure from C onto the concepts and R the right map from D.
    Returns the concept lattice; F = L.K with K the Yoneda functor; G = R.H
    with H the co-Yoneda functor (fca) or the inclusion of rc, the residual
    category of the rows (rst); rc; and the elementary maps, each tensor of
    an F pair and each (co)presheaf a G pair names carried through C or D.
    """
    adj, pair, A, B = canonical_adjunction(phi, kind), closure_pair(phi, kind), phi.dom, phi.cod
    C, D, lattice = adj.C_space, adj.D_space, pair.lattice()
    L = C.functor_to(lattice, pair.closures, name="closure-restriction")
    R = D.functor_to(lattice, pair.rights, name="right-restriction")
    if kind == "fca":
        rc, H = None, D.yoneda_functor()
        f_pairs, g_pairs = dom_pairs(A), cod_pairs(B)
        named = lambda b, v: copresheaf_tensor(B, b, v)
    else:
        rc = residual_category(A)
        H = rc.functor_to(D, name="residual-inclusion")
        f_pairs, g_pairs = dom_pairs(B), dom_pairs(A)
        named = lambda a, u: presheaf_residual(A, a, u)
    F = {f: L(C.label_of(presheaf_tensor(pair.base, *f))) for f in f_pairs}
    G = {g: R(D.label_of(named(*g))) for g in g_pairs}
    return (lattice, compose_functors(L, C.yoneda_functor()), compose_functors(R, H), rc,
            F, G)


def enumerate_distributors(A, B):
    """All distributor matrices from A to B, deterministic order."""
    Q = A.q
    slots = [(i, j) for i in range(len(A)) for j in range(len(B))]
    pools = [range(len(Q.hom(A.types[i], B.types[j]))) for i, j in slots]
    for combo in itertools.product(*pools):
        matrix = [[None] * len(B) for _ in range(len(A))]
        for (i, j), k in zip(slots, combo):
            matrix[i][j] = Arrow(A.types[i], B.types[j], k)
        phi = QDistributor(A, B, matrix)
        if validate_distributor(phi).ok:
            yield phi


def iter_context_stream(Q, limit):
    """Up to ``limit`` valid distributors over carriers of size <= 2."""
    found = 0
    carriers = [("x",), ("x", "y")]
    cats = [list(enumerate_categories(Q, labels)) for labels in carriers]
    for As in cats:
        for Bs in cats:
            for A in As:
                for B in Bs:
                    for phi in enumerate_distributors(A, B):
                        yield phi
                        found += 1
                        if found >= limit:
                            return


def chain4_quantale(ab, ba):
    """A unital quantale on the chain 0 < a < b < 1 with a.b and b.a given:
    0 absorbs, 1 is the unit, a.a = 0 and b.b = b."""
    el = ["0", "a", "b", "1"]
    table = {("a", "a"): "0", ("b", "b"): "b", ("a", "b"): ab, ("b", "a"): ba}
    products = [(x, y, "0" if "0" in (x, y) else y if x == "1" else x if y == "1"
                 else table[x, y]) for x in el for y in el]
    return build_preset("commutative-quantale-from-table", elements=el,
                        leq=list(zip(el, el[1:])), products=products, unit="1")


def ordinal_quantaloid():
    """The quantaloid on the objects 0 < 1 whose hom (p, q) is the chain 0 < 1 where
    p <= q and the one-element lattice {0} where not; a composite is 1 when both
    arrows are.  Its homs (0, 1) and (1, 0) differ, as no preset's do."""
    objects = ("0", "1")
    homs = {(p, q): HomLattice(("0", "1"), {(0, 0), (0, 1), (1, 1)}) if p <= q
            else HomLattice(("0",), {(0, 0)}) for p in objects for q in objects}
    table = {(p, q, r): [[int(u == v == 1) for u in range(len(homs[p, q]))]
                         for v in range(len(homs[q, r]))]
             for p in objects for q in objects for r in objects}
    return Quantaloid(objects, homs, table, {p: 1 for p in objects}, name="ordinal-2")


# -- independent entrywise oracles for the distributor calculus --------------------


def oracle_compose(psi, phi):
    """join_y psi(y,z).phi(x,y) computed by explicit scans."""
    Q = phi.q
    A, B, C = phi.dom, psi.dom, psi.cod
    return [[Arrow(p, r, scan_join(Q, p, r, [scan_compose(Q, psi.matrix[j][k], row[j])
                                             for j in range(len(B))]))
             for k, r in enumerate(C.types)]
            for p, row in zip(A.types, phi.matrix)]


def oracle_left_imp(xi, phi):
    """(xi <l phi)(y, z) = meet_x left_imp(xi(x, z), phi(x, y)) computed by explicit scans."""
    Q = phi.q
    return [[Arrow(s, t, scan_meet(Q, s, t, [scan_left_imp(Q, xrow[k], prow[j])
                                             for xrow, prow in zip(xi.matrix, phi.matrix)]))
             for k, t in enumerate(xi.cod.types)]
            for j, s in enumerate(phi.cod.types)]


def oracle_right_imp(psi, xi):
    """(psi >r xi)(x, y) = meet_z right_imp(psi(y, z), xi(x, z)) computed by explicit scans."""
    Q = xi.q
    return [[Arrow(s, t, scan_meet(Q, s, t, [scan_right_imp(Q, v, w)
                                             for v, w in zip(prow, xrow)]))
             for t, prow in zip(psi.dom.types, psi.matrix)]
            for s, xrow in zip(xi.dom.types, xi.matrix)]


def dual_right_imp(psi, xi):
    """psi >r xi as the dual of xi^op <l psi^op, the route the library took before
    it read right residuals off ``rimp_table``: a second oracle of ``dist_right_imp``."""
    op = dist_left_imp(dualize_distributor(xi), dualize_distributor(psi))
    return [list(row) for row in dualize_distributor(op).matrix]


def residual_closed_form_misses(phi, rc, tr):
    """Each (b, member, a, u) where ``tr(b, member)`` is not ``left_imp(u, phi(a, b))``
    by scans, over every provenance pair (a, u) of every member of ``rc``."""
    Q = phi.q
    return [(b, m, a, u)
            for m, p in zip(rc.category.objects, rc.members)
            for a, u in rc.provenance[p.key()]
            for b, t in zip(phi.cod.objects, phi.cod.types)
            if tr.at(b, m) != Arrow(t, u.dst, scan_left_imp(Q, u, phi.at(a, b)))]


def oracle_residuals(base: QCategory):
    """The residual members built one ``Arrow`` vector at a time: ``presheaf_residual``
    at each (a, u), over objects a, then types, then arrows u, deduplicated by key in
    order of first appearance.  Returns the members and each key's provenance pairs."""
    found = {}
    for a, t in zip(base.objects, base.types):
        for qobj in base.q.objects:
            for u in base.q.arrows(t, qobj):
                p = presheaf_residual(base, a, u)
                found.setdefault(p.key(), (p, []))[1].append((a, u))
    return [p for p, _ in found.values()], {k: tuple(pairs) for k, (_, pairs) in found.items()}


def distributor_leq(phi, psi) -> bool:
    """The local (entrywise) order of distributors with the same endpoints."""
    if phi.dom != psi.dom or phi.cod != psi.cod:
        raise TypeMismatch("cannot order distributors with different endpoints")
    return all(phi.q.leq(a, b) for ra, rb in zip(phi.matrix, psi.matrix) for a, b in zip(ra, rb))


def oracle_bimodule_report(phi) -> ValidationReport:
    """The bimodule law's violations, by a scan of all quadruples (x', x, y, y')
    on the composition table and ``leq_pairs`` alone, reported as
    ``validate_distributor`` reports them."""
    report = ValidationReport(f"distributor {phi.name}")
    Q, A, B = phi.q, phi.dom, phi.cod
    for xp, x in itertools.product(range(len(A)), repeat=2):
        for y, yp in itertools.product(range(len(B)), repeat=2):
            inner = Arrow(A.types[xp], B.types[y],
                          scan_compose(Q, phi.matrix[x][y], A.hom[xp][x]))
            lhs = Arrow(A.types[xp], B.types[yp], scan_compose(Q, B.hom[y][yp], inner))
            if not scan_leq(Q, lhs, phi.matrix[xp][yp]):
                report.add("distributor.bimodule",
                           (A.objects[xp], A.objects[x], B.objects[y], B.objects[yp]),
                           "hom(y,y').phi(x,y).hom(x',x) <= phi(x',y') fails")
    return report


def elementary_entry(phi, kind):
    """X(F f, G g) of the elementary theorem of ``kind`` at the cell (a, u, b, v),
    row pair first, through the ``Arrow`` residuations: the oracle of the
    elementary grids."""
    q = phi.q
    if kind == "fca":
        return lambda a, u, b, v: q.right_imp(v, q.left_imp(phi.at(a, b), u))
    return lambda a, u, b, v: q.left_imp(q.left_imp(u, phi.at(a, b)), v)


def elementary_oracle_grid(phi, kind):
    """The grid of the elementary theorem of ``kind`` cell by cell from
    ``elementary_entry``: each entry's index, by F pair and then G pair."""
    d, entry = _elementary(phi, kind), elementary_entry(phi, kind)
    return [[entry(*d.context(f, g)).index for g in d.g_pairs] for f in d.f_pairs]


# -- the printed form of a (co)presheaf, from its values one by one -----------------


def oracle_presheaf_label(p):
    """``type|x1:v1,x2:v2`` with each value labelled by ``Quantaloid.label``."""
    q = p.base.q
    cells = ",".join(f"{x}:{q.label(v)}" for x, v in zip(p.base.objects, p.values))
    return f"{p.type}|{cells}"


def oracle_values(p):
    """Each base object to the label of p's value there."""
    return {x: p.base.q.label(v) for x, v in zip(p.base.objects, p.values)}


# -- reading verifier reports ------------------------------------------------------


def failed_names(report: Report) -> list[str]:
    return [c.name for c in report.conditions if not c.passed]


def condition(report: Report, name: str):
    for c in report.conditions:
        if c.name == name:
            return c
    raise KeyError(name)


# -- Hasse covers by per-position masks ---------------------------------------------


def oracle_mask_covers(code: _SetCode, codes, labels) -> list[tuple[str, str]]:
    """Sorted cover label pairs (lower, upper) among one type's concept codes.

    A concept's up-set is the AND over positions of the mask of concepts whose
    value there, the bits ``c & field`` of a down-set code, holds its own.
    Ranked by ``bit_count`` (the summed sizes of their values' down-sets, a
    linear extension), the least concept left in a strict up-set is a cover;
    drop it and its up-set, and repeat.  A field where every concept has one
    value masks nothing and is skipped.  This is ``Preorder.hasse_edges`` of
    the lattice category on them, without building that category."""
    ranked = sorted(zip(codes, labels), key=lambda cl: cl[0].bit_count())
    ups = [(1 << len(ranked)) - 1 & ~(1 << i) for i in range(len(ranked))]
    for field in code.fields:
        at, masks = [c & field for c, _ in ranked], {}
        if not at or at.count(at[0]) == len(at):  # one value: it keeps every up-set
            continue
        for i, v in enumerate(at):
            masks[v] = masks.get(v, 0) | 1 << i
        above = {v: sum(m for w, m in masks.items() if v & ~w == 0) for v in masks}
        ups = [u & above[v] for u, v in zip(ups, at)]
    edges = []
    for (_, lower), up in zip(ranked, ups):
        while up:
            j = (up & -up).bit_length() - 1
            edges.append((lower, ranked[j][1]))
            up &= ~(ups[j] | 1 << j)
    return sorted(edges)


# -- classical powerset FCA / RST -----------------------------------------------------


def cl_up(rel, objs, attrs, U):
    return frozenset(b for b in attrs if all((a, b) in rel for a in U))


def cl_down(rel, objs, attrs, V):
    return frozenset(a for a in objs if all((a, b) in rel for b in V))


def classical_fca_extents(rel, objs, attrs):
    """All extents of the relation by powerset scan."""
    out = set()
    for r in range(len(objs) + 1):
        for U in itertools.combinations(sorted(objs), r):
            U = frozenset(U)
            if cl_down(rel, objs, attrs, cl_up(rel, objs, attrs, U)) == U:
                out.add(U)
    return out


def cl_star(rel, objs, attrs, V):
    return frozenset(a for a in objs if any((a, b) in rel for b in V))


def cl_lower(rel, objs, attrs, U):
    return frozenset(b for b in attrs if all(a in U for a in objs if (a, b) in rel))


def classical_rst_fixed(rel, objs, attrs):
    """All fixed attribute sets of the object-oriented closure."""
    out = set()
    for r in range(len(attrs) + 1):
        for V in itertools.combinations(sorted(attrs), r):
            V = frozenset(V)
            if cl_lower(rel, objs, attrs, cl_star(rel, objs, attrs, V)) == V:
                out.add(V)
    return out


def presheaf_to_subset(Q, p):
    """Over the two-element quantaloid, read a presheaf as a subset."""
    one = Q.arrow("*", "*", "1")
    return frozenset(x for x, v in zip(p.base.objects, p.values) if v == one)


# -- brute-force lattice operations and residuations --------------------------------
#
# These read only a hom's element list, its ``leq_pairs`` and the composition
# table, the data a quantaloid is built from, never the derived tables.


def scan_join(Q, p, q, indices):
    """Least upper bound in hom (p, q) by scanning every element, or None."""
    le, n = Q.hom(p, q).leq_pairs, len(Q.hom(p, q))
    ubs = [k for k in range(n) if all((i, k) in le for i in indices)]
    least = [u for u in ubs if all((u, k) in le for k in ubs)]
    return least[0] if len(least) == 1 else None


def scan_meet(Q, p, q, indices):
    """Greatest lower bound in hom (p, q) by scanning every element, or None."""
    le, n = Q.hom(p, q).leq_pairs, len(Q.hom(p, q))
    lbs = [k for k in range(n) if all((k, i) in le for i in indices)]
    greatest = [g for g in lbs if all((k, g) in le for k in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def scan_left_imp(Q, w, u):
    """Index of left_imp(w, u) by the join formula: join of v with v.u <= w."""
    p, q, r = u.src, u.dst, w.dst
    le, comp = Q.hom(p, r).leq_pairs, Q.compose_table[(p, q, r)]
    return scan_join(Q, q, r, [v for v in range(len(Q.hom(q, r)))
                               if (comp[v][u.index], w.index) in le])


def scan_right_imp(Q, v, w):
    """Index of right_imp(v, w) by the join formula: join of u with v.u <= w."""
    p, q, r = w.src, v.src, v.dst
    le, comp = Q.hom(p, r).leq_pairs, Q.compose_table[(p, q, r)]
    return scan_join(Q, p, q, [u for u in range(len(Q.hom(p, q)))
                               if (comp[v.index][u], w.index) in le])


# -- brute-force presheaf and copresheaf halves ----------------------------------
#
# Entrywise, from the scans above and the composition table only.  Each
# returns the value vector as arrows; ``scan_*`` give the index in the hom.


def scan_compose(Q, v, u):
    """Index of v . u read straight from the composition table."""
    return Q.compose_table[(u.src, u.dst, v.dst)][v.index][u.index]


def scan_leq(Q, a, b):
    return (a.index, b.index) in Q.hom(a.src, a.dst).leq_pairs


def all_arrows(Q):
    """Every arrow of Q, hom by hom in object pair order."""
    for p, q in itertools.product(Q.objects, repeat=2):
        yield from Q.arrows(p, q)


def oracle_is_cyclic_family(Q, d):
    """The cyclic test one arrow at a time, through the ``Arrow`` residuations."""
    return all(Q.left_imp(d[u.src], u) == Q.right_imp(u, d[u.dst]) for u in all_arrows(Q))


def oracle_find_cyclic_dualizing_family(Q):
    """The family search one family at a time, in lexicographic order, each
    family decided whole by ``is_cyclic_family`` and ``is_dualizing_family``."""
    best_cyclic = None
    for combo in itertools.product(*(Q.arrows(q, q) for q in Q.objects)):
        d = dict(zip(Q.objects, combo))
        if not is_cyclic_family(Q, d):
            continue
        fam = CyclicDualizingFamily(tuple(sorted(d.items())), True, is_dualizing_family(Q, d))
        if fam.dualizing:
            return fam
        if best_cyclic is None:
            best_cyclic = fam
    return best_cyclic


def oracle_presheaf_hom(mu, nu):
    """hom(mu, nu) = meet_a left_imp(nu(a), mu(a)): type(mu) -> type(nu)."""
    Q, s, t = mu.base.q, mu.type, nu.type
    return Arrow(s, t, scan_meet(Q, s, t, [scan_left_imp(Q, w, u)
                                           for u, w in zip(mu.values, nu.values)]))


def oracle_isbell_up(phi, mu):
    """up(mu)(b) = hom(mu, phi(-, b)): type -> |b|."""
    return tuple(oracle_presheaf_hom(mu, Presheaf(phi.dom, t, col))
                 for t, col in zip(phi.cod.types, phi.columns))


def oracle_kan_star(phi, lam):
    """star(lam)(a) = join_b lam(b) . phi(a, b): |a| -> type."""
    Q, t = phi.q, lam.type
    return tuple(
        Arrow(p, t, scan_join(Q, p, t, [scan_compose(Q, v, u)
                                        for v, u in zip(lam.values, row)]))
        for p, row in zip(phi.dom.types, phi.matrix))


def oracle_kan_lower(phi, mu):
    """lower(mu)(b) = hom(phi(-, b), mu): |b| -> type."""
    return tuple(oracle_presheaf_hom(Presheaf(phi.dom, t, col), mu)
                 for t, col in zip(phi.cod.types, phi.columns))


def oracle_isbell_down(phi, lam):
    """down(lam)(a) = hom(phi(a, -), lam) of copresheaves on B: |a| -> type."""
    return tuple(oracle_copresheaf_hom(Copresheaf(phi.cod, p, row), lam)
                 for p, row in zip(phi.dom.types, phi.matrix))


def oracle_left(pair, v):
    """The left map of a closure pair on one (co)presheaf, by the oracle maps above."""
    phi = pair.phi
    if pair.kind == "fca":
        return Copresheaf(phi.cod, v.type, oracle_isbell_up(phi, v))
    return Presheaf(phi.dom, v.type, oracle_kan_star(phi, v))


def oracle_right(pair, v):
    """The right map of a closure pair on one (co)presheaf, by the oracle maps above."""
    phi = pair.phi
    if pair.kind == "fca":
        return Presheaf(phi.dom, v.type, oracle_isbell_down(phi, v))
    return Presheaf(phi.cod, v.type, oracle_kan_lower(phi, v))


def oracle_brute_force_fixed(phi, kind, qobj):
    """``brute_force_fixed`` one presheaf at a time, as the library ran it before
    its maps took whole families: the enumeration filtered by the oracle closure."""
    pair = closure_pair(phi, kind)
    return tuple(mu for mu in enumerate_presheaves(pair.base, qobj)
                 if oracle_right(pair, oracle_left(pair, mu)) == mu)


def oracle_lattice_equality(report, phi, other, other_name) -> None:
    """``concept._check_rst_is_fca`` as the library ran it before it compared the
    lattices on their codes: per type, the sorted symmetric difference of the
    concepts' keys, read off ``per_type()``."""
    k_types = rst_lattice(phi).per_type()
    m_types = fca_lattice(other).per_type()
    for qobj in phi.q.objects:
        ks = frozenset(p.key() for p in k_types[qobj])
        ms = frozenset(p.key() for p in m_types[qobj])
        report.check_none(f"lattice-equality@{qobj}", sorted(ks ^ ms),
                          f"rst has {len(ks)}, {other_name} has {len(ms)}")


def oracle_kan_dag(phi, mu):
    """dag(mu)(b) = join_a phi(a, b) . mu(a): type -> |b|."""
    Q, s = phi.q, mu.type
    return tuple(
        Arrow(s, b, scan_join(Q, s, b, [scan_compose(Q, row[j], u)
                                        for row, u in zip(phi.matrix, mu.values)]))
        for j, b in enumerate(phi.cod.types))


def oracle_kan_lower_dag(phi, lam):
    """lower_dag(lam)(a) = meet_b right_imp(phi(a, b), lam(b)): type -> |a|."""
    Q, t = phi.q, lam.type
    return tuple(
        Arrow(t, p, scan_meet(Q, t, p, [scan_right_imp(Q, v, w)
                                        for v, w in zip(row, lam.values)]))
        for p, row in zip(phi.dom.types, phi.matrix))


def oracle_generators(phi, kind, qobj):
    """The residuals whose meets are the fixed points, in generation order:
    ``right_imp(v, phi(-, b))`` over columns b, then arrows v: qobj -> |b|
    (fca, presheaves on A); ``left_imp(u, phi(a, -))`` over rows a, then
    arrows u: |a| -> qobj (rst, presheaves on B)."""
    Q = phi.q
    if kind == "fca":
        return [tuple(Arrow(p, qobj, scan_right_imp(Q, Arrow(qobj, t, v), row[j]))
                      for p, row in zip(phi.dom.types, phi.matrix))
                for j, t in enumerate(phi.cod.types) for v in range(len(Q.hom(qobj, t)))]
    return [tuple(Arrow(b, qobj, scan_left_imp(Q, Arrow(p, qobj, u), w))
                  for b, w in zip(phi.cod.types, row))
            for p, row in zip(phi.dom.types, phi.matrix) for u in range(len(Q.hom(p, qobj)))]


def oracle_table(src, dst, column):
    """A map of coded presheaves built one context cell at a time: per position i
    of src, its field and each value there (index u) to the dst code with value
    ``column(i, j)[u]`` at each position j of dst.  The oracle for
    ``concept._table``, which reads whole lines with ``map``s."""
    table = []
    for i, (field, rows) in enumerate(zip(src.fields, src.rows)):
        # one list of dst codes per position j, and zeros for an empty dst
        parts = [[0] * len(rows)] + [[at[k] for k in column(i, j)]
                                     for j, at in enumerate(dst.rows)]
        table.append((field, dict(zip(rows, map(sum, zip(*parts))))))
    return table


def oracle_tables(pair, qobj):
    """The (left, right) tables of ``pair.coded(qobj)`` by ``oracle_table``:
    isbell_up cell (a, b) at u is ``limp(phi(a, b), u)`` and isbell_down the
    same of the dual; kan_star's and kan_lower's are ``v . phi(a, b)`` and
    ``left_imp(u, phi(a, b))``, read as rows of the opposite's tables."""
    phi = pair.phi
    if pair.kind == "fca":
        def isbell(psi, src, dst):
            limp, X, Y, m = psi.q.limp_table, psi.dom.types, psi.cod.types, psi.matrix
            return oracle_table(src, dst, lambda i, j: limp[X[i], qobj, Y[j]][m[i][j].index])
        dual = dualize_distributor(phi)
        code, mid = _SetCode(phi.dom, qobj), _SetCode(dual.dom, qobj)
        return isbell(phi, code, mid), isbell(dual, mid, code)
    op, A, B = phi.q.opposite(), phi.dom.types, phi.cod.types
    m = [[w.index for w in row] for row in phi.matrix]
    code, mid = _SetCode(phi.cod, qobj), _SetCode(phi.dom, qobj, "up")
    return (oracle_table(code, mid, lambda j, i: op.compose_table[qobj, B[j], A[i]][m[i][j]]),
            oracle_table(mid, code, lambda i, j: op.rimp_table[qobj, B[j], A[i]][m[i][j]]))


def oracle_side_laws(phi):
    """Polarity unit, extension unit and extension counit of a context, each
    ``pointwise_leq`` on the ``Arrow`` maps, one enumerated presheaf at a time:
    the oracle for ``represent._presheaf_side_laws``, which decides them on codes."""
    isb, kan = IsbellPair(phi), KanPair(phi)
    rows = [mu for qobj in phi.q.objects for mu in enumerate_presheaves(phi.dom, qobj)]
    cols = [lam for qobj in phi.q.objects for lam in enumerate_presheaves(phi.cod, qobj)]
    return (all(pointwise_leq(mu, isb.closure(mu)) for mu in rows),
            all(pointwise_leq(lam, kan.closure(lam)) for lam in cols),
            all(pointwise_leq(pair_left(kan, pair_right(kan, mu)), mu) for mu in rows))


def oracle_copresheaf_hom(lam, kap):
    """hom(lam, kap) = meet_a right_imp(kap(a), lam(a)): type(lam) -> type(kap)."""
    Q, s, t = lam.base.q, lam.type, kap.type
    return Arrow(s, t, scan_meet(Q, s, t, [scan_right_imp(Q, v, w)
                                           for v, w in zip(kap.values, lam.values)]))


def oracle_enumerate(A, qobj):
    """Every presheaf of type qobj on A as its value vector, in lexicographic order:
    the product of the homs |x_i| -> qobj filtered by the presheaf law
    ``values[i] . hom(x_j, x_i) <= values[j]`` for all i, j."""
    Q, n = A.q, len(A)
    pools = [Q.arrows(t, qobj) for t in A.types]
    return [values for values in itertools.product(*pools)
            if all(scan_leq(Q, Arrow(A.types[j], qobj, scan_compose(Q, values[i], A.hom[j][i])),
                            values[j])
                   for i in range(n) for j in range(n))]


def oracle_copresheaf_law(A, values):
    """hom(x_i, x_j) . values[i] <= values[j] for all i, j."""
    Q, n = A.q, len(A)
    return all(scan_leq(Q, Arrow(values[i].src, A.types[j],
                                 scan_compose(Q, A.hom[i][j], values[i])), values[j])
               for i in range(n) for j in range(n))


def all_copresheaf_vectors(A, qobj):
    """Every vector of arrows qobj -> |x_i|, law or not, in lexicographic order."""
    Q = A.q
    pools = [range(len(Q.hom(qobj, t))) for t in A.types]
    for combo in itertools.product(*pools):
        yield tuple(Arrow(qobj, t, k) for t, k in zip(A.types, combo))


# -- the residuation tables by one fused pass over each composition table -----------


def _least_in_cone(mask, cone):
    """The unique k in ``mask`` whose ``cone[k]`` holds all of ``mask``, else ``None``."""
    found = [k for k in range(mask.bit_length()) if mask >> k & 1 and mask & ~cone[k] == 0]
    return found[0] if len(found) == 1 else None


def oracle_residuation_tables(homs, compose_table):
    """``(limp, rimp)`` as ``Quantaloid.limp_table`` and ``rimp_table`` hold them.

    One pass over the composition table per w intersects the up-sets of the v
    (for each u) and of the u (for each v) with v.u <= w; each residual is the
    least element of its intersection, ``None`` where there is none.
    """
    limp, rimp = {}, {}
    for (p, q, r), comp in compose_table.items():
        dom, mid, cod = homs[(p, q)], homs[(q, r)], homs[(p, r)]
        all_mid, all_dom = (1 << len(mid)) - 1, (1 << len(dom)) - 1
        left = []
        right = [[None] * len(cod) for _ in range(len(mid))]
        for w in range(len(cod)):
            below = cod.down[w]
            left_ub = [all_mid] * len(dom)
            for v, row in enumerate(comp):
                up_v, right_ub = mid.up[v], all_dom
                for u, c in enumerate(row):
                    if below >> c & 1:
                        left_ub[u] &= up_v
                        right_ub &= dom.up[u]
                right[v][w] = _least_in_cone(right_ub, dom.up)
            left.append(tuple(_least_in_cone(m, mid.up) for m in left_ub))
        limp[(p, q, r)] = tuple(left)
        rimp[(p, q, r)] = tuple(map(tuple, right))
    return limp, rimp


# -- lemma checks on library maps ------------------------------------------------


def presheaf_transpose(phi, pa):
    """Columns as presheaves: a functor from the column category into the
    presheaf space ``pa`` of the row category."""
    return pa.functor_from(phi.cod, list(zip(phi.cod.types, phi.columns)),
                           name=f"transpose({phi.name})")


def _transpose_identities(phi):
    """Whether the transpose factors phi through the Yoneda embedding, and
    whether the columns are isbell_down of coyoneda and kan_star of yoneda."""
    B = phi.cod
    pa = materialize_presheaves(phi.dom)
    pt = presheaf_transpose(phi, pa)
    factor = phi == dist_compose(cograph(pt), graph(pa.yoneda_functor()))
    down_route = all(
        isbell_down(phi, coyoneda(B, b)).key() == member_of(pa, pt(b)).key()
        for b in B.objects)
    star_route = all(
        kan_star(phi, yoneda(B, b)).key() == member_of(pa, pt(b)).key()
        for b in B.objects)
    return factor, down_route and star_route


def verify_transpose_identities(phi):
    """The exact identities tying transposes to Yoneda and the adjunctions.

    The rows of phi as copresheaves are the columns of phi^op as presheaves,
    so the copresheaf-side identities are the presheaf-side ones of phi^op.
    """
    report = Report("transpose-identities")
    factor, via = _transpose_identities(phi)
    cofactor, covia = _transpose_identities(dualize_distributor(phi))
    report.check("factor-through-presheaves", factor,
                 "phi == cograph(transpose) . graph(yoneda)")
    report.check("factor-through-copresheaves", cofactor,
                 "phi == cograph(coyoneda) . graph(cotranspose)")
    report.check("cotranspose-via-adjunctions", covia,
                 "rows equal isbell_up of yoneda and kan_dag of coyoneda")
    report.check("transpose-via-adjunctions", via,
                 "columns equal isbell_down of coyoneda and kan_star of yoneda")
    return report


def adjoint_arrow_identities_suite(F, phi, psi):
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

    def check(code, lhs, rhs):
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


# -- the closure pairs' maps on one (co)presheaf ------------------------------------


def _one_row(body, v, kind: type, base: QCategory, where: str, out: type, out_base: QCategory):
    """A family map's ``body`` on the one row of v, which must be a ``kind`` on
    ``base`` (``where`` describes it), as an ``out`` on ``out_base``."""
    _require(kind, base, where, v)
    return out(out_base, v.type, tuple(body(v.type, [v.values])[0]))


def isbell_up(phi: QDistributor, mu: Presheaf) -> Copresheaf:
    """phi <l mu, a copresheaf on B: ``isbell_up(mu)(b) = hom(mu, phi(-, b))``."""
    return _one_row(IsbellPair(phi).lefts, mu, Presheaf, phi.dom, "the context's row category",
                    Copresheaf, phi.cod)


def isbell_down(phi: QDistributor, lam: Copresheaf) -> Presheaf:
    """isbell_up of the dual context: a copresheaf on B back to a presheaf on A."""
    return _one_row(IsbellPair(phi).rights, lam, Copresheaf, phi.cod,
                    "the context's column category", Presheaf, phi.dom)


def kan_star(phi: QDistributor, lam: Presheaf) -> Presheaf:
    """lam . phi, a presheaf on A: ``kan_star(lam)(a) = join_b lam(b) . phi(a, b)``."""
    return _one_row(KanPair(phi).lefts, lam, Presheaf, phi.cod, "the context's column category",
                    Presheaf, phi.dom)


def kan_lower(phi: QDistributor, mu: Presheaf) -> Presheaf:
    """mu <l phi, a presheaf on B: ``kan_lower(mu)(b) = hom(phi(-, b), mu)``."""
    return _one_row(KanPair(phi).rights, mu, Presheaf, phi.dom, "the context's row category",
                    Presheaf, phi.cod)


def pair_left(pair, v):
    """The left map of a closure pair on one (co)presheaf: isbell_up or kan_star."""
    return (isbell_up if pair.kind == "fca" else kan_star)(pair.phi, v)


def pair_right(pair, v):
    """The right map of a closure pair on one (co)presheaf: isbell_down or kan_lower."""
    return (isbell_down if pair.kind == "fca" else kan_lower)(pair.phi, v)


# -- order, suprema, adjoints, density and equivalence on whole categories -----------


def pointwise_leq(a, b) -> bool:
    """Entrywise arrow order (the distributor-calculus order)."""
    _require(a.__class__, a.base, "the first operand's base", a, b)
    q = a.base.q
    return all(q.leq(x, y) for x, y in zip(a.values, b.values))


def value_at(p, x: str) -> Arrow:
    """The value of a (co)presheaf p at the object x of its base."""
    return p.values[p.base.index(x)]


def top_presheaf(A: QCategory, qobj: str) -> Presheaf:
    return Presheaf(A, qobj, tuple(A.q.top(t, qobj) for t in A.types))


def weighted_colimit(mu: Presheaf, F: QFunctor):
    """Colimit of F weighted by mu, on dom(F), by a scan of cod(F): the least-label
    object whose hom row is ``graph(F) <l mu``, or ``None``.  The oracle of the
    library's one supremum lookup, ``presheaf._suprema``."""
    _require(Presheaf, F.dom, "the functor's domain", mu)
    A, s = F.cod, mu.type
    target = tuple(next(hom_rows(A.q, F.dom.types, [(s, mu.values)], _graph_columns(F))))
    return min((x for x, t, row in zip(A.objects, A.types, A.hom) if t == s and row == target),
               default=None)


def _presheaf_of(lam: Copresheaf) -> Presheaf:
    """lam as a presheaf over the opposite quantaloid on the dual of its base."""
    return Presheaf(dualize_category(lam.base), lam.type, lam.base.q.dual_arrows(lam.values))


def _copresheaf_of(mu: Presheaf, base: QCategory) -> Copresheaf:
    """mu, a presheaf on the dual of ``base``, as a copresheaf on ``base``."""
    return Copresheaf(base, mu.type, mu.base.q.dual_arrows(mu.values))


def member_of(family, label: str):
    """The member of a (co)presheaf family with that label."""
    return family.members[family.labels.index(label)]


def per_member(base: QCategory, f):
    """A map f of presheaves on base, one at a time, as a family map on value rows."""
    return lambda s, rows: [f(Presheaf(base, s, tuple(vs))).values for vs in rows]


def sup(A: QCategory, mu: Presheaf):
    """The least-label object x with hom(x, -) = hom <l mu, or ``None``: colim(mu, 1_A)."""
    _require(Presheaf, A, "the category", mu)
    return weighted_colimit(mu, identity_functor(A))


def inf(A: QCategory, lam: Copresheaf):
    """The least-label object x with hom(-, x) = lam >r hom, or ``None``."""
    _require(Copresheaf, A, "the category", lam)
    return sup(dualize_category(A), _presheaf_of(lam))


def weighted_limit(lam: Copresheaf, F: QFunctor):
    """Limit of F weighted by lam: the colimit of F^op weighted by lam^op."""
    _require(Copresheaf, F.dom, "the functor's domain", lam)
    return weighted_colimit(_presheaf_of(lam), dualize_functor(F))


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


def presheaf_join(A: QCategory, qobj: str, parts) -> Presheaf:
    """Pointwise join through ``Quantaloid.hom_join``; the empty join is the bottom presheaf."""
    parts = list(parts)
    return Presheaf(A, qobj, tuple(A.q.hom_join(t, qobj, [p.values[i] for p in parts])
                                   for i, t in enumerate(A.types)))


def oracle_join_dense(X: QCategory, image) -> bool:
    """``_join_dense`` from library maps: the witness at y is the ``presheaf_join`` of
    the representables at the image objects below y, and y is a join when the
    witness has a supremum isomorphic to y."""
    order = underlying_order(X)
    for y, t in zip(X.objects, X.types):
        below = [s for s in image if X.type_of(s) == t and order.leq(s, y)]
        j = sup(X, presheaf_join(X, t, [yoneda(X, s) for s in below]))
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
def pushforward(F: QFunctor, mu: Presheaf) -> Presheaf:
    """Transport a presheaf along F: ``mu . cograph(F)``, a presheaf on cod(F)."""
    _require(Presheaf, F.dom, "the functor's domain", mu)
    q, types, t = F.cod.q, F.dom.types, mu.type
    return Presheaf(F.cod, t, tuple(tensor_ix(q, types, p, t, row, mu.values)
                                    for p, row in zip(F.cod.types, cograph(F).matrix)))


def kan_dag(phi: QDistributor, mu: Copresheaf) -> Copresheaf:
    """Compose a copresheaf on A with the context: kan_star of the dual context."""
    _require(Copresheaf, phi.dom, "the context's row category", mu)
    return _copresheaf_of(kan_star(dualize_distributor(phi), _presheaf_of(mu)), phi.cod)


def kan_lower_dag(phi: QDistributor, lam: Copresheaf) -> Copresheaf:
    """Left extension of a copresheaf on B along the context: kan_lower of the dual."""
    _require(Copresheaf, phi.cod, "the context's column category", lam)
    return _copresheaf_of(kan_lower(dualize_distributor(phi), _presheaf_of(lam)), phi.dom)


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


# -- the four generator maps as functors --------------------------------------------


def copresheaf_tensor(A: QCategory, a: str, u: Arrow) -> Copresheaf:
    """The corepresentable at a composed with u; type dom(u): presheaf_tensor in A^op."""
    return _copresheaf_of(presheaf_tensor(dualize_category(A), a, A.q.dual_arrows([u])[0]), A)


def copresheaf_residual(A: QCategory, a: str, u: Arrow) -> Copresheaf:
    """The representable at a residuated into u; type dom(u): presheaf_residual in A^op."""
    return _copresheaf_of(presheaf_residual(dualize_category(A), a, A.q.dual_arrows([u])[0]), A)


def generator_functors(A: QCategory, pa, pda) -> tuple[dict, dict]:
    """The generator maps of ``verify_density_suite`` as functors into the
    materialized spaces ``pa`` (P(A)) and ``pda`` (P+(A)), and their density.

    Tensors and residuals go from the discrete category on the (object, arrow
    out of its type) pairs, cotensors and coresiduals from the one on the
    (object, arrow into its type) pairs; a pair is labelled ``(a;u:src->dst)``
    and typed as the generator it names.  Both dicts are keyed by the names of
    the four density conditions, in the report's order; the density is
    ``_join_dense`` over each functor's image, in the space or its dual.
    """
    dp, cp = dom_pairs(A), cod_pairs(A)
    dp_labels, cp_labels = ([f"({a};{A.q.label(u)}:{u.src}->{u.dst})" for a, u in pairs]
                            for pairs in (dp, cp))
    dom_cat = discrete_category(A.q, QTypedSet(tuple(dp_labels), tuple(u.dst for _, u in dp)),
                                name="rows-with-arrows")
    cod_cat = discrete_category(A.q, QTypedSet(tuple(cp_labels), tuple(u.src for _, u in cp)),
                                name="rows-with-coarrows")
    pair_of = dict(zip(dp_labels + cp_labels, dp + cp))

    def rows(make, dom):
        return [make(A, *pair_of[label]).key() for label in dom.objects]
    functors = {
        "presheaf_tensors:join": pa.functor_from(
            dom_cat, rows(presheaf_tensor, dom_cat), name="tensors"),
        "presheaf_residuals:meet": pa.functor_from(
            dom_cat, rows(presheaf_residual, dom_cat), name="residuals"),
        "copresheaf_tensors:meet": pda.functor_from(
            cod_cat, rows(copresheaf_tensor, cod_cat), name="cotensors"),
        "copresheaf_residuals:join": pda.functor_from(
            cod_cat, rows(copresheaf_residual, cod_cat), name="coresiduals"),
    }
    P, Pd = pa.category, pda.category
    spaces = (P, dualize_category(P), dualize_category(Pd), Pd)
    density = {name: _join_dense(X, F.mapping.values())
               for (name, F), X in zip(functors.items(), spaces)}
    return functors, density


# -- a context document written back as a context file --------------------------------


def serialize_document(doc: ContextDocument) -> dict:
    """The JSON form of ``doc`` that ``parse_document`` reads back: a preset by
    its spec, any other quantaloid by its homs and composition table."""
    Q = doc.quantaloid
    if "preset" in doc.quantaloid_spec:
        qspec = {"preset": doc.quantaloid_spec["preset"]}
    else:
        homs = {}
        for p, q in itertools.product(Q.objects, repeat=2):
            hom = Q.hom(p, q)
            homs[f"{p}->{q}"] = {
                "elements": list(hom.elements),
                "leq": sorted([hom.elements[i], hom.elements[j]] for i, j in hom.leq_pairs),
            }
        compose = []
        for p, q, r in itertools.product(Q.objects, repeat=3):
            for v in Q.arrows(q, r):
                for u in Q.arrows(p, q):
                    w = Q.compose(v, u)
                    compose.append([f"{q}->{r}:{Q.label(v)}", f"{p}->{q}:{Q.label(u)}",
                                    f"{p}->{r}:{Q.label(w)}"])
        qspec = {
            "objects": list(Q.objects),
            "homs": homs,
            "compose": compose,
            "units": {q: Q.label(Q.unit(q)) for q in Q.objects},
            "name": Q.name,
        }
    out = {"quantaloid": qspec, "categories": {}, "distributors": {}, "functors": {}}
    for name in sorted(doc.categories):
        A = doc.categories[name]
        out["categories"][name] = {
            "objects": [{"label": x, "type": t} for x, t in zip(A.objects, A.types)],
            "hom": [[x, y, Q.label(A.hom_of(x, y))]
                    for x in A.objects for y in A.objects],
        }
    for name in sorted(doc.distributors):
        phi = doc.distributors[name]
        out["distributors"][name] = {
            "from": phi.dom.name,
            "to": phi.cod.name,
            "entries": [[x, y, Q.label(phi.at(x, y))]
                        for x in phi.dom.objects for y in phi.cod.objects],
        }
    for name in sorted(doc.functors):
        F = doc.functors[name]
        out["functors"][name] = {"from": F.dom.name, "to": F.cod.name,
                                 "map": {x: F(x) for x in F.dom.objects}}
    return out


# -- Chu transforms and the functorial action of the concept lattices ----------------


class InvalidChu(QfcaError):
    """The pair of functors is not a Chu transform."""


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


def _require_chu(c: ChuTransform) -> None:
    rep = validate_chu(c)
    if not rep.ok:
        raise InvalidChu(f"not a Chu transform: {rep.issues[0].detail}")


def _lattice_map(src: ConceptLattice, dst: ConceptLattice, F: QFunctor, closure,
                 name: str) -> QFunctor:
    """Each concept of src pushed forward along F and closed in dst."""
    return src.functor_to(dst, per_member(src.base, lambda p: closure(pushforward(F, p))),
                          name=name)


def fca_lattice_map(c: ChuTransform) -> QFunctor:
    """The FCA lattice map of a Chu transform, from frm's concepts to to's."""
    _require_chu(c)
    return _lattice_map(fca_lattice(c.frm), fca_lattice(c.to), c.F, IsbellPair(c.to).closure,
                        "fca-map")


def rst_lattice_map(c: ChuTransform) -> QFunctor:
    """The RST lattice map of a Chu transform; contravariant: to's concepts to frm's."""
    _require_chu(c)
    return _lattice_map(rst_lattice(c.to), rst_lattice(c.frm), c.G, KanPair(c.frm).closure,
                        "rst-map")


def residual_map_functor(F: QFunctor, src: ResidualCategory,
                         dst: ResidualCategory) -> QFunctor:
    """The induced map between residual categories along a row functor."""
    if src.base != F.dom or dst.base != F.cod:
        raise BaseMismatch("residual categories must sit on the functor endpoints")

    def image(p):
        a, u = src.provenance[p.key()][0]
        return presheaf_residual(F.cod, F(a), u)

    return src.functor_to(dst, per_member(src.base, image), name="residual-map")


def residual_chu(c: ChuTransform) -> ChuTransform:
    """Transport a Chu transform to the residual contexts (direction reverses)."""
    _require_chu(c)
    src = residual_category(c.frm.dom)
    dst = residual_category(c.to.dom)
    out = ChuTransform(
        frm=residual_context(c.to, dst),
        to=residual_context(c.frm, src),
        F=c.G,
        G=residual_map_functor(c.F, src, dst),
    )
    rep = validate_chu(out)
    if not rep.ok:
        raise InvalidChu(f"residual transport failed: {rep.issues[0].detail}")
    return out


def verify_functoriality_square(c: ChuTransform) -> Report:
    """The RST map of a Chu transform equals the FCA map of its residual transport."""
    report = Report("functoriality-square")
    chu_ok = validate_chu(c).ok
    report.check("chu-transform", chu_ok, "the square commutes entrywise")
    if not chu_ok:
        return report
    phi, psi = c.frm, c.to
    report.check("sides-are-residual-fca",
                 verify_rst_as_fca(phi).passed and verify_rst_as_fca(psi).passed,
                 "both lattices equal their residual-context FCA lattices")
    tr_phi = residual_context(phi)
    k_psi = rst_lattice(psi)
    kan = KanPair(phi)
    isb = IsbellPair(tr_phi)
    bad = []
    for p in k_psi.concepts:
        moved = pushforward(c.G, p)
        if kan.closure(moved) != isb.closure(moved):
            bad.append(presheaf_label(p))
    report.check_none("square-commutes", bad, "rst map equals residual fca map pointwise")
    return report
