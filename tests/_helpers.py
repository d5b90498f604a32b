"""Shared brute-force machinery for the law and acceptance tests.

Everything here recomputes results from first principles (explicit scans over
finite carriers) so that library outputs are checked against independent
oracles, not against themselves.
"""

import itertools

from qfca.qcat import QCategory, validate_category
from qfca.qdist import QDistributor, validate_distributor
from qfca.quantaloid import Arrow


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


def residual_closed_form_misses(phi, rc, tr):
    """Each (b, member, a, u) where ``tr(b, member)`` is not ``left_imp(u, phi(a, b))``
    by scans, over every provenance pair (a, u) of every member of ``rc``."""
    Q = phi.q
    return [(b, m, a, u)
            for m, p in zip(rc.category.objects, rc.members)
            for a, u in rc.provenance[p.key()]
            for b, t in zip(phi.cod.objects, phi.cod.types)
            if tr.at(b, m) != Arrow(t, u.dst, scan_left_imp(Q, u, phi.at(a, b)))]


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


def oracle_presheaf_hom(mu, nu):
    """hom(mu, nu) = meet_a left_imp(nu(a), mu(a)): type(mu) -> type(nu)."""
    Q, s, t = mu.base.q, mu.type, nu.type
    return Arrow(s, t, scan_meet(Q, s, t, [scan_left_imp(Q, w, u)
                                           for u, w in zip(mu.values, nu.values)]))


def oracle_isbell_up(phi, mu):
    """up(mu)(b) = meet_a left_imp(phi(a, b), mu(a)): type -> |b|."""
    Q, s = phi.q, mu.type
    return tuple(
        Arrow(s, t, scan_meet(Q, s, t, [scan_left_imp(Q, row[j], u)
                                        for row, u in zip(phi.matrix, mu.values)]))
        for j, t in enumerate(phi.cod.types))


def oracle_kan_star(phi, lam):
    """star(lam)(a) = join_b lam(b) . phi(a, b): |a| -> type."""
    Q, t = phi.q, lam.type
    return tuple(
        Arrow(p, t, scan_join(Q, p, t, [scan_compose(Q, v, u)
                                        for v, u in zip(lam.values, row)]))
        for p, row in zip(phi.dom.types, phi.matrix))


def oracle_kan_lower(phi, mu):
    """lower(mu)(b) = meet_a left_imp(mu(a), phi(a, b)): |b| -> type."""
    Q, s = phi.q, mu.type
    return tuple(
        Arrow(b, s, scan_meet(Q, b, s, [scan_left_imp(Q, w, row[j])
                                        for row, w in zip(phi.matrix, mu.values)]))
        for j, b in enumerate(phi.cod.types))


def oracle_isbell_down(phi, lam):
    """down(lam)(a) = meet_b right_imp(lam(b), phi(a, b)): |a| -> type."""
    Q, t = phi.q, lam.type
    return tuple(
        Arrow(p, t, scan_meet(Q, p, t, [scan_right_imp(Q, v, w)
                                        for v, w in zip(lam.values, row)]))
        for p, row in zip(phi.dom.types, phi.matrix))


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


def oracle_copresheaf_hom(lam, kap):
    """hom(lam, kap) = meet_a right_imp(kap(a), lam(a)): type(lam) -> type(kap)."""
    Q, s, t = lam.base.q, lam.type, kap.type
    return Arrow(s, t, scan_meet(Q, s, t, [scan_right_imp(Q, v, w)
                                           for v, w in zip(kap.values, lam.values)]))


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
