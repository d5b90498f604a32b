"""Executable verifiers for the representation theorems.

Each verifier checks the hypotheses and the defining equality of one
representation theorem on concrete finite data and returns a structured
:class:`~qfca.errors.Report` naming every condition.  When data is broken, the
failing hypothesis is named in the report rather than raised, so negative
controls can assert exactly which condition died.

The ``canonical_*`` builders construct the witness data used in the
existence half of each theorem; they are what the command-line ``verify``
subcommand runs when the user supplies no data of their own.  They start
from the concept lattice: the F and G of the FCA and RST theorems are the
closed forms of their composites through the (co)presheaf spaces, so those
spaces, exponential in the carriers, are materialized only for the general
and dense theorems, which read the adjunction on them.

``_fix_restriction`` restricts L to fix(TS) and decides whether that is an
equivalence onto X.  ``_elementary`` describes each kind of the elementary
theorem; its verifiers, corollary and canonical data read that, not the kind.
The elementary entries are one grid of hom indices per kind, read off the
residuation tables; the homs they are compared with come from ``right_rows``
(fca) and ``hom_rows`` (rst).
A verifier keeps nothing; its bases and context do (see ``quantaloid._kept``).
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import (
    NotAQuantale,
    Report,
    TypeMismatch,
    _Frozen,
    _Record,
)
from .qcat import (
    QCategory,
    QFunctor,
    compose_functors,
    dualize_category,
    is_essentially_surjective,
    is_fully_faithful,
    is_separated,
    underlying_order,
    validate_functor,
)
from .qdist import (
    QDistributor,
    cograph,
    dist_compose,
    dualize_distributor,
    graph,
    hom_rows,
    is_adjoint_functor_pair,
    right_rows,
)
from .presheaf import (
    Presheaf,
    PresheafSpace,
    _join_dense,
    _member_codes,
    _per_type,
    enumerate_presheaves,
    is_codense,
    is_complete,
    is_dense,
    lan,
    materialize_presheaves,
    presheaf_residual,
    ran,
    yoneda,
)
from .concept import (
    ConceptLattice,
    IsbellPair,
    KanPair,
    ResidualCategory,
    _through,
    closure_pair,
    residual_category,
    residual_context,
)
from .quantaloid import Arrow, _kept


# -- fixed points ---------------------------------------------------------------


def fix_points(F: QFunctor) -> QCategory:
    """The full subcategory of objects isomorphic to their image under F."""
    if F.dom != F.cod:
        raise TypeMismatch("fixed points need an endofunctor")
    order = underlying_order(F.dom)
    fixed = [x for x in F.dom.objects if order.iso(F(x), x)]
    return F.dom.full_subcategory(fixed, name=f"fix({F.name})")


# -- the general representation theorem ------------------------------------------


def _fix_restriction(S: QFunctor, T: QFunctor, L: QFunctor, X: QCategory) -> tuple[QFunctor, bool]:
    """L restricted to fix(TS), and whether that restriction is an equivalence onto X."""
    fixed = fix_points(compose_functors(T, S))
    Lp = QFunctor(fixed, X, {x: L(x) for x in fixed.objects}, name=f"{L.name}|fix")
    return Lp, is_fully_faithful(Lp) and is_essentially_surjective(Lp)


def verify_general_representation(S: QFunctor, T: QFunctor, L: QFunctor,
                                  R: QFunctor, X: QCategory) -> Report:
    """Essentially surjective L, R with graph(S) = cograph(R) . graph(L).

    On success the closure's fixed subcategory is built and the restriction of
    L onto it is certified to be an equivalence with X.
    """
    if L.cod != X or R.cod != X:
        raise TypeMismatch("L and R must land in X")
    if L.dom != S.dom or R.dom != T.dom:
        raise TypeMismatch("L must start at dom(S) and R at dom(T)")
    report = Report("general-representation")
    report.check("adjunction", is_adjoint_functor_pair(S, T), "graph(S) == cograph(T)")
    report.check("functor-L", validate_functor(L).ok, "")
    report.check("functor-R", validate_functor(R).ok, "")
    report.check("essential-surjectivity-L", is_essentially_surjective(L), "")
    report.check("essential-surjectivity-R", is_essentially_surjective(R), "")
    report.check("graph-identity",
                 graph(S) == dist_compose(cograph(R), graph(L)),
                 "graph(S) == cograph(R) . graph(L)")
    if report.passed:
        report.check("fix-equivalence", _fix_restriction(S, T, L, X)[1],
                     "the restriction of L to the fixed subcategory is an equivalence")
    return report


def verify_type_preserving_representation(S: QFunctor, T: QFunctor,
                                          L: dict, R: dict, X: QCategory) -> Report:
    """The weakened form: L, R are raw type-preserving maps; functoriality is
    implied by the hom identity, and certified here as an extra condition."""
    C, D = S.dom, T.dom
    report = Report("type-preserving-representation")
    report.check("adjunction", is_adjoint_functor_pair(S, T), "")
    tp = all(C.type_of(c) == X.type_of(L[c]) for c in C.objects) and \
        all(D.type_of(d) == X.type_of(R[d]) for d in D.objects)
    report.check("type-preserving", tp, "")
    if not tp:
        return report
    Lf, Rf = QFunctor(C, X, L, name="L"), QFunctor(D, X, R, name="R")
    report.check("essential-surjectivity-L", is_essentially_surjective(Lf), "")
    report.check("essential-surjectivity-R", is_essentially_surjective(Rf), "")
    gS = graph(S)
    bad = [(c, d) for c in C.objects for d in D.objects
           if gS.at(c, d) != X.hom_of(L[c], R[d])]
    report.check_none("hom-identity", bad, "graph(S)(c,d) == X(Lc,Rd)")
    if report.passed:
        report.check("functoriality-certificate",
                     validate_functor(Lf).ok and validate_functor(Rf).ok,
                     "the raw maps are automatically functors")
        report.check("fix-equivalence", _fix_restriction(S, T, Lf, X)[1], "")
    return report


# -- the dense/codense representation theorem --------------------------------------


def verify_dense_representation(S: QFunctor, T: QFunctor, F: QFunctor, K: QFunctor,
                                G: QFunctor, H: QFunctor, X: QCategory) -> Report:
    """Complete S.dom, T.dom and X; dense F, K; codense G, H; the four-way identity.

    When all of that holds, the Kan extensions lan(K, F) and ran(H, G) are
    built pointwise and handed to the general representation verifier,
    replaying the sufficiency proof on the given data.
    """
    if F.dom != K.dom or G.dom != H.dom:
        raise TypeMismatch("F,K and G,H must share their small domains")
    if K.cod != S.dom or H.cod != T.dom or F.cod != X or G.cod != X:
        raise TypeMismatch("K, H must land in the adjunction; F, G in X")
    report = Report("dense-representation")
    report.check("adjunction", is_adjoint_functor_pair(S, T), "")
    report.check("completeness", is_complete(S.dom) and is_complete(T.dom) and is_complete(X),
                 "dom, cod and X are all complete")
    report.check("dense-F", is_dense(F), "")
    report.check("dense-K", is_dense(K), "")
    report.check("codense-G", is_codense(G), "")
    report.check("codense-H", is_codense(H), "")
    lhs = dist_compose(cograph(H), dist_compose(graph(S), graph(K)))
    rhs = dist_compose(cograph(G), graph(F))
    report.check("four-way-identity", lhs == rhs,
                 "cograph(H) . graph(S) . graph(K) == cograph(G) . graph(F)")
    if report.passed:
        L = lan(K, F)
        R = ran(H, G)
        report.extend(verify_general_representation(S, T, L, R, X), prefix="general:")
    return report


# -- concept lattice representation theorems ----------------------------------------


def _lattice_hypotheses(report: Report, X: QCategory, assume_complete: bool) -> None:
    """X is separated, and complete unless the caller asserts it."""
    report.check("separated", is_separated(X), "")
    if assume_complete:
        report.skip("complete", "asserted by caller")
    else:
        report.check("complete", is_complete(X), "")


def _check_representation(name: str, phi: QDistributor, X: QCategory, F: QFunctor,
                          G: QFunctor, assume_complete: bool, identity: str,
                          formula: str) -> Report:
    """Dense F: A -> X and codense G: B -> X with phi(a,b) = X(Fa, Gb)."""
    if F.dom != phi.dom or G.dom != phi.cod or F.cod != X or G.cod != X:
        raise TypeMismatch("F must map rows into X and G columns into X")
    report = Report(name)
    _lattice_hypotheses(report, X, assume_complete)
    report.check("dense-F", is_dense(F), "")
    report.check("codense-G", is_codense(G), "")
    bad = [(a, b) for a in phi.dom.objects for b in phi.cod.objects
           if phi.at(a, b) != X.hom_of(F(a), G(b))]
    report.check_none(identity, bad, formula)
    return report


def verify_fca_representation(phi: QDistributor, X: QCategory, F: QFunctor,
                              G: QFunctor, assume_complete: bool = False) -> Report:
    """Dense F: A -> X and codense G: B -> X with phi(a,b) = X(Fa, Gb), X separated
    and complete; ``assume_complete=True`` skips checking that X is complete."""
    return _check_representation("fca-representation", phi, X, F, G, assume_complete,
                                 "context-identity", "phi(a,b) == X(Fa,Gb)")


def verify_rst_representation(phi: QDistributor, X: QCategory, F: QFunctor,
                              G: QFunctor, rc: ResidualCategory | None = None,
                              assume_complete: bool = False) -> Report:
    """Dense F: B -> X and codense G from the residual category into X,
    matching the residual context: residual(phi)(b, m) = X(Fb, Gm).

    This is the FCA representation of the residual context, ``assume_complete`` too.
    """
    return _check_representation("rst-representation", residual_context(phi, rc), X, F, G,
                                 assume_complete, "residual-identity",
                                 "residual(phi)(b,m) == X(Fb,Gm)")


# -- generators and elementary theorems ---------------------------------------------


def dom_pairs(A: QCategory) -> tuple[tuple[str, Arrow], ...]:
    """All (object, arrow out of its type) pairs; the pair's type is cod(u)."""
    q = A.q
    return tuple((a, u) for a in A.objects
                 for t in q.objects for u in q.arrows(A.type_of(a), t))


def cod_pairs(A: QCategory) -> tuple[tuple[str, Arrow], ...]:
    """All (object, arrow into its type) pairs; the pair's type is dom(u)."""
    q = A.q
    return tuple((a, u) for a in A.objects
                 for t in q.objects for u in q.arrows(t, A.type_of(a)))


def _tensor_rows(A: QCategory, pairs) -> list[tuple]:
    """The tensors ``u . hom(-, a)`` at pairs (a, u), unchecked, as value rows (cod(u),
    values): per pair, one ``compose_table`` read per position."""
    q, at = A.q, {a: i for i, a in enumerate(A.objects)}
    return [(t, tuple([q.arrow_table[p, t][q.compose_table[p, s, t][k][row[i].index]]
                       for p, row in zip(A.types, A.hom)]))
            for i, s, t, k in ((at[a], u.src, u.dst, u.index) for a, u in pairs)]


def presheaf_tensor(A: QCategory, a: str, u: Arrow) -> Presheaf:
    """u composed with the representable at a; type cod(u): the one-pair ``_tensor_rows``."""
    if u.src != A.types[A.index(a)]:
        raise TypeMismatch(f"{u} does not start at the type of {a}")
    return Presheaf(A, *_tensor_rows(A, [(a, u)])[0])


class _Elementary(_Frozen):
    """One kind of the elementary theorem on phi.  F is defined on ``f_pairs``
    (``dom_pairs(pair.base)``), each naming its tensor (``tensors()``), and G on
    ``g_pairs``, each naming the (co)presheaf whose value row ``named()`` holds,
    in the order of the pairs: for fca a copresheaf on B, named by its dual
    presheaf on B^op, whose values have the same indices.  The tensors and the
    fca G rows are read off ``compose_table`` (``_tensor_rows``).
    ``homs(lefts, named)`` is the grid of homs from the left map's images to the
    named members, both as pairs (type, values), by F pair, then G pair.
    ``context`` orders an F and a G pair as (a, u, b, v), row pair first; there
    ``below`` is the order side of the quantale biconditional.
    ``grid(phi, f_pairs, g_pairs)`` is the index of X(F f, G g) in its hom, a
    double residuation of phi(a,b), per F pair (row) and G pair (column).
    ``identity`` and ``biconditional`` are the (name, formula) of those two
    conditions."""

    _fields = ("pair", "f_pairs", "g_pairs", "named", "homs", "context", "grid", "below",
               "identity", "biconditional")

    def __init__(self, pair: IsbellPair | KanPair, f_pairs: tuple, g_pairs: tuple,
                 named: Callable, homs: Callable, context: Callable, grid: Callable,
                 below: Callable, identity: tuple[str, str], biconditional: tuple[str, str]):
        self._set(pair, f_pairs, g_pairs, named, homs, context, grid, below, identity,
                  biconditional)

    def tensors(self) -> list[tuple]:
        """The F pairs' tensors on the base of the pair, as value rows."""
        return _tensor_rows(self.pair.base, self.f_pairs)

    def misses(self, homs) -> list[tuple[str, str, str, str]]:
        """The cells where ``homs`` (by F pair, then G pair) miss ``grid``, as reported:
        (f object, f arrow, g object, g arrow)."""
        label, grid = self.pair.phi.q.label, self.grid(self.pair.phi, self.f_pairs, self.g_pairs)
        return [(f[0], label(f[1]), g[0], label(g[1]))
                for f, line, want in zip(self.f_pairs, homs, grid)
                for g, h, k in zip(self.g_pairs, line, want) if h.index != k]


def _polarity_grid(phi: QDistributor, f_pairs, g_pairs) -> list[list[int]]:
    """right_imp(v, left_imp(phi(a,b), u)) for F pairs (a, u) and G pairs (b, v): the
    ``rimp_table`` rows at each v, per type of u, read at each F pair's left residuals."""
    q, A, B = phi.q, phi.dom, phi.cod
    columns = [B.index(b) for b, _ in g_pairs]
    rows = {t: [q.rimp_table[t, v.src, v.dst][v.index] for _, v in g_pairs] for t in q.objects}
    grid = []
    for a, u in f_pairs:
        lefts = [q.limp_table[u.src, u.dst, s][e.index][u.index]
                 for s, e in zip(B.types, phi.matrix[A.index(a)])]
        grid.append([row[lefts[j]] for row, j in zip(rows[u.dst], columns)])
    return grid


def _kan_grid(phi: QDistributor, f_pairs, g_pairs) -> list[list[int]]:
    """left_imp(left_imp(u, phi(a,b)), v) for F pairs (b, v) and G pairs (a, u): the
    ``limp_table`` columns at each v, per type of u, read at each G pair's residuals."""
    q, A, B, limp = phi.q, phi.dom, phi.cod, phi.q.limp_table
    inner = [(u.dst, [limp[u.src, s, u.dst][u.index][e.index]
                      for s, e in zip(B.types, phi.matrix[A.index(a)])]) for a, u in g_pairs]
    grid = []
    for b, v in f_pairs:
        j = B.index(b)
        columns = {r: [row[v.index] for row in limp[v.src, v.dst, r]] for r in q.objects}
        grid.append([columns[r][ws[j]] for r, ws in inner])
    return grid


def _elementary(phi: QDistributor, kind: str) -> _Elementary:
    """The elementary theorem of ``kind`` on phi; ``closure_pair`` refuses other kinds."""
    pair, q, A, B = closure_pair(phi, kind), phi.q, phi.dom, phi.cod
    if pair.kind == "fca":  # F on rows with out-arrows, G on columns with in-arrows
        dual = dualize_category(B)  # cod_pairs(B) are dom_pairs(B^op) in the opposite
        return _Elementary(
            pair, dom_pairs(A), cod_pairs(B), lambda: _tensor_rows(dual, dom_pairs(dual)),
            lambda lefts, named: right_rows(q, B.types, lefts, named),
            lambda f, g: (*f, *g), _polarity_grid,
            lambda a, u, b, v: q.leq(q.compose(v, u), phi.at(a, b)),
            ("polarity-hom", "hom(up(tensor(a,u)), cotensor(b,v)) == "
                             "right_imp(v, left_imp(phi(a,b), u))"),
            ("formal-concept-biconditional", "v.u <= phi(a,b)  iff  F(a,u) <= G(b,v)"))
    # rst: F on columns and G on rows, both with out-arrows
    return _Elementary(
        pair, dom_pairs(B), dom_pairs(A),
        lambda: [presheaf_residual(A, a, u).key() for a, u in dom_pairs(A)],
        lambda lefts, named: hom_rows(q, A.types, lefts, named),
        lambda f, g: (*g, *f), _kan_grid,
        lambda a, u, b, v: q.leq(phi.at(a, b), q.right_imp(v, u)),
        ("kan-hom", "hom(star(tensor(b,v)), residual(a,u)) == "
                    "left_imp(left_imp(u, phi(a,b)), v)"),
        ("object-oriented-biconditional", "phi(a,b) <= v>r u  iff  F(b,v) <= G(a,u)"))


def verify_elementary_identities(phi: QDistributor) -> Report:
    """The arrow-level hom formula behind each elementary theorem: the hom from
    the left map at an F pair's tensor to the (co)presheaf that a G pair names
    is a double residuation of one context entry.  The left images of all the
    tensors come from one ``lefts`` call per type."""
    report = Report("elementary-identities")
    for kind in ("fca", "rst"):
        d = _elementary(phi, kind)
        tensors = d.tensors()
        lefts = zip([s for s, _ in tensors], _per_type(d.pair.lefts, tensors))
        homs = d.homs(list(lefts), d.named())
        report.check_none(d.identity[0], d.misses(homs), d.identity[1])
    return report


def verify_elementary_representation(phi: QDistributor, X: QCategory, F: dict,
                                     G: dict, kind: str) -> Report:
    """The order-theoretic representation: join/meet-dense maps plus the
    entrywise double-residuation identity.

    ``F`` and ``G`` map (object label, arrow) pairs to object labels of X:
    for ``kind="fca"``, F is defined on rows with out-arrows and G on columns
    with in-arrows; for ``kind="rst"``, F on columns with out-arrows and G on
    rows with out-arrows.
    """
    d = _elementary(phi, kind)
    report = Report(f"elementary-{kind}-representation")
    _lattice_hypotheses(report, X, False)
    tp = all(X.type_of(F[f]) == f[1].dst for f in d.f_pairs) and \
        all(X.type_of(G[g]) == s for g, (s, _) in zip(d.g_pairs, d.named()))
    report.check("type-preserving", tp, "")
    if not tp:
        return report
    report.check("join-dense-F", _join_dense(X, {F[f] for f in d.f_pairs}), "")
    report.check("meet-dense-G", _join_dense(dualize_category(X), {G[g] for g in d.g_pairs}), "")
    columns = [X.index(G[g]) for g in d.g_pairs]
    homs = ([row[j] for j in columns] for row in (X.hom[X.index(F[f])] for f in d.f_pairs))
    report.check_none("hom-identity", d.misses(homs),
                      "X(F(.), G(.)) equals the double residuation of the entry")
    return report


def quantale_corollary_check(phi: QDistributor, X: QCategory, F: dict, G: dict,
                             kind: str) -> Report:
    """One-object specialization, plus the order-level biconditional forms.

    For the rst kind this includes the classical object-oriented criterion:
    phi(a,b) <= right_imp(v, u)  iff  F(b,v) <= G(a,u) in the underlying
    order of X; for fca the analogous form  v.u <= phi(a,b)  iff
    F(a,u) <= G(b,v).
    """
    q = phi.q
    if not q.one_object:
        raise NotAQuantale("this corollary needs a one-object quantaloid")
    report = verify_elementary_representation(phi, X, F, G, kind)
    report.name = f"quantale-{kind}-representation"
    d, order = _elementary(phi, kind), underlying_order(X)
    cells = [(f, g, *d.context(f, g)) for f in d.f_pairs for g in d.g_pairs]
    bad = [(a, b, q.label(u), q.label(v)) for f, g, a, u, b, v in cells
           if d.below(a, u, b, v) != order.leq(F[f], G[g])]
    report.check_none(d.biconditional[0], bad, d.biconditional[1])
    return report


# -- lemma-level verifiers -------------------------------------------------------------


def _yoneda_misses(A: QCategory) -> list[tuple[str, str]]:
    """The (type, object) pairs where some presheaf mu has mu(a) != hom(yoneda(a), mu)."""
    representables = [yoneda(A, a).key() for a in A.objects]
    misses = []
    for qobj in A.q.objects:
        space = [mu.key() for mu in enumerate_presheaves(A, qobj)]
        for (_, values), col in zip(space, zip(*hom_rows(A.q, A.types, representables, space))):
            misses += [(qobj, a) for a, h, v in zip(A.objects, col, values) if h != v]
    return misses


def verify_yoneda(A: QCategory) -> Report:
    """Both halves of the Yoneda lemma, exhaustively over all (co)presheaves.

    A copresheaf on A is a presheaf on A^op, so the copresheaf half is the
    presheaf half on A^op.
    """
    report = Report(f"yoneda@{A.name}")
    report.check_none("presheaf-half", _yoneda_misses(A), "mu(a) == hom(yoneda(a), mu)")
    report.check_none("copresheaf-half", _yoneda_misses(dualize_category(A)),
                      "lam(a) == hom(lam, coyoneda(a))")
    return report


def _presheaf_side_laws(phi: QDistributor) -> tuple[bool, bool, bool]:
    """Polarity unit, extension unit and extension counit over all presheaves
    on the rows and columns of a context, decided on member codes.  As v <= w
    iff down(v) is in down(w), iff up(w) is in up(v), the entrywise order is
    ``c & ~d == 0`` on down-set codes and reversed on up-set codes: a unit is
    one AND of a member's down-set code, kept on its base, with its closure,
    the counit one AND of its up-set code with its interior ``star . lower``,
    read off the Kan pair's tables."""
    objects, isbell, kan_pair = phi.q.objects, IsbellPair(phi), KanPair(phi)

    def spaces(A: QCategory, sets: str) -> list[tuple[int, ...]]:
        return [_member_codes(A, qobj, f"presheaf space on {A.name}", sets)[1] for qobj in objects]
    rows, downs, col_downs = spaces(phi.dom, "up"), spaces(phi.dom, "down"), spaces(phi.cod, "down")
    unit = ext_unit = ext_counit = True
    for qobj, ups, down, cols in zip(objects, rows, downs, col_downs):
        _, close, _, _ = isbell.coded(qobj)
        _, kan_close, _, (star, mid, lower) = kan_pair.coded(qobj)
        unit &= all(d & ~close(d) == 0 for d in down)
        ext_unit &= all(d & ~kan_close(d) == 0 for d in cols)
        ext_counit &= all(u & ~_through(star, _through(lower, u, -1), mid.top) == 0
                          for u in ups)
    return unit, ext_unit, ext_counit


def verify_adjunction_laws(phi: QDistributor) -> Report:
    """Pointwise unit/counit laws for the polarity, extension and dual
    extension adjunctions induced by a context.

    All comparisons are entrywise arrow inequalities, decided on codes (see
    ``_presheaf_side_laws``).  The copresheaf-side laws are the presheaf-side
    ones of the dual context phi^op: its polarity unit is the polarity counit
    of phi, and its extension counit and unit are the dual-extension unit and
    counit of phi.  They come out reversed because the copresheaf underlying
    order is the reverse of the entrywise one.
    """
    report = Report(f"adjunction-laws@{phi.name}")
    unit, ext_unit, ext_counit = _presheaf_side_laws(phi)
    counit, dual_counit, dual_unit = _presheaf_side_laws(dualize_distributor(phi))
    report.check("polarity-unit", unit, "mu <= down(up(mu)) entrywise")
    report.check("polarity-counit", counit,
                 "lam <= up(down(lam)) entrywise, i.e. counit <= 1 in the reversed order")
    report.check("extension-unit", ext_unit, "lam <= lower(star(lam)) entrywise")
    report.check("extension-counit", ext_counit, "star(lower(mu)) <= mu entrywise")
    report.check("dual-extension-unit", dual_unit,
                 "dag(lower_dag(lam)) <= lam entrywise (reversed order unit)")
    report.check("dual-extension-counit", dual_counit,
                 "mu <= lower_dag(dag(mu)) entrywise (reversed order counit)")
    return report


def verify_adjunction_as_functors(phi: QDistributor, kind: str) -> Report:
    """The same adjunctions as graph equalities on materialized spaces."""
    report = Report(f"{kind}-adjunction-functors@{phi.name}")
    adj = canonical_adjunction(phi, kind)
    report.check("graphs-equal", is_adjoint_functor_pair(adj.S, adj.T),
                 "graph of the left equals cograph of the right")
    return report


def verify_density_suite(A: QCategory) -> Report:
    """Yoneda dense, co-Yoneda codense, residual inclusion codense, and the
    four generator images dense, all on materialized spaces: the tensors
    ``u . hom(-, a)`` join-dense and the residuals ``left_imp(u, hom(a, -))``
    meet-dense in P(A), the cotensors meet-dense and the coresiduals join-dense
    in P+(A), whose order is reversed.  A meet is a join in the (complete) dual.

    A copresheaf on A is a presheaf on A^op and P+(A) is the dual of P(A^op),
    so the copresheaf half is the presheaf half on A^op, as in ``verify_yoneda``:
    co-Yoneda codense is Yoneda dense in P(A^op), the cotensors meet-dense are
    its tensors join-dense, and the coresiduals join-dense its residuals meet-dense."""
    report = Report(f"density@{A.name}")
    pa, pd = materialize_presheaves(A), materialize_presheaves(dualize_category(A))
    report.check("yoneda-dense", is_dense(pa.yoneda_functor()), "")
    report.check("coyoneda-codense", is_dense(pd.yoneda_functor()), "")
    rc = residual_category(A)
    report.check("residual-inclusion-codense",
                 is_codense(rc.functor_to(pa, name="residual-inclusion")), "")
    for name, space, make, meet in (
            ("presheaf_tensors:join", pa, presheaf_tensor, False),
            ("presheaf_residuals:meet", pa, presheaf_residual, True),
            ("copresheaf_tensors:meet", pd, presheaf_tensor, False),
            ("copresheaf_residuals:join", pd, presheaf_residual, True)):
        image = {space.label_of(make(space.base, a, u)) for a, u in dom_pairs(space.base)}
        X = space.category
        report.check(name, _join_dense(dualize_category(X) if meet else X, image), "")
    return report


# -- canonical witness data -----------------------------------------------------------


class CanonicalAdjunction(_Record):
    """A context's closure adjunction on materialized (co)presheaf spaces."""

    _fields = ("kind", "phi", "S", "T", "C_space", "D_space")

    def __init__(self, kind: str, phi: QDistributor, S: QFunctor, T: QFunctor,
                 C_space: PresheafSpace, D_space: PresheafSpace):
        self._set(kind, phi, S, T, C_space, D_space)


def canonical_adjunction(phi: QDistributor, kind: str) -> CanonicalAdjunction:
    """The closure pair of ``kind`` as functors S -| T between its materialized spaces."""
    pair = closure_pair(phi, kind)
    C, D = pair.spaces()
    S = C.functor_to(D, pair.lefts, name=f"{kind}-left")
    T = D.functor_to(C, pair.rights, name=f"{kind}-right")
    return CanonicalAdjunction(kind, phi, S, T, C, D)


class CanonicalRepresentation:
    """The proof's witness data for one context: the closure ``pair``, its
    concept ``lattice`` and X, the lattice's category.

    ``adj``, the adjunction on the materialized (co)presheaf spaces, and its
    restrictions L (the closure) and R (the right map) onto X are built on
    first use and kept: only the general and dense theorems read them.
    """

    def __init__(self, pair: IsbellPair | KanPair, lattice: ConceptLattice):
        self.pair, self.lattice, self.X = pair, lattice, lattice.category

    @property
    def adj(self) -> CanonicalAdjunction:
        return _kept(self, "adj", lambda d: canonical_adjunction(d.pair.phi, d.pair.kind))

    @property
    def L(self) -> QFunctor:
        return _kept(self, "L", lambda d: d.adj.C_space.functor_to(
            d.lattice, d.pair.closures, name="closure-restriction"))

    @property
    def R(self) -> QFunctor:
        return _kept(self, "R", lambda d: d.adj.D_space.functor_to(
            d.lattice, d.pair.rights, name="right-restriction"))


def canonical_general_data(phi: QDistributor, kind: str) -> CanonicalRepresentation:
    """The concept lattice of ``kind``, with the closure and right-adjoint
    restrictions onto its category."""
    pair = closure_pair(phi, kind)
    return CanonicalRepresentation(pair, pair.lattice())


def _witnesses(phi: QDistributor, kind: str):
    """The general data, the dense F and codense G into its concepts, and rc.

    F and G are the closed forms of the composites F = L.K and G = R.H, whose
    names they keep: F is the closure of each representable ``hom(-, x)`` of
    the closure's base.  G is the right map at each corepresentable ``hom(b, -)``
    of the columns (fca) or at each residual member of rc, the residual
    category of the rows (rst).  Each is one family call per type, on the
    value rows read off the hom matrices or the residual members.
    """
    data = canonical_general_data(phi, kind)
    pair, lattice, base = data.pair, data.lattice, data.pair.base
    F = lattice.functor_from(base, list(zip(base.types, zip(*base.hom))), pair.closures,
                             name="closure-restriction.yoneda")
    if pair.kind == "fca":
        rc, B = None, phi.cod
        G = lattice.functor_from(B, list(zip(B.types, B.hom)), pair.rights,
                                 name="right-restriction.coyoneda")
    else:
        rc = residual_category(phi.dom)
        G = rc.functor_to(lattice, pair.rights, name="right-restriction.residual-inclusion")
    return data, F, G, rc


def canonical_fca_data(phi: QDistributor):
    """Dense F on rows and codense G on columns, into the FCA concept category."""
    data, F, G, _ = _witnesses(phi, "fca")
    return data, F, G


def canonical_rst_data(phi: QDistributor):
    """Dense F on columns and codense G on residual members, into RST concepts."""
    return _witnesses(phi, "rst")


def canonical_dense_data(phi: QDistributor, kind: str):
    """The small-generator data for the dense representation theorem: the
    general data, F, the dense K into the first space of its adjunction, G,
    and the codense H into the second (for rst, the residual inclusion)."""
    data, F, G, rc = _witnesses(phi, kind)
    K = data.adj.C_space.yoneda_functor()
    H = (data.adj.D_space.yoneda_functor() if rc is None
         else rc.functor_to(data.adj.D_space, name="residual-inclusion"))
    return data, F, K, G, H


def canonical_elementary_data(phi: QDistributor, kind: str):
    """Pair-indexed witness maps for the elementary theorems: the closures of the
    F pairs' tensors and the right map at the G pairs' members, one family call
    per type each."""
    data, d = canonical_general_data(phi, kind), _elementary(phi, kind)
    labels_of = data.lattice.labels_of
    F = dict(zip(d.f_pairs, labels_of(d.tensors(), d.pair.closures)))
    G = dict(zip(d.g_pairs, labels_of(d.named(), d.pair.rights)))
    return data, F, G
