"""Executable verifiers for the representation theorems, plus generator maps.

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
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import (
    ConditionFailed,
    NotAdjoint,
    NotAQuantale,
    Report,
    TypeMismatch,
    _Frozen,
    _Record,
)
from .qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    compose_functors,
    discrete_category,
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
    is_adjoint_functor_pair,
)
from .presheaf import (
    Copresheaf,
    Presheaf,
    PresheafSpace,
    _copresheaf_of,
    _join_dense,
    copresheaf_hom,
    coyoneda,
    enumerate_presheaves,
    is_codense,
    is_complete,
    is_dense,
    lan,
    materialize_copresheaves,
    materialize_presheaves,
    pointwise_leq,
    presheaf_hom,
    presheaf_residual,
    ran,
    yoneda,
)
from .concept import (
    ConceptLattice,
    IsbellPair,
    KanPair,
    ResidualCategory,
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


def construct_fix_equivalence(S: QFunctor, T: QFunctor, L: QFunctor,
                              R: QFunctor, X: QCategory) -> QFunctor:
    """The equivalence fix(TS) -> X, raising on any failed hypothesis."""
    report = verify_general_representation(S, T, L, R, X)
    if not report.condition("adjunction").passed:
        raise NotAdjoint("S and T are not adjoint")
    if not report.passed:
        raise ConditionFailed(report.failed_names()[0])
    return _fix_restriction(S, T, L, X)[0]


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


# -- generator maps and elementary theorems ------------------------------------------


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


def _pair_label(A: QCategory, a: str, u: Arrow) -> str:
    return f"({a};{A.q.label(u)}:{u.src}->{u.dst})"


def presheaf_tensor(A: QCategory, a: str, u: Arrow) -> Presheaf:
    """u composed with the representable at a; type cod(u)."""
    q = A.q
    i = A.index(a)
    return Presheaf(A, u.dst, tuple(q.compose(u, A.hom[j][i]) for j in range(len(A))))


def copresheaf_tensor(A: QCategory, a: str, u: Arrow) -> Copresheaf:
    """The corepresentable at a composed with u; type dom(u): presheaf_tensor in A^op."""
    return _copresheaf_of(presheaf_tensor(dualize_category(A), a, A.q.dual_arrows([u])[0]), A)


def copresheaf_residual(A: QCategory, a: str, u: Arrow) -> Copresheaf:
    """The representable at a residuated into u; type dom(u): presheaf_residual in A^op."""
    return _copresheaf_of(presheaf_residual(dualize_category(A), a, A.q.dual_arrows([u])[0]), A)


class GeneratorMaps(_Record):
    """The four type-preserving maps from arrow-tagged carriers into P / P+.

    ``presheaf_tensors`` is join-dense and ``presheaf_residuals`` meet-dense
    in the presheaf category; ``copresheaf_residuals`` is join-dense and
    ``copresheaf_tensors`` meet-dense in the copresheaf category (whose
    underlying order is the reversed one).  ``density`` records the four
    certificates, computed on the materialized spaces.
    """

    _fields = ("base", "dom_set", "cod_set", "presheaf_tensors", "presheaf_residuals",
               "copresheaf_tensors", "copresheaf_residuals", "density", "pair_of")

    def __init__(self, base: QCategory, dom_set: QTypedSet, cod_set: QTypedSet,
                 presheaf_tensors: QFunctor, presheaf_residuals: QFunctor,
                 copresheaf_tensors: QFunctor, copresheaf_residuals: QFunctor,
                 density: dict | None = None, pair_of: dict | None = None):
        self._set(base, dom_set, cod_set, presheaf_tensors, presheaf_residuals,
                  copresheaf_tensors, copresheaf_residuals,
                  {} if density is None else density, {} if pair_of is None else pair_of)


def build_generator_maps(A: QCategory, pa: PresheafSpace | None = None,
                         pda: PresheafSpace | None = None) -> GeneratorMaps:
    pa = pa if pa is not None else materialize_presheaves(A)
    pda = pda if pda is not None else materialize_copresheaves(A)
    dp, cp = dom_pairs(A), cod_pairs(A)
    dp_labels = [_pair_label(A, a, u) for a, u in dp]
    cp_labels = [_pair_label(A, a, u) for a, u in cp]
    dom_set = QTypedSet(tuple(dp_labels), tuple(u.dst for _, u in dp))
    cod_set = QTypedSet(tuple(cp_labels), tuple(u.src for _, u in cp))
    dom_cat = discrete_category(A.q, dom_set, name="rows-with-arrows")
    cod_cat = discrete_category(A.q, cod_set, name="rows-with-coarrows")
    pair_of = dict(zip(dp_labels + cp_labels, dp + cp))
    ut = pa.functor_from(dom_cat,
                         lambda l: presheaf_tensor(A, *pair_of[l]), name="tensors")
    nr = pa.functor_from(dom_cat,
                         lambda l: presheaf_residual(A, *pair_of[l]), name="residuals")
    ct = pda.functor_from(cod_cat,
                          lambda l: copresheaf_tensor(A, *pair_of[l]), name="cotensors")
    cr = pda.functor_from(cod_cat,
                          lambda l: copresheaf_residual(A, *pair_of[l]), name="coresiduals")
    # materialized (co)presheaf spaces are complete; meets are joins in the dual
    P, Pd = pa.category, pda.category
    density = {
        "presheaf_tensors:join": _join_dense(P, ut.mapping.values()),
        "presheaf_residuals:meet": _join_dense(dualize_category(P), nr.mapping.values()),
        "copresheaf_tensors:meet": _join_dense(dualize_category(Pd), ct.mapping.values()),
        "copresheaf_residuals:join": _join_dense(Pd, cr.mapping.values()),
    }
    return GeneratorMaps(A, dom_set, cod_set, ut, nr, ct, cr, density, pair_of)


class _Elementary(_Frozen):
    """One kind of the elementary theorem on phi.  F is defined on ``f_pairs``
    (``dom_pairs(pair.base)``) and G on ``g_pairs``, a G pair naming the
    (co)presheaf ``named(*g)`` of the space whose hom is ``hom``.  ``context``
    orders an F and a G pair as (a, u, b, v), row pair first; there ``entry``
    is X(F f, G g), a double residuation of phi(a,b), and ``below`` is the
    order side of the quantale biconditional.  ``identity`` and
    ``biconditional`` are the (name, formula) of those two conditions."""

    _fields = ("pair", "f_pairs", "g_pairs", "named", "hom", "context", "entry", "below",
               "identity", "biconditional")

    def __init__(self, pair: IsbellPair | KanPair, f_pairs: tuple, g_pairs: tuple,
                 named: Callable, hom: Callable, context: Callable, entry: Callable,
                 below: Callable, identity: tuple[str, str], biconditional: tuple[str, str]):
        self._set(pair, f_pairs, g_pairs, named, hom, context, entry, below, identity,
                  biconditional)

    def at(self, f: tuple[str, Arrow], g: tuple[str, Arrow]) -> tuple[str, str, str, str]:
        """An F pair and a G pair as reported: (f object, f arrow, g object, g arrow)."""
        return f[0], self.pair.phi.q.label(f[1]), g[0], self.pair.phi.q.label(g[1])


def _elementary(phi: QDistributor, kind: str) -> _Elementary:
    """The elementary theorem of ``kind`` on phi; ``closure_pair`` refuses other kinds."""
    pair, q, A, B = closure_pair(phi, kind), phi.q, phi.dom, phi.cod
    if pair.kind == "fca":  # F on rows with out-arrows, G on columns with in-arrows
        return _Elementary(
            pair, dom_pairs(A), cod_pairs(B), lambda b, v: copresheaf_tensor(B, b, v),
            copresheaf_hom, lambda f, g: (*f, *g),
            lambda a, u, b, v: q.right_imp(v, q.left_imp(phi.at(a, b), u)),
            lambda a, u, b, v: q.leq(q.compose(v, u), phi.at(a, b)),
            ("polarity-hom", "hom(up(tensor(a,u)), cotensor(b,v)) == "
                             "right_imp(v, left_imp(phi(a,b), u))"),
            ("formal-concept-biconditional", "v.u <= phi(a,b)  iff  F(a,u) <= G(b,v)"))
    # rst: F on columns and G on rows, both with out-arrows
    return _Elementary(
        pair, dom_pairs(B), dom_pairs(A), lambda a, u: presheaf_residual(A, a, u),
        presheaf_hom, lambda f, g: (*g, *f),
        lambda a, u, b, v: q.left_imp(q.left_imp(u, phi.at(a, b)), v),
        lambda a, u, b, v: q.leq(phi.at(a, b), q.right_imp(v, u)),
        ("kan-hom", "hom(star(tensor(b,v)), residual(a,u)) == "
                    "left_imp(left_imp(u, phi(a,b)), v)"),
        ("object-oriented-biconditional", "phi(a,b) <= v>r u  iff  F(b,v) <= G(a,u)"))


def verify_elementary_identities(phi: QDistributor) -> Report:
    """The arrow-level hom formula behind each elementary theorem: the hom from
    the left map at an F pair's tensor to the (co)presheaf that a G pair names
    is a double residuation of one context entry."""
    report = Report("elementary-identities")
    for kind in ("fca", "rst"):
        d = _elementary(phi, kind)
        named = [(g, d.named(*g)) for g in d.g_pairs]
        lefts = [(f, d.pair.left(presheaf_tensor(d.pair.base, *f))) for f in d.f_pairs]
        bad = [d.at(f, g) for f, left in lefts for g, lam in named
               if d.hom(left, lam) != d.entry(*d.context(f, g))]
        report.check_none(d.identity[0], bad, d.identity[1])
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
        all(X.type_of(G[g]) == d.named(*g).type for g in d.g_pairs)
    report.check("type-preserving", tp, "")
    if not tp:
        return report
    report.check("join-dense-F", _join_dense(X, {F[f] for f in d.f_pairs}), "")
    report.check("meet-dense-G", _join_dense(dualize_category(X), {G[g] for g in d.g_pairs}), "")
    bad = [d.at(f, g) for f in d.f_pairs for g in d.g_pairs
           if X.hom_of(F[f], G[g]) != d.entry(*d.context(f, g))]
    report.check_none("hom-identity", bad,
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
    return [(qobj, a) for qobj in A.q.objects for mu in enumerate_presheaves(A, qobj)
            for a in A.objects if presheaf_hom(yoneda(A, a), mu) != mu.at(a)]


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
    """Polarity unit, extension unit and extension counit, entrywise over all
    presheaves on the rows and columns of a context."""
    isb, kan = IsbellPair(phi), KanPair(phi)
    rows = [mu for qobj in phi.q.objects for mu in enumerate_presheaves(phi.dom, qobj)]
    cols = [lam for qobj in phi.q.objects for lam in enumerate_presheaves(phi.cod, qobj)]
    return (all(pointwise_leq(mu, isb.closure(mu)) for mu in rows),
            all(pointwise_leq(lam, kan.closure(lam)) for lam in cols),
            all(pointwise_leq(kan.interior(mu), mu) for mu in rows))


def verify_adjunction_laws(phi: QDistributor) -> Report:
    """Pointwise unit/counit laws for the polarity, extension and dual
    extension adjunctions induced by a context.

    All comparisons are entrywise arrow inequalities.  The copresheaf-side
    laws are the presheaf-side ones of the dual context phi^op: its polarity
    unit is the polarity counit of phi, and its extension counit and unit are
    the dual-extension unit and counit of phi.  They come out reversed
    because the copresheaf underlying order is the reverse of the entrywise one.
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
    four generator maps join/meet-dense, all on materialized spaces."""
    report = Report(f"density@{A.name}")
    pa = materialize_presheaves(A)
    pda = materialize_copresheaves(A)
    report.check("yoneda-dense", is_dense(pa.yoneda_functor()), "")
    report.check("coyoneda-codense", is_codense(pda.yoneda_functor()), "")
    rc = residual_category(A)
    report.check("residual-inclusion-codense",
                 is_codense(rc.functor_to(pa, lambda m: m, name="residual-inclusion")), "")
    gm = build_generator_maps(A, pa, pda)
    for name, ok in gm.density.items():
        report.check(name, ok, "")
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
    S = C.functor_to(D, pair.left, name=f"{kind}-left")
    T = D.functor_to(C, pair.right, name=f"{kind}-right")
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
            d.lattice, d.pair.closure, name="closure-restriction"))

    @property
    def R(self) -> QFunctor:
        return _kept(self, "R", lambda d: d.adj.D_space.functor_to(
            d.lattice, d.pair.right, name="right-restriction"))


def canonical_general_data(phi: QDistributor, kind: str) -> CanonicalRepresentation:
    """The concept lattice of ``kind``, with the closure and right-adjoint
    restrictions onto its category."""
    pair = closure_pair(phi, kind)
    return CanonicalRepresentation(pair, pair.lattice())


def _witnesses(phi: QDistributor, kind: str):
    """The general data, the dense F and codense G into its concepts, and rc.

    F and G are the closed forms of the composites F = L.K and G = R.H, whose
    names they keep: F is the closure of each representable of the closure's
    base.  G is the right map at each corepresentable of the columns (fca)
    or at each residual member of rc, the residual category of the rows (rst).
    """
    data = canonical_general_data(phi, kind)
    pair, lattice, base = data.pair, data.lattice, data.pair.base
    F = lattice.functor_from(base, lambda x: pair.closure(yoneda(base, x)),
                             name="closure-restriction.yoneda")
    if pair.kind == "fca":
        rc, B = None, phi.cod
        G = lattice.functor_from(B, lambda b: pair.right(coyoneda(B, b)),
                                 name="right-restriction.coyoneda")
    else:
        rc = residual_category(phi.dom)
        G = lattice.functor_from(rc.category, lambda m: pair.right(rc.member_of(m)),
                                 name="right-restriction.residual-inclusion")
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
         else rc.functor_to(data.adj.D_space, lambda m: m, name="residual-inclusion"))
    return data, F, K, G, H


def canonical_elementary_data(phi: QDistributor, kind: str):
    """Pair-indexed witness maps for the elementary theorems."""
    data, d = canonical_general_data(phi, kind), _elementary(phi, kind)
    pair, label = d.pair, data.lattice.label_of
    F = {f: label(pair.closure(presheaf_tensor(pair.base, *f))) for f in d.f_pairs}
    G = {g: label(pair.right(d.named(*g))) for g in d.g_pairs}
    return data, F, G
