
import pytest

from qfca.errors import ClosureBudgetExceeded, NotGirard, HypothesesNotMet, QfcaError
from qfca.qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    discrete_category,
    find_equivalence,
    identity_functor,
    underlying_order,
)
from qfca.qdist import ChuTransform, QDistributor, identity_dist, validate_chu, validate_distributor
from qfca.presheaf import (
    Presheaf,
    enumerate_presheaves,
    materialize_presheaves,
    pointwise_leq,
    presheaf_label,
    pushforward,
    sup,
    yoneda,
)
from qfca.concept import (
    IsbellPair,
    KanPair,
    brute_force_fixed,
    codense_probe,
    complement_context,
    fca_lattice,
    fca_lattice_map,
    isbell_down,
    isbell_up,
    kan_lower,
    kan_star,
    lattice_to_dot,
    lattice_to_json,
    macneille_completion,
    presheaf_transpose,
    residual_category,
    residual_chu,
    residual_context,
    rst_lattice,
    rst_lattice_map,
    verify_functoriality_square,
    verify_rst_as_fca,
    verify_rst_as_fca_complement,
    verify_transpose_identities,
)
from qfca.quantaloid import find_cyclic_dualizing_family

from _helpers import oracle_left_imp, residual_closed_form_misses


def _values(Q, lattice):
    return sorted(Q.label(p.values[0]) for p in lattice.concepts)


def test_isbell_values_fixl3(fixl3, luk3):
    A, phi = fixl3.A, fixl3.phi
    mk = lambda lbl: Presheaf(A, "*", (luk3.arrow("*", "*", lbl),))
    assert luk3.label(isbell_up(phi, mk("0")).values[0]) == "1"
    assert luk3.label(isbell_up(phi, mk("1")).values[0]) == "1/2"
    pair = IsbellPair(phi)
    for lbl in ("0", "1/2", "1"):
        assert pointwise_leq(mk(lbl), pair.closure(mk(lbl)))


def test_kan_values_fixl3(fixl3, luk3):
    B, phi = fixl3.B, fixl3.phi
    mkb = lambda lbl: Presheaf(B, "*", (luk3.arrow("*", "*", lbl),))
    assert luk3.label(kan_star(phi, mkb("1/2")).values[0]) == "0"
    mka = lambda lbl: Presheaf(fixl3.A, "*", (luk3.arrow("*", "*", lbl),))
    assert luk3.label(kan_lower(phi, mka("0")).values[0]) == "1/2"
    pair = KanPair(phi)
    for lbl in ("0", "1/2", "1"):
        once = pair.closure(mkb(lbl))
        assert pair.closure(once) == once


def test_closure_laws(fix2id, fixl3):
    for ctx in (fix2id, fixl3):
        isb, kan = IsbellPair(ctx.phi), KanPair(ctx.phi)
        for qobj in ctx.phi.q.objects:
            for mu in enumerate_presheaves(ctx.A, qobj):
                assert pointwise_leq(mu, isb.closure(mu))
                assert isb.closure(isb.closure(mu)) == isb.closure(mu)
                assert pointwise_leq(kan.interior(mu), mu)
            for lam in enumerate_presheaves(ctx.B, qobj):
                assert pointwise_leq(lam, kan.closure(lam))
                assert kan.closure(kan.closure(lam)) == kan.closure(lam)


def test_lattices_fix2id(fix2id, two):
    M, K = fca_lattice(fix2id.phi), rst_lattice(fix2id.phi)
    assert len(M) == 4 and len(K) == 4
    one = two.arrow("*", "*", "1")
    extents = {frozenset(x for x, v in zip(p.base.objects, p.values) if v == one)
               for p in M.concepts}
    assert extents == {frozenset(), frozenset({"a1"}), frozenset({"a2"}),
                       frozenset({"a1", "a2"})}
    fixed_sets = {frozenset(x for x, v in zip(p.base.objects, p.values) if v == one)
                  for p in K.concepts}
    assert fixed_sets == {frozenset(), frozenset({"b1"}), frozenset({"b2"}),
                          frozenset({"b1", "b2"})}


def test_lattices_fixl3(fixl3, luk3):
    assert _values(luk3, fca_lattice(fixl3.phi)) == ["1", "1/2"]
    assert _values(luk3, rst_lattice(fixl3.phi)) == ["1", "1/2"]


def test_brute_force_agreement(all_contexts):
    for ctx in all_contexts.values():
        for kind, make in (("fca", fca_lattice), ("rst", rst_lattice)):
            lat = make(ctx.phi).per_type()
            for qobj in ctx.phi.q.objects:
                oracle = frozenset(p.key() for p in brute_force_fixed(ctx.phi, kind, qobj))
                assert frozenset(p.key() for p in lat[qobj]) == oracle


def test_empty_context(two):
    E = discrete_category(two, QTypedSet((), ()))
    phi = QDistributor(E, E, [])
    M = fca_lattice(phi)
    assert len(M) == 1 and M.concepts[0].values == ()


def test_macneille_counts(two):
    anti = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    assert len(macneille_completion(anti)) == 4
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    chain = QCategory(two, ("x", "y"), ("*", "*"), [[one, one], [zero, one]])
    assert len(macneille_completion(chain)) == 2


def test_macneille_of_complete_is_itself(luk3):
    # a separated complete category: the presheaves on a singleton
    S = discrete_category(luk3, QTypedSet(("a",), ("*",)))
    X = materialize_presheaves(S).category
    lat = macneille_completion(X)
    # the completion is the image of the representables, equivalent to X
    assert find_equivalence(lat.category, X) is not None
    reps = {yoneda(X, x).key() for x in X.objects}
    assert reps == lat.keys()


def test_residual_category_two(two):
    S = discrete_category(two, QTypedSet(("a",), ("*",)))
    rc = residual_category(S)
    assert len(rc.members) == 2  # the top presheaf and the complement of {a}
    keys = {tuple(two.label(v) for v in p.values) for p in rc.members}
    assert keys == {("1",), ("0",)}


def test_residual_yoneda_graph_law(all_contexts):
    # each column of the restricted yoneda graph is the member itself
    for ctx in all_contexts.values():
        rc = residual_category(ctx.A)
        for lbl, p in zip(rc.category.objects, rc.members):
            for x in ctx.A.objects:
                assert rc.yoneda_graph.at(x, lbl) == p.at(x)


def test_residual_context_identity(fix2id):
    A = fix2id.A
    rc = residual_category(A)
    tr = residual_context(identity_dist(A), rc)
    assert tr == rc.yoneda_graph


def test_residual_context_fix2id_hand_table(fix2id, two):
    # members over the Boolean base: top and the two one-element complements
    rc = residual_category(fix2id.A)
    tr = residual_context(fix2id.phi, rc)
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    by_vec = {tuple(p.values): lbl for lbl, p in zip(rc.category.objects, rc.members)}
    assert set(by_vec) == {(one, one), (zero, one), (one, zero)}
    rows = {vec: (tr.at("b1", lbl), tr.at("b2", lbl)) for vec, lbl in by_vec.items()}
    assert rows[(one, one)] == (one, one)
    assert rows[(zero, one)] == (zero, one)   # complement of a1 maps off b1
    assert rows[(one, zero)] == (one, zero)


def test_residual_context_fixl3(fixl3, luk3):
    rc = residual_category(fixl3.A)
    tr = residual_context(fixl3.phi, rc)
    table = {}
    for lbl, p in zip(rc.category.objects, rc.members):
        u_label = luk3.label(rc.provenance[p.key()][0][1])
        table[u_label] = luk3.label(tr.at("b", lbl))
    assert table == {"0": "1/2", "1/2": "1", "1": "1"}


def test_residual_routes_agree_fixdl3(fixdl3):
    # the definition yoneda_graph <l phi, by scans, and the closed form
    # left_imp(u, phi(a, -)) on every provenance pair (a, u) of each member
    rc = residual_category(fixdl3.A)
    tr = residual_context(fixdl3.phi, rc)
    assert [list(row) for row in tr.matrix] == oracle_left_imp(rc.yoneda_graph, fixdl3.phi)
    assert residual_closed_form_misses(fixdl3.phi, rc, tr) == []
    assert validate_distributor(tr).ok


def test_residual_context_closed_form_on_every_provenance_pair(all_contexts):
    for name, ctx in all_contexts.items():
        rc = residual_category(ctx.A)
        tr = residual_context(ctx.phi, rc)
        assert residual_closed_form_misses(ctx.phi, rc, tr) == [], name


@pytest.mark.parametrize("cell", [("x", "p"), ("y", "q")])
def test_a_non_distributor_has_no_residual_context(fixdl3, cell):
    # phi with one entry lowered from 1 to 0 breaks the bimodule law
    x, y = cell
    q, A, B = fixdl3.phi.q, fixdl3.A, fixdl3.B
    matrix = [list(row) for row in fixdl3.phi.matrix]
    matrix[A.index(x)][B.index(y)] = q.arrow(A.type_of(x), B.type_of(y), "0")
    phi = QDistributor(A, B, matrix, name="lowered")
    for call in (residual_context, verify_rst_as_fca):
        with pytest.raises(QfcaError, match="distributor.bimodule"):
            call(phi)


def test_rst_as_fca(all_contexts):
    for name, ctx in all_contexts.items():
        report = verify_rst_as_fca(ctx.phi)
        assert report.passed, (name, report.failed_names())


def test_complement_route(fix2id, fixl3, two, luk3):
    fam2 = find_cyclic_dualizing_family(two)
    neg = complement_context(fix2id.phi, fam2)
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    assert neg.at("b1", "a1") == zero and neg.at("b1", "a2") == one
    assert verify_rst_as_fca_complement(fix2id.phi, fam2).passed
    fam_l = find_cyclic_dualizing_family(luk3)
    assert verify_rst_as_fca_complement(fixl3.phi, fam_l).passed


def test_complement_route_not_girard(fixg3, godel3):
    fam = find_cyclic_dualizing_family(godel3)
    with pytest.raises(NotGirard):
        complement_context(fixg3.phi, fam)


def test_codense_probe(two, luk3, godel3, diag3):
    assert codense_probe(two, "*").passed
    assert codense_probe(luk3, "*").passed
    g = codense_probe(godel3, "*")
    assert g.passed and "exists: False" in g.conditions[0].detail
    for q in diag3.objects:
        assert codense_probe(diag3, q).passed


def test_codense_probe_hypotheses(two):
    # a quantale whose unit is not the top violates the probe's hypotheses
    from qfca.quantaloid import build_preset

    def prod(a, b):
        if "0" in (a, b):
            return "0"
        return "t" if "t" in (a, b) else "e"

    Q = build_preset(
        "commutative-quantale-from-table",
        elements=["0", "e", "t"], leq=[("0", "e"), ("e", "t")],
        products=[(a, b, prod(a, b)) for a in ("0", "e", "t") for b in ("0", "e", "t")],
        unit="e")
    with pytest.raises(HypothesesNotMet):
        codense_probe(Q, "*")


def test_transposes(fix2id, fixl3, luk3):
    pa = materialize_presheaves(fix2id.A)
    ident = presheaf_transpose(identity_dist(fix2id.A), pa)
    y = pa.yoneda_functor()
    assert all(ident(x) == y(x) for x in fix2id.A.objects)
    pal3 = materialize_presheaves(fixl3.A)
    tr = presheaf_transpose(fixl3.phi, pal3)
    assert luk3.label(pal3.member_of(tr("b")).values[0]) == "1/2"
    assert verify_transpose_identities(fix2id.phi).passed
    assert verify_transpose_identities(fixl3.phi).passed


def test_identity_chu_maps(fix2id):
    phi = fix2id.phi
    c = ChuTransform(phi, phi, identity_functor(fix2id.A), identity_functor(fix2id.B))
    M = fca_lattice(phi)
    K = rst_lattice(phi)
    fm = fca_lattice_map(c)
    km = rst_lattice_map(c)
    assert all(fm(lbl) == lbl for lbl in M.category.objects)
    assert all(km(lbl) == lbl for lbl in K.category.objects)


def make_chu_transforms(fix2id, fixl3, two, luk3):
    """At least five nonidentity Chu transforms over the two stock contexts."""
    out = []
    phi = fix2id.phi
    A, B = fix2id.A, fix2id.B
    swapA = QFunctor(A, A, {"a1": "a2", "a2": "a1"})
    swapB = QFunctor(B, B, {"b1": "b2", "b2": "b1"})
    out.append(ChuTransform(phi, phi, swapA, swapB))
    # duplicate one column of phi: collapse functors on the new column set
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    B3 = discrete_category(two, QTypedSet(("c1", "c2"), ("*", "*")), name="B3")
    for col in ("b1", "b2"):
        j = B.index(col)
        psi = QDistributor(A, B3, [[phi.matrix[i][j]] * 2 for i in range(2)])
        G = QFunctor(B3, B, {"c1": col, "c2": col})
        out.append(ChuTransform(phi, psi, identity_functor(A), G))
    # extend phi with extra rows; the inclusion is a Chu transform
    for extra in (zero, one):
        A3 = discrete_category(two, QTypedSet(("a1", "a2", "a3"), ("*",) * 3), name="A3")
        psi = QDistributor(A3, B, [list(phi.matrix[0]), list(phi.matrix[1]),
                                   [extra, extra]])
        F = QFunctor(A, A3, {"a1": "a1", "a2": "a2"})
        out.append(ChuTransform(phi, psi, F, identity_functor(B)))
    # swap the rows of a two-row context over the three-valued chain
    half = luk3.arrow("*", "*", "1/2")
    A2 = discrete_category(luk3, QTypedSet(("x1", "x2"), ("*", "*")), name="L2")
    phL = QDistributor(A2, fixl3.B, [[half], [half]])
    out.append(ChuTransform(phL, phL, QFunctor(A2, A2, {"x1": "x2", "x2": "x1"}),
                            identity_functor(fixl3.B)))
    return out


def test_functoriality_square_many(fix2id, fixl3, two, luk3):
    transforms = make_chu_transforms(fix2id, fixl3, two, luk3)
    assert len(transforms) >= 5
    for c in transforms:
        assert validate_chu(c).ok
        report = verify_functoriality_square(c)
        assert report.passed, report.failed_names()


def test_residual_chu_transports(fix2id, fixl3, two, luk3):
    for c in make_chu_transforms(fix2id, fixl3, two, luk3):
        moved = residual_chu(c)
        assert validate_chu(moved).ok


def test_fca_map_preserves_joins(fix2id):
    # the lattice map of a Chu transform preserves finite underlying joins
    phi = fix2id.phi
    swap = ChuTransform(phi, phi,
                        QFunctor(fix2id.A, fix2id.A, {"a1": "a2", "a2": "a1"}),
                        QFunctor(fix2id.B, fix2id.B, {"b1": "b2", "b2": "b1"}))
    M = fca_lattice(phi)
    fm = fca_lattice_map(swap)
    X = M.category
    order = underlying_order(X)
    for s in X.objects:
        for t in X.objects:
            if X.type_of(s) != X.type_of(t):
                continue
            join = [j for j in X.objects
                    if order.leq(s, j) and order.leq(t, j)
                    and all(order.leq(j, k) for k in X.objects
                            if order.leq(s, k) and order.leq(t, k))]
            image_join = [j for j in X.objects
                          if order.leq(fm(s), j) and order.leq(fm(t), j)
                          and all(order.leq(j, k) for k in X.objects
                                  if order.leq(fm(s), k) and order.leq(fm(t), k))]
            if join and image_join:
                assert fm(join[0]) == image_join[0]


def test_rst_of_identity_is_all_presheaves(fix2id, fixdl3):
    for ctx in (fix2id, fixdl3):
        K = rst_lattice(identity_dist(ctx.A))
        per = K.per_type()
        for qobj in ctx.A.q.objects:
            assert frozenset(p.key() for p in per[qobj]) == \
                frozenset(p.key() for p in enumerate_presheaves(ctx.A, qobj))


def test_restriction_equivalence(fix2id, fixl3):
    # the restricted adjoint pair swaps the two fixed subcategories
    for ctx in (fix2id, fixl3):
        isb = IsbellPair(ctx.phi)
        for qobj in ctx.phi.q.objects:
            for mu in brute_force_fixed(ctx.phi, "fca", qobj):
                lam = isb.left(mu)
                assert isb.left(isb.right(lam)) == lam  # lands in the dual fixed set
                assert isb.right(lam) == mu


def test_multi_typed_girard_routes_agree(diagb4):
    # over the Boolean diagonal quantaloid (Girard, four objects) the
    # complement route and the residual route both recover the rst lattice
    a = diagb4.arrow
    A = QCategory(diagb4, ("x", "y"), ("ab", "a"),
                  [[a("ab", "ab", "ab"), a("ab", "a", "a")],
                   [a("a", "ab", "0"), a("a", "a", "a")]], name="GA2")
    B = QCategory(diagb4, ("p",), ("b",), [[a("b", "b", "b")]], name="GB1")
    phi = QDistributor(A, B, [[a("ab", "b", "b")], [a("a", "b", "0")]], name="gphi")
    assert validate_distributor(phi).ok
    assert verify_rst_as_fca(phi).passed
    fam = find_cyclic_dualizing_family(diagb4)
    assert fam.dualizing
    assert verify_rst_as_fca_complement(phi, fam).passed


def test_empty_quantaloid_is_legal():
    from qfca.quantaloid import Quantaloid, validate_quantaloid

    Q = Quantaloid((), {}, {}, {}, name="empty")
    assert validate_quantaloid(Q).ok


def test_generator_soundness(all_contexts):
    # every rst generator is the closure image of a presheaf residual, and
    # every fca generator the polarity image of a copresheaf tensor
    from qfca.represent import (
        copresheaf_tensor,
        dom_pairs,
        cod_pairs,
        presheaf_residual,
    )

    for ctx in all_contexts.values():
        phi, q = ctx.phi, ctx.phi.q
        for a, u in dom_pairs(ctx.A):
            i = ctx.A.index(a)
            gen = Presheaf(ctx.B, u.dst,
                           tuple(q.left_imp(u, phi.matrix[i][j])
                                 for j in range(len(ctx.B))))
            assert kan_lower(phi, presheaf_residual(ctx.A, a, u)) == gen
            assert KanPair(phi).closure(gen) == gen
        for b, v in cod_pairs(ctx.B):
            j = ctx.B.index(b)
            gen = Presheaf(ctx.A, v.src,
                           tuple(q.right_imp(v, phi.matrix[i][j])
                                 for i in range(len(ctx.A))))
            assert isbell_down(phi, copresheaf_tensor(ctx.B, b, v)) == gen
            assert IsbellPair(phi).closure(gen) == gen


def test_serializers_deterministic(fixl3):
    lat = rst_lattice(fixl3.phi)
    j1, j2 = lattice_to_json(lat), lattice_to_json(rst_lattice(fixl3.phi))
    assert j1 == j2
    d1, d2 = lattice_to_dot(lat), lattice_to_dot(rst_lattice(fixl3.phi))
    assert d1 == d2 and d1.count("digraph") == 1 and "->" in d1


def test_closure_budget_boundary(all_contexts, monkeypatch):
    # the cap bounds each type's closure: the largest type fits at cap N, not at N - 1
    for ctx in all_contexts.values():
        for compute in (fca_lattice, rst_lattice):
            lat = compute(ctx.phi)
            sizes = {t: len(ps) for t, ps in lat.per_type().items()}
            n = max(sizes.values())
            monkeypatch.setenv("QFCA_BUDGET", str(n))
            assert compute(ctx.phi).keys() == lat.keys()
            monkeypatch.setenv("QFCA_BUDGET", str(n - 1))
            with pytest.raises(ClosureBudgetExceeded) as err:
                compute(ctx.phi)
            monkeypatch.delenv("QFCA_BUDGET")
            message = str(err.value)
            assert f"closure cap of {n - 1} elements" in message
            first_full = next(t for t, k in sizes.items() if k == n)
            assert f"at type {first_full!r}" in message
            assert "QFCA_BUDGET overrides it" in message

