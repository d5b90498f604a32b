
import gc
import hashlib
import json
import pathlib
import random
import sys
import weakref

import pytest

import qfca
from qfca.errors import (
    ClosureBudgetExceeded,
    HypothesesNotMet,
    InvalidParams,
    NotGirard,
    QfcaError,
    Report,
)
from qfca.qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    discrete_category,
    identity_functor,
    underlying_order,
)
from qfca.qdist import QDistributor, identity_dist, validate_distributor
from qfca.presheaf import (
    Presheaf,
    _SetCode,
    enumerate_presheaves,
    materialize_copresheaves,
    materialize_presheaves,
    presheaf_label,
    yoneda,
)
from qfca.concept import (
    IsbellPair,
    KanPair,
    _check_rst_is_fca,
    brute_force_fixed,
    closure_pair,
    codense_probe,
    complement_context,
    fca_lattice,
    lattice_to_dot,
    lattice_to_json,
    residual_category,
    residual_context,
    rst_lattice,
    verify_rst_as_fca,
    verify_rst_as_fca_complement,
)
from qfca.quantaloid import build_preset, find_cyclic_dualizing_family

from _helpers import (
    ChuTransform,
    InvalidChu,
    chain4_quantale,
    copresheaf_tensor,
    enumerate_distributors,
    failed_names,
    fca_lattice_map,
    find_equivalence,
    isbell_down,
    isbell_up,
    kan_lower,
    kan_star,
    member_of,
    oracle_lattice_equality,
    oracle_copresheaf_hom,
    oracle_left_imp,
    oracle_mask_covers,
    oracle_tables,
    ordinal_quantaloid,
    pair_left,
    pair_right,
    pointwise_leq,
    presheaf_transpose,
    residual_chu,
    residual_closed_form_misses,
    rst_lattice_map,
    validate_chu,
    value_at,
    verify_functoriality_square,
    verify_transpose_identities,
)


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
                assert pointwise_leq(pair_left(kan, pair_right(kan, mu)), mu)
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


def test_closure_pair_refuses_an_unknown_kind(fix2id):
    phi = fix2id.phi
    for kind, cls in (("fca", IsbellPair), ("rst", KanPair)):
        pair = closure_pair(phi, kind)
        assert type(pair) is cls and pair.kind == kind
        fixed = brute_force_fixed(phi, kind, "*")
        assert fixed and all(pair.closure(p) == p for p in fixed)
    for refused in (lambda: closure_pair(phi, "x"), lambda: brute_force_fixed(phi, "x", "*")):
        with pytest.raises(InvalidParams, match=r"^kind must be fca or rst, got 'x'$"):
            refused()


def test_empty_context(two):
    E = discrete_category(two, QTypedSet((), ()))
    phi = QDistributor(E, E, [])
    M = fca_lattice(phi)
    assert len(M) == 1 and M.concepts[0].values == ()


def test_macneille_counts(two):
    # the MacNeille completion of A is the FCA lattice of its identity context
    anti = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    assert len(fca_lattice(identity_dist(anti))) == 4
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    chain = QCategory(two, ("x", "y"), ("*", "*"), [[one, one], [zero, one]])
    assert len(fca_lattice(identity_dist(chain))) == 2


def test_macneille_of_complete_is_itself(luk3):
    # a separated complete category: the presheaves on a singleton
    S = discrete_category(luk3, QTypedSet(("a",), ("*",)))
    X = materialize_presheaves(S).category
    lat = fca_lattice(identity_dist(X))
    # the completion is the image of the representables, equivalent to X
    assert find_equivalence(lat.category, X) is not None
    reps = {yoneda(X, x).key() for x in X.objects}
    assert reps == {p.key() for p in lat.concepts}


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
                assert rc.yoneda_graph.at(x, lbl) == value_at(p, x)


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


def test_the_isbell_lattice_over_asymmetric_homs():
    # the ordinal quantaloid's homs (0, 1) and (1, 0) differ, as no preset's do: B's
    # co layout at s lays u (type 1) and v (type 0) out from homs[s, |u|] and
    # homs[s, |v|], so at s = 1 v has the one-element hom (1, 0), and the Isbell
    # middle codes, the copresheaves on B, decode on it
    Q = ordinal_quantaloid()

    def arrows(rows):
        return [[Q.arrow(p, q, label) for p, q, label in row] for row in rows]

    A = QCategory(Q, ("x", "y"), ("0", "1"),
                  arrows([[("0", "0", "1"), ("0", "1", "1")], [("1", "0", "0"), ("1", "1", "1")]]),
                  name="A")
    B = QCategory(Q, ("u", "v"), ("1", "0"),
                  arrows([[("1", "1", "1"), ("1", "0", "0")], [("0", "1", "1"), ("0", "0", "1")]]),
                  name="B")
    phi = QDistributor(A, B, arrows([[("0", "1", "1"), ("0", "0", "0")],
                                     [("1", "1", "0"), ("1", "0", "0")]]), name="phi")
    assert validate_distributor(phi).ok
    layouts = {s: (code.rows, code.fields, code.top)
               for s in Q.objects for code in [_SetCode(B, s, "up", co=True)]}
    assert layouts == {"0": (((3, 2), (12, 8)), (3, 12), 15), "1": (((3, 2), (4,)), (3, 4), 7)}
    space = materialize_copresheaves(B)
    assert space.labels == (
        "0|u:0,v:0", "0|u:1,v:0", "0|u:1,v:1", "1|u:0,v:0", "1|u:1,v:0")
    # P+(B)'s homs between members of types 0 and 1 lie in the differing homs (0, 1)
    # and (1, 0), so swapped operands or residual types fail here
    assert [list(row) for row in space.category.hom] == [
        [oracle_copresheaf_hom(m, n) for n in space.members] for m in space.members]
    lattice = fca_lattice(phi)
    assert lattice_to_json(lattice) == {"kind": "fca", "context": "phi", "types": {
        "0": {"concepts": [{"label": "0|x:1,y:0", "values": {"x": "1", "y": "0"}},
                           {"label": "0|x:0,y:0", "values": {"x": "0", "y": "0"}}],
              "hasse": [["0|x:0,y:0", "0|x:1,y:0"]]},
        "1": {"concepts": [{"label": "1|x:1,y:1", "values": {"x": "1", "y": "1"}},
                           {"label": "1|x:1,y:0", "values": {"x": "1", "y": "0"}}],
              "hasse": [["1|x:1,y:0", "1|x:1,y:1"]]}}}
    # the concepts' images in the middle, copresheaves on B
    lefts = {s: [[Q.label(v) for v in values]
                 for values in IsbellPair(phi).lefts(s, [p.values for p in ps])]
             for s, ps in lattice.per_type().items()}
    assert lefts == {"0": [["1", "0"], ["1", "1"]], "1": [["0", "0"], ["1", "0"]]}


def test_rst_as_fca(all_contexts):
    for name, ctx in all_contexts.items():
        report = verify_rst_as_fca(ctx.phi)
        assert report.passed, (name, failed_names(report))


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
    with pytest.raises(HypothesesNotMet, match="some unit arrow is not the top"):
        codense_probe(Q, "*")
    # units are tops in both noncommutative quantales, but their bottom is not cyclic
    for Q in (chain4_quantale("0", "a"), chain4_quantale("a", "0")):
        with pytest.raises(HypothesesNotMet, match="bottom endo-arrows are not a cyclic family"):
            codense_probe(Q, "*")


def test_transposes(fix2id, fixl3, luk3):
    pa = materialize_presheaves(fix2id.A)
    ident = presheaf_transpose(identity_dist(fix2id.A), pa)
    y = pa.yoneda_functor()
    assert all(ident(x) == y(x) for x in fix2id.A.objects)
    pal3 = materialize_presheaves(fixl3.A)
    tr = presheaf_transpose(fixl3.phi, pal3)
    assert luk3.label(member_of(pal3, tr("b")).values[0]) == "1/2"
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


def test_a_non_chu_transform_is_refused_or_reported(fix2id):
    # swapping the rows of the identity context alone breaks the Chu square
    phi = fix2id.phi
    swapA = QFunctor(fix2id.A, fix2id.A, {"a1": "a2", "a2": "a1"})
    c = ChuTransform(phi, phi, swapA, identity_functor(fix2id.B))
    assert not validate_chu(c).ok
    with pytest.raises(InvalidChu, match="not a Chu transform: "):
        fca_lattice_map(c)
    report = verify_functoriality_square(c)
    assert [x.name for x in report.conditions] == ["chu-transform"]
    assert failed_names(report) == ["chu-transform"]


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
        assert report.passed, failed_names(report)


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
                lam = pair_left(isb, mu)
                assert pair_left(isb, pair_right(isb, lam)) == lam  # lands in the dual fixed set
                assert pair_right(isb, lam) == mu


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
            n, keys = max(sizes.values()), {p.key() for p in lat.concepts}
            monkeypatch.setenv("QFCA_BUDGET", str(n))
            assert {p.key() for p in compute(ctx.phi).concepts} == keys
            monkeypatch.setenv("QFCA_BUDGET", str(n - 1))
            with pytest.raises(ClosureBudgetExceeded) as err:
                compute(ctx.phi)
            monkeypatch.delenv("QFCA_BUDGET")
            message = str(err.value)
            assert f"closure cap of {n - 1} elements" in message
            first_full = next(t for t, k in sizes.items() if k == n)
            assert f"at type {first_full!r}" in message
            assert "QFCA_BUDGET overrides it" in message




# Digests of ``lattice_to_json`` pin the within-type concept order and the
# covers on inputs large enough to show an order change, which the golden
# files, at 3x3, are too small to show.  The contexts are the benchmark's own
# draws: ROADMAP's random 14x14 over ``two`` with seed 3, and one sparse 8x8
# over the four-object ``frame-diagonal boolean=2``.
ORDER_DIGESTS = {
    ("ref-14x14-seed3", "fca"): (230, "45a6a8eb63bc6262"),
    ("ref-14x14-seed3", "rst"): (118, "11509ba9effb7ab5"),
    ("bool2-sparse-8x8-seed4", "fca"): (48, "af723afaeeaa79e3"),
    ("bool2-sparse-8x8-seed4", "rst"): (42, "d09fb035146db191"),
}


def _perfbench():
    """The benchmark's context generator and its integer tables."""
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))
    try:
        import gen
        import oracle
    finally:
        sys.path.pop(0)
    return gen, oracle


@pytest.fixture(scope="module")
def order_contexts():
    gen, oracle = _perfbench()
    two, bool2 = build_preset("two"), build_preset("frame-diagonal", boolean=2)
    ref = gen.discrete(oracle.Tables(two), 14, 14, random.Random(3), name="ref-14x14-seed3")
    sparse = gen.sparse(oracle.Tables(bool2), 8, 8, random.Random(4), density=0.05, fill=0.3,
                        name="bool2-sparse-8x8-seed4")
    return {d.name: gen.build(qfca, Q, d) for Q, d in ((two, ref), (bool2, sparse))}


@pytest.mark.parametrize("name, kind", list(ORDER_DIGESTS))
def test_lattice_order_and_covers_are_pinned(order_contexts, name, kind):
    lat = (fca_lattice if kind == "fca" else rst_lattice)(order_contexts[name])
    blob = json.dumps(lattice_to_json(lat), separators=(",", ":"))
    assert (len(lat), hashlib.sha256(blob.encode()).hexdigest()[:16]) == ORDER_DIGESTS[name, kind]


# The covers that ``lattice_to_json`` reads off the generators, against the
# per-position mask method, on seeded benchmark draws up to 825 concepts: the
# discrete ones over ``two`` and the Lukasiewicz chain, and sparse multi-typed
# ones over two frame diagonals, drawn as the ``lattice`` workload draws them.
COVER_DRAWS = {
    "two-10x10-seed1": ("two", {}, "discrete", 10, 1),
    "two-22x22-seed1": ("two", {}, "discrete", 22, 1),
    "luk5-6x6-seed1": ("lukasiewicz-chain", {"n": 5}, "discrete", 6, 1),
    "chain4-sparse-8x8-seed1": ("frame-diagonal", {"chain": 4}, "sparse", 8, 1),
}


@pytest.fixture(scope="module")
def cover_contexts(order_contexts):
    gen, oracle = _perfbench()
    out = dict(order_contexts)
    for name, (preset, params, shape, n, seed) in COVER_DRAWS.items():
        Q, rnd = build_preset(preset, **params), random.Random(seed)
        draw = (gen.discrete(oracle.Tables(Q), n, n, rnd, name=name) if shape == "discrete" else
                gen.sparse(oracle.Tables(Q), n, n, rnd, density=0.05, fill=0.3, name=name))
        out[name] = gen.build(qfca, Q, draw)
    return out


@pytest.mark.parametrize("name", [*COVER_DRAWS, "ref-14x14-seed3", "bool2-sparse-8x8-seed4"])
def test_covers_match_the_mask_oracle_at_size(cover_contexts, name):
    sizes = {}
    for compute in (fca_lattice, rst_lattice):
        lat = compute(cover_contexts[name])
        types = lattice_to_json(lat)["types"]
        for (code, codes), generators in zip(lat.coded, lat.generators):
            assert set(generators) <= set(codes), (lat.kind, code.qobj)
            labels = [presheaf_label(code.decode(c)) for c in codes]
            expected = [list(e) for e in oracle_mask_covers(code, codes, labels)]
            assert types[code.qobj]["hasse"] == expected, (lat.kind, code.qobj)
        sizes[lat.kind] = len(lat)
    if name == "two-22x22-seed1":
        assert sizes == {"fca": 825, "rst": 903}


def _square_context(Q, entries):
    """A context on two-object discrete carriers over Q, its entries by index."""
    A, B = (discrete_category(Q, QTypedSet((f"{side}1", f"{side}2"), ("*", "*")), name=side)
            for side in "AB")
    return QDistributor(A, B, [[Q.arrow_table["*", "*"][k] for k in row] for row in entries])


def test_kept_tables_hold_no_context():
    # the code tables kept on the context refer to no context, so it is freed once
    # printed; the quantaloid, its opposite built first as an FCA lattice builds it,
    # gains nothing over the loop
    Q = build_preset("lukasiewicz-chain", n=3)
    before = set(vars(Q.opposite())), set(vars(Q))
    for kind in ("fca", "rst"):
        phi = _square_context(Q, [[0, 1], [2, 1]])
        ref = weakref.ref(phi)
        lattice_to_json((fca_lattice if kind == "fca" else rst_lattice)(phi))
        del phi
        gc.collect()
        assert ref() is None, kind
    assert (set(vars(Q.opposite())), set(vars(Q))) == before


def test_quantaloids_with_the_same_object_names_keep_their_own_tables():
    # tables built first over one quantaloid are never read for another with the
    # same object names: every coded table equals the per-cell oracle's
    two = build_preset("two")
    luk3, godel3 = build_preset("lukasiewicz-chain", n=3), build_preset("godel-chain", n=3)
    luk3b, godel3b = build_preset("lukasiewicz-chain", n=3), build_preset("godel-chain", n=3)
    for first, second in [(two, two.opposite()), (luk3, godel3), (godel3b, luk3b)]:
        for Q in (first, second):
            phi = _square_context(Q, [[0, 1], [len(Q.homs["*", "*"]) - 1, 0]])
            for pair in (IsbellPair(phi), KanPair(phi)):
                for qobj in Q.objects:
                    left, _, right = pair.coded(qobj)[3]
                    assert (left, right) == oracle_tables(pair, qobj), Q.name


def _lattice_equality(phi, other):
    report = Report("lattice-equality")
    _check_rst_is_fca(report, phi, other, "other-fca")
    oracle = Report("lattice-equality")
    oracle_lattice_equality(oracle, phi, other, "other-fca")
    return report.to_json(), oracle.to_json()


@pytest.mark.parametrize("name,same_size", [("fix2id", False), ("fixdl3", True)])
def test_lattice_equality_reports_a_mismatch_as_the_key_scan(name, same_size, request):
    # rst(phi) against the fca lattice of the first context on phi's columns whose
    # lattice differs from it at some type: in size on fix2id, and in its concepts
    # only, at equal sizes, on fixdl3; the codes' symmetric difference is reported
    # as the sorted keys the oracle reads off per_type()
    phi = request.getfixturevalue(name).phi
    wanted = rst_lattice(phi).per_type()
    for other in enumerate_distributors(phi.cod, phi.cod):
        got = fca_lattice(other).per_type()
        differ = [q for q in phi.q.objects
                  if {p.key() for p in got[q]} != {p.key() for p in wanted[q]}
                  and (len(got[q]) == len(wanted[q])) == same_size]
        if differ:
            break
    else:
        pytest.fail("no context with a differing lattice")
    report, oracle = _lattice_equality(phi, other)
    assert report == oracle
    assert not report["passed"]
    failed = {c["name"] for c in report["conditions"] if not c["passed"]}
    assert {f"lattice-equality@{q}" for q in differ} <= failed
