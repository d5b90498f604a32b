import itertools
import pathlib

import pytest

from qfca.errors import BudgetExceeded, ColimitMissing, TypeMismatch
from qfca.qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    discrete_category,
    dualize_functor,
    functor_iso,
    identity_functor,
    underlying_order,
)
from qfca.qdist import graph, is_adjoint_functor_pair
from qfca.presheaf import (
    Presheaf,
    coyoneda,
    enumerate_copresheaves,
    enumerate_presheaves,
    find_left_adjoint,
    find_right_adjoint,
    image_join_dense,
    inf,
    is_codense,
    is_complete,
    is_dense,
    is_join_dense,
    is_meet_dense,
    lan,
    materialize_copresheaves,
    materialize_presheaves,
    pointwise_leq,
    presheaf_hom,
    copresheaf_hom,
    presheaf_join,
    presheaf_meet,
    pushforward,
    ran,
    sup,
    top_presheaf,
    weighted_colimit,
    weighted_limit,
    yoneda,
)
from qfca.cli import load_document
from qfca.concept import residual_category
from qfca.represent import canonical_dense_data, canonical_fca_data, canonical_general_data

from _helpers import oracle_left_imp


def assert_lan_identity(L, K, F):
    """graph(L) == graph(F) <l graph(K), the right side by explicit scans."""
    assert [list(row) for row in graph(L).matrix] == oracle_left_imp(graph(F), graph(K))


def assert_ran_identity(R, H, G):
    """cograph(R) == cograph(H) >r cograph(G): the graph identity of the duals."""
    assert_lan_identity(dualize_functor(R), dualize_functor(H), dualize_functor(G))


def test_presheaf_hom_reflexive(fixdl3):
    A = fixdl3.A
    q = A.q
    for qobj in q.objects:
        for mu in enumerate_presheaves(A, qobj):
            assert q.leq(q.unit(qobj), presheaf_hom(mu, mu))


def test_presheaf_hom_luk3(fixl3, luk3):
    A = fixl3.A
    mk = lambda lbl: Presheaf(A, "*", (luk3.arrow("*", "*", lbl),))
    assert luk3.label(presheaf_hom(mk("1/2"), mk("0"))) == "1/2"


def test_yoneda_lemma(all_contexts):
    for ctx in all_contexts.values():
        for A in (ctx.A, ctx.B):
            for qobj in A.q.objects:
                for mu in enumerate_presheaves(A, qobj):
                    for a in A.objects:
                        assert presheaf_hom(yoneda(A, a), mu) == mu.at(a)
                for lam in enumerate_copresheaves(A, qobj):
                    for a in A.objects:
                        assert copresheaf_hom(lam, coyoneda(A, a)) == lam.at(a)


def test_yoneda_fully_faithful_fixdl3(fixdl3):
    A = fixdl3.A
    for a, b in itertools.product(A.objects, repeat=2):
        assert presheaf_hom(yoneda(A, a), yoneda(A, b)) == A.hom_of(a, b)
    for a in A.objects:
        assert yoneda(A, a).at(a) == A.hom_of(a, a)


def test_yoneda_discrete_unit_vector(two):
    A = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    mu = yoneda(A, "x")
    assert mu.at("x") == two.unit("*") and mu.at("y") == two.bottom("*", "*")


def test_sup_examples(two, fix2id):
    A = fix2id.A
    assert sup(A, top_presheaf(A, "*")) is None
    space = materialize_presheaves(A)
    for m in space.members:
        assert sup(A, m) is None or True  # no exception
    # in the presheaf category every presheaf has a supremum
    assert is_complete(space.category)
    # sup of a representable is the representing object
    order = underlying_order(A)
    for a in A.objects:
        assert order.iso(sup(A, yoneda(A, a)), a)


def test_weighted_colimit_identity(fixdl3):
    A = fixdl3.A
    order = underlying_order(A)
    for x in A.objects:
        c = weighted_colimit(yoneda(A, x), identity_functor(A))
        assert c is not None and order.iso(c, x)


def test_colimit_of_yoneda_weight_is_itself(fix2id):
    # inside the presheaf category, the colimit of yoneda weighted by mu is mu
    A = fix2id.A
    space = materialize_presheaves(A)
    y = space.yoneda_functor()
    order = underlying_order(space.category)
    for m in space.members:
        c = weighted_colimit(Presheaf(A, m.type, m.values), y)
        assert c is not None and order.iso(c, space.label_of(m))


def test_colim_sup_consistency(fix2id, fixl3):
    for ctx in (fix2id, fixl3):
        A = ctx.A
        space = materialize_presheaves(A)
        y = space.yoneda_functor()
        order = underlying_order(space.category)
        for qobj in A.q.objects:
            for mu in enumerate_presheaves(A, qobj):
                via_colim = weighted_colimit(mu, y)
                via_sup = sup(space.category, pushforward(y, mu))
                assert (via_colim is None) == (via_sup is None)
                if via_colim is not None:
                    assert order.iso(via_colim, via_sup)


def test_pushforward(fix2id):
    A = fix2id.A
    space = materialize_presheaves(A)
    for m in space.members:
        assert pushforward(identity_functor(A), m) == m
    # constant functor: values collapse through the composition formula
    S = discrete_category(A.q, QTypedSet(("s",), ("*",)))
    F = QFunctor(S, A, {"s": "a1"})
    mu = Presheaf(S, "*", (A.q.arrow("*", "*", "1"),))
    out = pushforward(F, mu)
    assert out.type == mu.type
    q = A.q
    for i, x in enumerate(A.objects):
        assert out.at(x) == q.compose(mu.at("s"), A.hom_of(x, "a1"))


def test_lan_identity(fix2id, two):
    A = fix2id.A
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    F = QFunctor(A, X, {"a1": "u", "a2": "v"})
    L = lan(identity_functor(A), F)
    assert functor_iso(L, F)
    assert_lan_identity(L, identity_functor(A), F)
    R = ran(identity_functor(A), F)
    assert functor_iso(R, F)
    assert_ran_identity(R, identity_functor(A), F)


def test_lan_along_yoneda_is_closure(fix2id):
    phi = fix2id.phi
    data = canonical_general_data(phi, "fca")
    _, F, _ = canonical_fca_data(phi)
    y = data.adj.C_space.yoneda_functor()
    L = lan(y, F)
    assert functor_iso(L, data.L)
    assert_lan_identity(L, y, F)


def test_dense_data_kan_extensions_satisfy_their_identities(all_contexts):
    for ctx in all_contexts.values():
        for kind in ("fca", "rst"):
            _, F, K, G, H = canonical_dense_data(ctx.phi, kind)
            assert_lan_identity(lan(K, F), K, F)
            assert_ran_identity(ran(H, G), H, G)


def test_ran_of_codense_along_itself(fixl3):
    A = fixl3.A
    pa = materialize_presheaves(A)
    J = residual_category(A).functor_to(pa, lambda m: m)
    assert is_codense(J)
    R = ran(J, J)
    assert functor_iso(R, identity_functor(pa.category))
    assert_ran_identity(R, J, J)


def test_colimit_missing_raises(two):
    A = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    K = QFunctor(A, X, {"x": "u", "y": "v"})
    with pytest.raises(ColimitMissing):
        lan(K, identity_functor(A))  # the discrete target misses the join at v


def test_density_predicates(fix2id, fixl3):
    for ctx in (fix2id, fixl3):
        pa = materialize_presheaves(ctx.A)
        pda = materialize_copresheaves(ctx.A)
        assert is_dense(pa.yoneda_functor())
        assert is_codense(pda.yoneda_functor())
        assert is_codense(residual_category(ctx.A).functor_to(pa, lambda m: m))


def test_join_dense_negative_case(luk3):
    # the embedding of a singleton into its presheaf category is dense but
    # its one-object image can never be join-dense over a 3-chain
    S = discrete_category(luk3, QTypedSet(("a",), ("*",)))
    ps = materialize_presheaves(S)
    y = ps.yoneda_functor()
    assert is_dense(y)
    assert not is_join_dense(y, assume_complete=True)


def test_join_dense_identity(two):
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    assert is_join_dense(identity_functor(X))
    assert is_meet_dense(identity_functor(X))


def test_join_dense_matches_subset_oracle(fixl3, fix2id):
    # oracle: exhaustive subset search for an underlying join landing at y
    for ctx in (fixl3, fix2id):
        X_space = materialize_presheaves(ctx.A)
        X = X_space.category
        order = underlying_order(X)
        for image in [set(X.objects[:1]), set(X.objects[1:]), set(X.objects)]:
            got = image_join_dense(X, image, assume_complete=True)
            expect = True
            for y in X.objects:
                candidates = [s for s in sorted(image) if X.type_of(s) == X.type_of(y)]
                found = False
                for r in range(len(candidates) + 1):
                    for subset in itertools.combinations(candidates, r):
                        mu = presheaf_join(X, X.type_of(y), [yoneda(X, s) for s in subset])
                        j = sup(X, mu)
                        if j is not None and order.iso(j, y):
                            found = True
                            break
                    if found:
                        break
                if not found:
                    expect = False
                    break
            assert got == expect


def test_join_dense_implies_dense(fix2id, luk3):
    # bridge: join-density into a complete target forces density
    A = fix2id.A
    pa = materialize_presheaves(A)
    from qfca.represent import build_generator_maps
    gm = build_generator_maps(A, pa, materialize_copresheaves(A))
    assert gm.density["presheaf_tensors:join"]
    assert is_dense(gm.presheaf_tensors)
    assert gm.density["presheaf_residuals:meet"]
    assert is_codense(gm.presheaf_residuals)


def test_enumerate_counts(two, luk3, fix2id):
    S2 = discrete_category(two, QTypedSet(("a",), ("*",)))
    assert len(enumerate_presheaves(S2, "*")) == 2
    S3 = discrete_category(luk3, QTypedSet(("a",), ("*",)))
    assert len(enumerate_presheaves(S3, "*")) == 3
    assert len(enumerate_presheaves(fix2id.A, "*")) == 4


def test_enumerate_budget(fix2id, monkeypatch):
    monkeypatch.setenv("QFCA_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        enumerate_presheaves(fix2id.A, "*")


def test_enumerate_lexicographic(fix2id):
    ps = enumerate_presheaves(fix2id.A, "*")
    keys = [tuple(v.index for v in p.values) for p in ps]
    assert keys == sorted(keys)


def test_find_adjoints(fix2id, two):
    A = fix2id.A
    assert find_left_adjoint(identity_functor(A)) == identity_functor(A)
    assert find_right_adjoint(identity_functor(A)) == identity_functor(A)
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    space = materialize_presheaves(X)
    y = space.yoneda_functor()
    la = find_left_adjoint(y)
    assert la is not None
    for m in space.members:
        assert la(space.label_of(m)) == sup(X, m)
    # an isomorphism is self-adjoint; a collapsing map into the chain is not
    D = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    F = QFunctor(D, D, {"x": "y", "y": "x"})
    assert find_left_adjoint(F) == F
    assert find_right_adjoint(QFunctor(D, X, {"x": "u", "y": "u"})) is None



def test_pointwise_bounds_refuse_a_part_of_another_type(diag3):
    A = discrete_category(diag3, QTypedSet(("x", "y"), ("2", "2")))
    p = top_presheaf(A, "2")
    for bound in (presheaf_meet, presheaf_join):
        with pytest.raises(TypeMismatch):
            bound(A, "0", [p])


def _left_adjoint_by_ran(F):
    """The mapping of ran(F, 1) when that is a left adjoint of F, else None."""
    try:
        G = ran(F, identity_functor(F.dom))
    except ColimitMissing:
        return None
    assert_ran_identity(G, F, identity_functor(F.dom))
    return G.mapping if is_adjoint_functor_pair(G, F) else None


def test_find_left_adjoint_is_ran_when_adjoint(all_contexts, fix2id, two):
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    D = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")))
    functors = [canonical_general_data(ctx.phi, kind).R
                for ctx in all_contexts.values() for kind in ("fca", "rst")]
    functors += [identity_functor(fix2id.A), materialize_presheaves(X).yoneda_functor(),
                 QFunctor(D, D, {"x": "y", "y": "x"}), QFunctor(D, X, {"x": "u", "y": "u"})]
    found = []
    for F in functors:
        G = find_left_adjoint(F)
        assert (None if G is None else G.mapping) == _left_adjoint_by_ran(F), F
        if G is not None:
            assert (G.dom, G.cod) == (F.cod, F.dom)
        found.append(G is not None)
    assert any(found) and not all(found)

def test_coyoneda_adjoint_to_inf(two, luk3):
    # on a complete base, the co-Yoneda embedding has the infimum assignment
    # as its right-adjoint partner: coyoneda -| inf
    from qfca.qdist import is_adjoint_functor_pair

    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X2 = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    S3 = discrete_category(luk3, QTypedSet(("a",), ("*",)))
    for X in (X2, S3):
        assert is_complete(X)
        space = materialize_copresheaves(X)
        yd = space.yoneda_functor()
        inff = QFunctor(space.category, X,
                        {space.label_of(m): inf(X, m) for m in space.members},
                        name="inf")
        assert is_adjoint_functor_pair(yd, inff)
        assert all(weighted_limit(m, identity_functor(X)) == inf(X, m) for m in space.members)


def test_is_complete_obeys_the_budget_on_every_call(monkeypatch):
    # no verdict is kept, so neither a repeat call nor an equal category
    # can skip the capped enumeration
    path = pathlib.Path(__file__).parent.parent / "contexts" / "fix_dl3.json"
    A = load_document(str(path)).categories["A"]
    assert not is_complete(A)
    monkeypatch.setenv("QFCA_BUDGET", "1")
    for X in (A, QCategory(A.q, A.objects, A.types, A.hom, name=A.name)):
        with pytest.raises(BudgetExceeded):
            is_complete(X)


def test_supremum_least_label_tie_break(two):
    # two isomorphic objects: the witness is the one with the smaller label
    one = two.arrow("*", "*", "1")
    A = QCategory(two, ("zz", "aa"), ("*", "*"), [[one, one], [one, one]])
    assert sup(A, top_presheaf(A, "*")) == "aa"


def test_copresheaf_order_reversed(fixl3, luk3):
    pda = materialize_copresheaves(fixl3.A)
    order = underlying_order(pda.category)
    for m1 in pda.members:
        for m2 in pda.members:
            assert order.leq(pda.label_of(m1), pda.label_of(m2)) == pointwise_leq(m2, m1)
