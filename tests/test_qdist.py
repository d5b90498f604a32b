import itertools


import pytest

from qfca import qdist
from qfca.errors import QfcaError, TypeMismatch
from qfca.qcat import QFunctor, QTypedSet, discrete_category, identity_functor
from qfca.qdist import (
    QDistributor,
    cograph,
    dist_compose,
    dist_left_imp,
    dist_right_imp,
    graph,
    identity_dist,
    is_adjoint_functor_pair,
    validate_distributor,
)
from qfca.presheaf import materialize_presheaves
from qfca.concept import fca_lattice, residual_category, residual_context, rst_lattice
from qfca.quantaloid import build_preset

from _helpers import (
    ChuTransform,
    adjoint_arrow_identities_suite,
    distributor_leq,
    dual_right_imp,
    enumerate_categories,
    enumerate_distributors,
    functor_leq,
    oracle_bimodule_report,
    oracle_compose,
    oracle_right_imp,
    sup,
    top_presheaf,
    validate_chu,
)


def test_compose_unit_law(fix2id):
    phi = fix2id.phi
    assert dist_compose(phi, identity_dist(fix2id.A)) == phi
    assert dist_compose(identity_dist(fix2id.B), phi) == phi


def test_compose_two_object_example(two):
    A = discrete_category(two, QTypedSet(("a",), ("*",)))
    B = discrete_category(two, QTypedSet(("b1", "b2"), ("*", "*")))
    C = discrete_category(two, QTypedSet(("c",), ("*",)))
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    phi = QDistributor(A, B, [[one, zero]])
    psi = QDistributor(B, C, [[zero], [one]])
    assert dist_compose(psi, phi).at("a", "c") == zero


def test_compose_matches_oracle(fixl3, fixdl3):
    for ctx in (fixl3, fixdl3):
        phi = ctx.phi
        flip = QDistributor(ctx.B, ctx.A,
                            [[phi.matrix[i][j] for i in range(len(ctx.A))]
                             for j in range(len(ctx.B))]) if _flippable(ctx) else None
        if flip is not None and validate_distributor(flip).ok:
            got = dist_compose(flip, phi)
            assert [list(r) for r in got.matrix] == oracle_compose(flip, phi)
        got = dist_compose(identity_dist(ctx.B), phi)
        assert [list(r) for r in got.matrix] == oracle_compose(identity_dist(ctx.B), phi)


def _flippable(ctx):
    return all(t == ctx.A.types[0] for t in list(ctx.A.types) + list(ctx.B.types))


def test_left_imp_unit(fix2id):
    phi = fix2id.phi
    assert dist_left_imp(phi, identity_dist(fix2id.A)) == phi


def test_residuation_adjunction_small(two, luk3):
    # psi . phi <= xi  iff  psi <= xi <l phi, by exhausting psi at tiny scale
    for Q in (two, luk3):
        A = discrete_category(Q, QTypedSet(("a",), ("*",)))
        B = discrete_category(Q, QTypedSet(("b",), ("*",)))
        C = discrete_category(Q, QTypedSet(("c",), ("*",)))
        for phi in enumerate_distributors(A, B):
            for xi in enumerate_distributors(A, C):
                limp = dist_left_imp(xi, phi)
                assert validate_distributor(limp).ok
                for psi in enumerate_distributors(B, C):
                    assert distributor_leq(dist_compose(psi, phi), xi) == distributor_leq(psi, limp)


def test_right_imp_outputs_valid(fixdl3):
    xi = fixdl3.phi
    rimp = dist_right_imp(identity_dist(fixdl3.B), xi)
    assert validate_distributor(rimp).ok


def test_right_imp_residuation_small(two, luk3):
    # psi . phi <= xi  iff  phi <= psi >r xi, by exhausting phi at tiny scale
    for Q in (two, luk3):
        A = discrete_category(Q, QTypedSet(("a",), ("*",)))
        B = discrete_category(Q, QTypedSet(("b",), ("*",)))
        C = discrete_category(Q, QTypedSet(("c",), ("*",)))
        for psi in enumerate_distributors(B, C):
            for xi in enumerate_distributors(A, C):
                rimp = dist_right_imp(psi, xi)
                assert validate_distributor(rimp).ok
                for phi in enumerate_distributors(A, B):
                    assert distributor_leq(dist_compose(psi, phi), xi) == distributor_leq(phi, rimp)


def test_right_imp_matches_both_oracles_on_the_fixtures(all_contexts):
    # read off rimp_table, against the scans and against the dual of a left
    # implication, on each context with the identity, itself and phi <l phi
    for name, ctx in all_contexts.items():
        phi = ctx.phi
        for psi, xi in ((identity_dist(ctx.B), phi), (phi, phi), (dist_left_imp(phi, phi), phi)):
            got = [list(row) for row in dist_right_imp(psi, xi).matrix]
            assert got == oracle_right_imp(psi, xi) == dual_right_imp(psi, xi), name


def test_the_constructor_refuses_a_mistyped_entry(fixdl3):
    # an entry from a wrong hom in every position, and a wrong shape
    phi, q = fixdl3.phi, fixdl3.phi.q
    for i, j in itertools.product(range(len(phi.dom)), range(len(phi.cod))):
        matrix = [list(row) for row in phi.matrix]
        s, t = phi.dom.types[i], phi.cod.types[j]
        wrong = next(p for p in q.objects if p != t)
        matrix[i][j] = q.top(s, wrong)
        with pytest.raises(TypeMismatch, match=rf"^entry \({phi.dom.objects[i]},"
                                               rf"{phi.cod.objects[j]}\) is "):
            QDistributor(phi.dom, phi.cod, matrix)
    with pytest.raises(TypeMismatch, match="wrong shape"):
        QDistributor(phi.dom, phi.cod, phi.matrix[1:])


def test_a_derived_distributor_equals_the_checked_one(all_contexts):
    for ctx in all_contexts.values():
        phi = ctx.phi
        results = (dist_left_imp(phi, phi), dist_right_imp(phi, phi),
                   dist_compose(identity_dist(ctx.B), phi), qdist._dual_distributor(phi),
                   residual_category(ctx.A).yoneda_graph)
        for derived in results:
            checked = QDistributor(derived.dom, derived.cod, derived.matrix, name=derived.name)
            assert derived == checked and hash(derived) == hash(checked)
        derived = QDistributor._derived(phi.dom, phi.cod, [list(r) for r in phi.matrix], "")
        assert derived == phi and hash(derived) == hash(phi) and derived.name == "distributor"


def test_a_valid_distributor_keeps_its_verdict_and_an_invalid_one_none(fixdl3, monkeypatch):
    scans, scan = [], qdist._bimodule_law
    monkeypatch.setattr(qdist, "_bimodule_law",
                        lambda phi, report: scans.append(phi.name) or scan(phi, report))
    q, A, B = fixdl3.phi.q, fixdl3.A, fixdl3.B
    phi = QDistributor(A, B, fixdl3.phi.matrix, name="phi")
    reports = [validate_distributor(phi) for _ in range(3)]
    assert scans == ["phi"] and vars(phi)["_valid"] is True
    # a new report each call, equal to the first
    assert len(set(map(id, reports))) == 3
    assert [r.to_json() for r in reports] == [oracle_bimodule_report(phi).to_json()] * 3
    residual_context(phi)
    assert scans == ["phi"]
    # a distributor that fails keeps nothing, and is checked and refused on every
    # call: phi with its entry (x, p) lowered from 1 to 0 breaks the bimodule law
    matrix = [list(row) for row in phi.matrix]
    matrix[A.index("x")][B.index("p")] = q.arrow(A.type_of("x"), B.type_of("p"), "0")
    bad = QDistributor(A, B, matrix, name="lowered")
    for n in range(1, 3):
        report = validate_distributor(bad)
        assert not report.ok and report.to_json() == oracle_bimodule_report(bad).to_json()
        with pytest.raises(QfcaError, match=r"^distributor lowered: distributor\.bimodule at "):
            residual_context(bad)
        assert scans == ["phi"] + ["lowered"] * 2 * n and "_valid" not in vars(bad)


def test_bimodule_law_matches_the_quadruple_scan_on_single_entry_changes(fixdl3, luk3):
    # every replacement of one entry of a context over three objects, and of the
    # identity distributor of each two-object category over lukasiewicz-chain n=3
    failing = 0
    identities = [identity_dist(A) for A in enumerate_categories(luk3, ("x", "y"))]
    for phi in (fixdl3.phi, *identities):
        for i, j in itertools.product(range(len(phi.dom)), range(len(phi.cod))):
            for a in phi.q.arrows(phi.dom.types[i], phi.cod.types[j]):
                matrix = [list(row) for row in phi.matrix]
                matrix[i][j] = a
                psi = QDistributor(phi.dom, phi.cod, matrix, name="changed")
                got = validate_distributor(psi)
                assert got.to_json() == oracle_bimodule_report(psi).to_json(), (i, j, a)
                failing += not got.ok
    assert failing == 29  # 3 on fixdl3, 26 on the identities


def test_identity_dist(fix2id, fixdl3):
    D = identity_dist(fix2id.A)
    assert D.at("a1", "a1") == fix2id.A.q.unit("*")
    assert dist_compose(D, D) == D
    assert validate_distributor(identity_dist(fixdl3.A)).ok


def test_graph_cograph(fix2id):
    A = fix2id.A
    i = identity_functor(A)
    assert graph(i) == identity_dist(A)
    space = materialize_presheaves(A)
    y = space.yoneda_functor()
    gy, cy = graph(y), cograph(y)
    assert distributor_leq(identity_dist(A), dist_compose(cy, gy))
    # fully faithful: the unit inequality is an equality
    assert dist_compose(cy, gy) == identity_dist(A)
    assert distributor_leq(dist_compose(gy, cy), identity_dist(space.category))


def test_graph_monotonicity(two):
    one = two.arrow("*", "*", "1")
    zero = two.arrow("*", "*", "0")
    from qfca.qcat import QCategory
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    A = discrete_category(two, QTypedSet(("x",), ("*",)))
    F = QFunctor(A, X, {"x": "u"})
    G = QFunctor(A, X, {"x": "v"})
    assert functor_leq(F, G)
    assert distributor_leq(graph(G), graph(F)) and not distributor_leq(graph(F), graph(G))
    assert distributor_leq(cograph(F), cograph(G)) and not distributor_leq(cograph(G), cograph(F))


def test_adjoint_functor_pair(two):
    from qfca.qcat import QCategory
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]], name="chain2")
    assert is_adjoint_functor_pair(identity_functor(X), identity_functor(X))
    space = materialize_presheaves(X)
    supf = QFunctor(space.category, X,
                    {space.label_of(m): sup(X, m) for m in space.members}, name="sup")
    y = space.yoneda_functor()
    assert is_adjoint_functor_pair(supf, y)
    assert not is_adjoint_functor_pair(y, supf)


def test_validate_chu(fix2id):
    phi = fix2id.phi
    ident = ChuTransform(phi, phi, identity_functor(fix2id.A), identity_functor(fix2id.B))
    assert validate_chu(ident).ok
    swap = ChuTransform(phi, phi,
                        QFunctor(fix2id.A, fix2id.A, {"a1": "a2", "a2": "a1"}),
                        QFunctor(fix2id.B, fix2id.B, {"b1": "b2", "b2": "b1"}))
    assert validate_chu(swap).ok
    bad = ChuTransform(phi, phi,
                       QFunctor(fix2id.A, fix2id.A, {"a1": "a2", "a2": "a1"}),
                       identity_functor(fix2id.B))
    report = validate_chu(bad)
    assert not report.ok and report.issues[0].where == ("a1", "b1")


def test_adjoint_arrow_identities(fix2id, fixdl3):
    # identity functor: the identities collapse to residuation tautologies
    A = fix2id.A
    suite = adjoint_arrow_identities_suite(identity_functor(A),
                                           identity_dist(A), identity_dist(A))
    assert suite.ok
    # Yoneda instance
    space = materialize_presheaves(A)
    y = space.yoneda_functor()
    assert adjoint_arrow_identities_suite(y, cograph(y), graph(y)).ok
    # multi-typed instance
    spaced = materialize_presheaves(fixdl3.A)
    yd = spaced.yoneda_functor()
    assert adjoint_arrow_identities_suite(yd, cograph(yd), graph(yd)).ok


def test_qdist_laws_desk_scale(two):
    # associativity and unit of distributor composition over exhaustive tiny data
    A = discrete_category(two, QTypedSet(("a",), ("*",)))
    B = discrete_category(two, QTypedSet(("b1", "b2"), ("*", "*")))
    C = discrete_category(two, QTypedSet(("c",), ("*",)))
    for phi in enumerate_distributors(A, B):
        assert dist_compose(phi, identity_dist(A)) == phi
        for psi in enumerate_distributors(B, C):
            for xi in enumerate_distributors(C, B):
                lhs = dist_compose(xi, dist_compose(psi, phi))
                rhs = dist_compose(dist_compose(xi, psi), phi)
                assert lhs == rhs


def test_shape_errors(fix2id, fixl3):
    with pytest.raises(TypeMismatch):
        dist_compose(fix2id.phi, fix2id.phi)
    with pytest.raises(TypeMismatch):
        distributor_leq(fix2id.phi, fixl3.phi)


def test_empty_carriers():
    Q = build_preset("frame-diagonal", chain=2)
    full = discrete_category(Q, QTypedSet(("x0", "x1"), ("0", "1")), name="X")
    empty = discrete_category(Q, QTypedSet((), ()), name="E")
    for phi in (QDistributor(empty, full, [], name="no-rows"),
                QDistributor(full, empty, [[], []], name="no-columns")):
        A, B = phi.dom, phi.cod
        for lattice, base in ((fca_lattice(phi), A), (rst_lattice(phi), B)):
            assert {t: [p.values for p in ps] for t, ps in lattice.per_type().items()} == \
                {t: [top_presheaf(base, t).values] for t in Q.objects}
        back = dist_left_imp(identity_dist(A), phi)
        assert (back.dom, back.cod) == (B, A) and len(back.matrix) == len(B)
        assert all(row == () for row in back.matrix)
        tops = tuple(tuple(Q.top(s, t) for t in B.types) for s in B.types)
        assert dist_left_imp(phi, phi).matrix == (tops if len(A) == 0 else ())
        # the right implication meets over the codomain: the top where it is empty
        tops = tuple(tuple(Q.top(s, t) for t in A.types) for s in A.types)
        assert dist_right_imp(phi, phi).matrix == (tops if len(B) == 0 else ())
        for psi, xi in ((phi, phi), (identity_dist(B), phi)):
            got = [list(row) for row in dist_right_imp(psi, xi).matrix]
            assert got == oracle_right_imp(psi, xi) == dual_right_imp(psi, xi)
        assert dist_compose(phi, identity_dist(A)) == phi
        assert dist_compose(identity_dist(B), phi) == phi
        # composing through the empty side makes every entry an empty join
        through = dist_compose(phi, back) if len(A) == 0 else dist_compose(back, phi)
        assert through.matrix == tuple(tuple(Q.bottom(s, t) for t in through.cod.types)
                                       for s in through.dom.types)
