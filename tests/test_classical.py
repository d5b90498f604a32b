"""Reductions over the two-element quantaloid against powerset oracles.

Over the Boolean quantaloid the machinery must collapse to classical formal
concept analysis and rough set theory: presheaves on a discrete base are
subsets, the polarity is the derivation operator pair, and the extension
closure is the object-oriented one.  A 3x3 crisp context is checked end to
end against independent powerset computations.
"""


import pytest

from qfca.qcat import QTypedSet, discrete_category, underlying_order
from qfca.qdist import QDistributor
from qfca.presheaf import materialize_copresheaves, materialize_presheaves, yoneda
from qfca.concept import (
    IsbellPair,
    KanPair,
    complement_context,
    fca_lattice,
    rst_lattice,
)
from qfca.represent import (
    canonical_dense_data,
    canonical_general_data,
    verify_dense_representation,
    verify_type_preserving_representation,
)
from qfca.quantaloid import find_cyclic_dualizing_family

from _helpers import (
    classical_fca_extents,
    classical_rst_fixed,
    failed_names,
    image_join_dense,
    image_meet_dense,
    isbell_down,
    member_of,
    presheaf_to_subset,
)

OBJS = ("a1", "a2", "a3")
ATTRS = ("b1", "b2", "b3")
REL = frozenset({("a1", "b1"), ("a1", "b2"), ("a2", "b2"), ("a3", "b3")})


@pytest.fixture(scope="module")
def crisp(two):
    A = discrete_category(two, QTypedSet(OBJS, ("*",) * 3), name="objs")
    B = discrete_category(two, QTypedSet(ATTRS, ("*",) * 3), name="attrs")
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    phi = QDistributor(A, B, [[one if (a, b) in REL else zero for b in ATTRS]
                              for a in OBJS], name="crisp3x3")
    return A, B, phi


def test_extents_match_powerset_oracle(two, crisp):
    A, B, phi = crisp
    lattice = fca_lattice(phi)
    got = {presheaf_to_subset(two, p) for p in lattice.concepts}
    assert got == classical_fca_extents(REL, OBJS, ATTRS)


def test_rst_fixed_sets_match_powerset_oracle(two, crisp):
    A, B, phi = crisp
    lattice = rst_lattice(phi)
    got = {presheaf_to_subset(two, p) for p in lattice.concepts}
    assert got == classical_rst_fixed(REL, OBJS, ATTRS)


def test_concept_order_is_inclusion(two, crisp):
    A, B, phi = crisp
    lattice = fca_lattice(phi)
    order = underlying_order(lattice.category)
    for p in lattice.concepts:
        for p2 in lattice.concepts:
            assert order.leq(lattice.label_of(p), lattice.label_of(p2)) == \
                (presheaf_to_subset(two, p) <= presheaf_to_subset(two, p2))


def test_theorem_1_1_galois_connection(two, crisp):
    # the poset form: surjective maps with s(c) <= d iff l(c) <= r(d)
    A, B, phi = crisp
    d = canonical_general_data(phi, "fca")
    report = verify_type_preserving_representation(
        d.adj.S, d.adj.T, dict(d.L.mapping), dict(d.R.mapping), d.X)
    assert report.passed, failed_names(report)
    # the hom identity over the Boolean quantaloid is exactly the classical
    # biconditional, checked here independently on the underlying orders
    Dord = underlying_order(d.adj.D_space.category)
    Xord = underlying_order(d.X)
    for c in d.adj.C_space.category.objects:
        for dd in d.adj.D_space.category.objects:
            lhs = Dord.leq(d.adj.S(c), dd)
            rhs = Xord.leq(d.L(c), d.R(dd))
            assert lhs == rhs


def test_theorem_1_2_dense_form(two, crisp):
    # complete-lattice form with singleton-map generators
    A, B, phi = crisp
    d, F, K, G, H = canonical_dense_data(phi, "fca")
    # over the Boolean quantaloid the Yoneda generator is the singleton map
    for a in A.objects:
        assert presheaf_to_subset(two, member_of(d.adj.C_space, K(a))) == {a}
    report = verify_dense_representation(d.adj.S, d.adj.T, F, K, G, H, d.X)
    assert report.passed, failed_names(report)
    Dord = underlying_order(d.adj.D_space.category)
    Xord = underlying_order(d.X)
    for a in A.objects:
        for b in B.objects:
            assert Dord.leq(d.adj.S(K(a)), H(b)) == Xord.leq(F(a), G(b))


def test_theorem_1_3_fca_fundamental(two, crisp):
    A, B, phi = crisp
    lattice = fca_lattice(phi)
    X = lattice.category
    pair = IsbellPair(phi)
    f = {a: lattice.label_of(pair.closure(yoneda(A, a))) for a in A.objects}
    from qfca.presheaf import coyoneda
    g = {b: lattice.label_of(isbell_down(phi, coyoneda(B, b))) for b in B.objects}
    assert image_join_dense(X, set(f.values()))
    assert image_meet_dense(X, set(g.values()))
    order = underlying_order(X)
    for a in A.objects:
        for b in B.objects:
            assert ((a, b) in REL) == order.leq(f[a], g[b])


def test_theorem_1_4_rst_fundamental(two, crisp):
    A, B, phi = crisp
    fam = find_cyclic_dualizing_family(two)
    neg = complement_context(phi, fam)
    latK = rst_lattice(phi)
    latM = fca_lattice(neg)
    assert {p.key() for p in latK.concepts} == {p.key() for p in latM.concepts}
    X = latK.category
    pair = KanPair(phi)
    f = {b: latK.label_of(pair.closure(yoneda(B, b))) for b in B.objects}
    from qfca.presheaf import coyoneda
    g = {a: latK.label_of(isbell_down(neg, coyoneda(A, a))) for a in A.objects}
    assert image_join_dense(X, set(f.values()))
    assert image_meet_dense(X, set(g.values()))
    order = underlying_order(X)
    for b in B.objects:
        for a in A.objects:
            assert ((a, b) not in REL) == order.leq(f[b], g[a])


def test_powerset_categories_are_the_materialized_spaces(two, crisp):
    # sanity for the reductions above: presheaves on the discrete carrier are
    # exactly the subsets, with pointwise order the inclusion order
    A, _, _ = crisp
    space = materialize_presheaves(A)
    subsets = {presheaf_to_subset(two, m) for m in space.members}
    assert len(subsets) == 2 ** len(A)
    dual = materialize_copresheaves(A)
    order = underlying_order(dual.category)
    for m1 in dual.members:
        for m2 in dual.members:
            s1 = frozenset(x for x, v in zip(A.objects, m1.values)
                           if v == two.arrow("*", "*", "1"))
            s2 = frozenset(x for x, v in zip(A.objects, m2.values)
                           if v == two.arrow("*", "*", "1"))
            # the copresheaf order is reversed inclusion
            assert order.leq(dual.label_of(m1), dual.label_of(m2)) == (s2 <= s1)
