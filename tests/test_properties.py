"""Randomized law tests over generated contexts.

Contexts are drawn over discrete and non-discrete carriers of one or two
objects (every category structure ``_helpers.enumerate_categories`` yields,
with every typing) and over one-object quantales, two of them
noncommutative and not Girard, as well as the three-object
``frame-diagonal chain=3``; over ``two`` carriers have up to
three objects, enough for lattices with concepts that are meets of
generators but not generators.  The distributor is any valid one between
the drawn carriers.  The brute-force enumeration is the oracle for
the closure-built lattices, the materialized lattice category is the
oracle for the Hasse covers that serialization reads from down-set codes,
and the entrywise scans of ``_helpers`` are the oracles for the adjoint
maps, the (co)presheaf homs, the pointwise presheaf meets and joins and the
distributor calculus.
"""

import functools

from hypothesis import given, settings, strategies as st

from _helpers import (
    all_copresheaf_vectors,
    enumerate_categories,
    enumerate_distributors,
    oracle_copresheaf_hom,
    oracle_compose,
    oracle_copresheaf_law,
    oracle_isbell_down,
    oracle_isbell_up,
    oracle_kan_dag,
    oracle_kan_lower,
    oracle_kan_lower_dag,
    oracle_kan_star,
    oracle_left_imp,
    oracle_presheaf_hom,
    residual_closed_form_misses,
    scan_join,
    scan_meet,
)
from qfca.quantaloid import (
    build_preset,
    find_cyclic_dualizing_family,
    validate_quantaloid,
)
from qfca.qcat import QTypedSet, discrete_category, underlying_order
from qfca.qdist import dist_compose, dist_left_imp, identity_dist
from qfca.presheaf import (
    Copresheaf,
    copresheaf_hom,
    copresheaf_law_ok,
    enumerate_copresheaves,
    enumerate_presheaves,
    pointwise_leq,
    presheaf_hom,
    presheaf_join,
    presheaf_meet,
)
from qfca.concept import (
    IsbellPair,
    KanPair,
    brute_force_fixed,
    fca_lattice,
    isbell_down,
    isbell_up,
    kan_dag,
    kan_lower,
    kan_lower_dag,
    kan_star,
    lattice_to_dot,
    lattice_to_json,
    residual_category,
    residual_context,
    rst_lattice,
    verify_rst_as_fca,
)

TWO = build_preset("two")
LUK3 = build_preset("lukasiewicz-chain", n=3)
GODEL3 = build_preset("godel-chain", n=3)
DIAG3 = build_preset("frame-diagonal", chain=3)


def chain4_quantale(ab, ba):
    """A unital quantale on the chain 0 < a < b < 1 with a.b and b.a given:
    0 absorbs, 1 is the unit, a.a = 0 and b.b = b."""
    el = ["0", "a", "b", "1"]
    table = {("a", "a"): "0", ("b", "b"): "b", ("a", "b"): ab, ("b", "a"): ba}
    products = [(x, y, "0" if "0" in (x, y) else y if x == "1" else x if y == "1"
                 else table[x, y]) for x in el for y in el]
    return build_preset("commutative-quantale-from-table", elements=el,
                        leq=list(zip(el, el[1:])), products=products, unit="1")


# noncommutative and not Girard: only the residual route reaches their RST lattices
NC_AB, NC_BA = chain4_quantale("0", "a"), chain4_quantale("a", "0")
QUANTALOIDS = [TWO, LUK3, GODEL3, DIAG3, NC_AB, NC_BA]


@functools.cache
def _categories(Q, labels):
    return tuple(enumerate_categories(Q, labels))


@functools.cache
def _distributors(A, B):
    return tuple(enumerate_distributors(A, B))


def random_context(data, Q):
    cats = {}
    for side in ("a", "b"):
        n = data.draw(st.integers(1, 3 if Q is TWO else 2), label=f"{side}-size")
        labels = tuple(f"{side}{i}" for i in range(n))
        cats[side] = data.draw(st.sampled_from(_categories(Q, labels)), label=f"{side}-category")
    return data.draw(st.sampled_from(_distributors(cats["a"], cats["b"])), label="context")


def classical_context(data):
    """A relation between discrete 3-object carriers over ``two``.

    Over half of the 512 have a concept that is a meet of generators but
    not itself a generator, which valid contexts on the preorders that
    ``random_context`` draws rarely have.
    """
    A, B = (discrete_category(TWO, QTypedSet(tuple(f"{side}{i}" for i in range(3)), ("*",) * 3))
            for side in "ab")
    return data.draw(st.sampled_from(_distributors(A, B)), label="classical-context")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lattices_match_brute_force_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    for phi in (random_context(data, Q), classical_context(data)):
        for kind, compute in (("fca", fca_lattice), ("rst", rst_lattice)):
            per_type = compute(phi).per_type()
            for qobj in phi.q.objects:
                expected = {p.key() for p in brute_force_fixed(phi, kind, qobj)}
                assert {p.key() for p in per_type[qobj]} == expected, (kind, qobj)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rst_is_fca_of_residual_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    assert verify_rst_as_fca(phi).passed
    rc = residual_category(phi.dom)
    assert residual_closed_form_misses(phi, rc, residual_context(phi, rc)) == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_laws_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    isb, kan = IsbellPair(phi), KanPair(phi)
    for qobj in Q.objects:
        for mu in enumerate_presheaves(phi.dom, qobj):
            assert pointwise_leq(mu, isb.closure(mu))
            assert isb.closure(isb.closure(mu)) == isb.closure(mu)
            assert pointwise_leq(kan.interior(mu), mu)
        for lam in enumerate_presheaves(phi.cod, qobj):
            assert pointwise_leq(lam, kan.closure(lam))
            assert kan.closure(kan.closure(lam)) == kan.closure(lam)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mask_covers_match_lattice_category_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    for compute in (fca_lattice, rst_lattice):
        lat = compute(phi)
        types = lattice_to_json(lat)["types"]
        lattice_to_dot(lat)
        assert "category" not in lat.__dict__
        for qobj, ps in lat.per_type().items():
            sub = lat.category.full_subcategory([lat.label_of(p) for p in ps])
            expected = [list(e) for e in underlying_order(sub).hasse_edges()]
            assert types[qobj]["hasse"] == expected, (lat.kind, qobj)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_copresheaf_half_matches_oracle_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    A, B = phi.dom, phi.cod
    for qobj in Q.objects:
        spaces = {}
        for C in (A, B):
            vectors = list(all_copresheaf_vectors(C, qobj))
            for values in vectors:
                assert copresheaf_law_ok(Copresheaf(C, qobj, values)) == \
                    oracle_copresheaf_law(C, values)
            expected = [v for v in vectors if oracle_copresheaf_law(C, v)]
            spaces[C] = enumerate_copresheaves(C, qobj)
            assert [lam.values for lam in spaces[C]] == expected
            assert all(lam.base is C and lam.type == qobj for lam in spaces[C])
        for lam in spaces[B]:
            assert isbell_down(phi, lam).values == oracle_isbell_down(phi, lam)
            assert kan_lower_dag(phi, lam).values == oracle_kan_lower_dag(phi, lam)
        for mu in spaces[A]:
            assert kan_dag(phi, mu).values == oracle_kan_dag(phi, mu)
        for kap_type in Q.objects:
            others = enumerate_copresheaves(A, kap_type)
            for lam in spaces[A]:
                for kap in others:
                    assert copresheaf_hom(lam, kap) == oracle_copresheaf_hom(lam, kap)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_presheaf_half_matches_oracle_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    A, B = phi.dom, phi.cod
    spaces = {(C, qobj): enumerate_presheaves(C, qobj) for C in (A, B) for qobj in Q.objects}
    for (C, qobj), space in spaces.items():
        for mu in space:
            if C is A:
                assert isbell_up(phi, mu).values == oracle_isbell_up(phi, mu)
                assert kan_lower(phi, mu).values == oracle_kan_lower(phi, mu)
            else:
                assert kan_star(phi, mu).values == oracle_kan_star(phi, mu)
            for nu_type in Q.objects:
                for nu in spaces[C, nu_type]:
                    assert presheaf_hom(mu, nu) == oracle_presheaf_hom(mu, nu)
    phi_phi = dist_left_imp(phi, phi)
    back = dist_left_imp(identity_dist(A), phi)
    for xi, psi in ((phi, phi), (identity_dist(A), phi), (identity_dist(B), identity_dist(B))):
        assert [list(r) for r in dist_left_imp(xi, psi).matrix] == oracle_left_imp(xi, psi)
    for psi, chi in ((phi_phi, phi), (back, phi), (phi, back), (phi, identity_dist(A))):
        assert [list(r) for r in dist_compose(psi, chi).matrix] == oracle_compose(psi, chi)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_presheaf_bounds_match_scans_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    for C in (phi.dom, phi.cod):
        for qobj in Q.objects:
            space = enumerate_presheaves(C, qobj)
            for parts in ([], *([p] for p in space), list(space)):
                for bound, scan in ((presheaf_meet, scan_meet), (presheaf_join, scan_join)):
                    got = bound(C, qobj, parts)
                    assert got.base is C and got.type == qobj
                    assert [v.index for v in got.values] == [
                        scan(Q, t, qobj, [p.values[i].index for p in parts])
                        for i, t in enumerate(C.types)], (bound.__name__, len(parts))


def test_noncommutative_quantales_are_not_girard():
    for Q in (NC_AB, NC_BA):
        a, b = Q.arrow("*", "*", "a"), Q.arrow("*", "*", "b")
        assert Q.compose(a, b) != Q.compose(b, a)
        assert validate_quantaloid(Q).ok
        fam = find_cyclic_dualizing_family(Q)
        assert fam is not None and fam.cyclic and not fam.dualizing
