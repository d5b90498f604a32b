"""Randomized law tests over generated contexts.

Contexts are drawn over discrete and non-discrete carriers of one or two
objects (every category structure ``_helpers.enumerate_categories`` yields,
with every typing) and over one-object quantales, two of them
noncommutative and not Girard, as well as the three-object
``frame-diagonal chain=3``; over ``two`` carriers have up to
three objects, enough for lattices with concepts that are meets of
generators but not generators.  The distributor is any valid one between
the drawn carriers.  The brute-force enumeration is the oracle for
the closure-built lattices, and a scan of the product of the homs, filtered
by the presheaf law, is the oracle for that enumeration, a join closure.
The enumeration and the row kernel behind every hom matrix are also tested
on closed non-discrete three-object carriers.  The ``Arrow`` closures are
the oracle for the closures on int codes that build them, the per-cell table
builder for the tables those codes are read through, the materialized
lattice category is the
oracle for the Hasse covers that serialization reads off the generators,
and the entrywise scans of ``_helpers`` are the oracles for the adjoint
maps, the (co)presheaf homs, the pointwise presheaf meets and joins and the
distributor calculus.  Labelling each value by ``Quantaloid.label`` is the
oracle for the printed form that (co)presheaf families keep and that
``lattice_to_json`` and ``qfca tr`` read.  The scan of ``weighted_colimit`` is
the oracle for the one supremum lookup, and ``presheaf_residual`` at each
(a, u) for the residual members read as codes.  The generator maps as functors
from discrete categories of arrow-tagged objects, ``_helpers.generator_functors``,
are the oracle for the four generator verdicts of the density suite.
"""

import copy
import functools
import itertools
import json
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import (
    all_copresheaf_vectors,
    chain4_quantale,
    dual_right_imp,
    elementary_oracle_grid,
    enumerate_categories,
    enumerate_distributors,
    generator_functors,
    isbell_down,
    isbell_up,
    kan_dag,
    kan_lower,
    kan_lower_dag,
    kan_star,
    member_of,
    oracle_bimodule_report,
    oracle_brute_force_fixed,
    oracle_copresheaf_hom,
    oracle_compose,
    oracle_copresheaf_law,
    oracle_enumerate,
    oracle_find_cyclic_dualizing_family,
    oracle_generators,
    oracle_isbell_down,
    oracle_is_complete,
    oracle_is_cyclic_family,
    oracle_join_dense,
    oracle_isbell_up,
    oracle_kan_dag,
    oracle_kan_lower,
    oracle_kan_lower_dag,
    oracle_kan_star,
    oracle_left,
    oracle_left_imp,
    oracle_presheaf_hom,
    oracle_presheaf_label,
    oracle_residuals,
    oracle_residuation_tables,
    oracle_right,
    oracle_right_imp,
    oracle_side_laws,
    oracle_tables,
    oracle_values,
    ordinal_quantaloid,
    pair_left,
    pair_right,
    pointwise_leq,
    presheaf_join,
    residual_closed_form_misses,
    scan_join,
    scan_meet,
    serialize_document,
    top_presheaf,
    weighted_colimit,
)
from qfca.quantaloid import (
    Quantaloid,
    build_preset,
    find_cyclic_dualizing_family,
    is_cyclic_family,
    validate_quantaloid,
)
from qfca.cli import ContextDocument, main
from qfca.errors import ColimitMissing
from qfca.qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    discrete_category,
    dualize_category,
    is_fully_faithful,
    underlying_order,
    validate_category,
)
from qfca.qdist import (
    QDistributor,
    dist_compose,
    dist_left_imp,
    dist_right_imp,
    graph,
    identity_dist,
    validate_distributor,
)
from qfca.presheaf import (
    Presheaf,
    _SetCode,
    _join_dense,
    _member_codes,
    _suprema,
    copresheaf_hom,
    enumerate_copresheaves,
    enumerate_presheaves,
    is_complete,
    is_dense,
    lan,
    materialize_copresheaves,
    materialize_presheaves,
    presheaf_hom,
    presheaf_label,
    presheaf_meet,
)
from qfca.concept import (
    IsbellPair,
    KanPair,
    _json_to_dot,
    _through,
    brute_force_fixed,
    fca_lattice,
    lattice_to_dot,
    lattice_to_json,
    residual_category,
    residual_context,
    rst_lattice,
    verify_rst_as_fca,
)
from qfca import represent
from qfca.represent import _elementary, verify_adjunction_laws, verify_density_suite

TWO = build_preset("two")
LUK3 = build_preset("lukasiewicz-chain", n=3)
GODEL3 = build_preset("godel-chain", n=3)
DIAG3 = build_preset("frame-diagonal", chain=3)
DIAG4, BOOL2 = build_preset("frame-diagonal", chain=4), build_preset("frame-diagonal", boolean=2)
ORD2 = ordinal_quantaloid()


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


def closed_category(data, Q, labels):
    """A category on ``labels``: drawn types and entries, each entry then raised
    by its unit and by the composites through every object until the laws hold."""
    n = len(labels)
    types = [data.draw(st.sampled_from(Q.objects), label="type") for _ in labels]
    hom = [[data.draw(st.sampled_from(Q.arrows(s, t)), label="entry") for t in types]
           for s in types]
    for x in range(n):
        hom[x][x] = Q.hom_join(types[x], types[x], [hom[x][x], Q.unit(types[x])])
    changed = True
    while changed:
        changed = False
        for x, y, z in itertools.product(range(n), repeat=3):
            joined = Q.hom_join(types[x], types[z], [hom[x][z], Q.compose(hom[y][z], hom[x][y])])
            changed |= joined != hom[x][z]
            hom[x][z] = joined
    return QCategory(Q, labels, types, hom)


def random_carrier(data, Q):
    """A category over Q: any structure ``enumerate_categories`` yields on one or
    two objects (three over ``two``), or a ``closed_category`` on three."""
    if data.draw(st.booleans(), label="closed"):
        return closed_category(data, Q, ("x", "y", "z"))
    n = data.draw(st.integers(1, 3 if Q is TWO else 2), label="size")
    labels = tuple(f"x{i}" for i in range(n))
    return data.draw(st.sampled_from(_categories(Q, labels)), label="category")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enumeration_matches_the_product_scan_randomized(data):
    # the join closure of the tensors gives every vector that passes the law, in
    # the scan's order; copresheaves are the presheaves of the dual
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    A = random_carrier(data, Q)
    for qobj in Q.objects:
        assert [mu.values for mu in enumerate_presheaves(A, qobj)] == oracle_enumerate(A, qobj)
        expected = [v for v in all_copresheaf_vectors(A, qobj) if oracle_copresheaf_law(A, v)]
        assert [lam.values for lam in enumerate_copresheaves(A, qobj)] == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hom_kernel_matches_the_scans_randomized(data):
    # every hom of both materialized spaces; then graph(F) <l graph(F), density and
    # full faithfulness of the (co)Yoneda functor and of a few drawn members.  ORD2's
    # homs (0, 1) and (1, 0) differ, so a hom read with its operands or its residual's
    # types swapped fails there
    Q = data.draw(st.sampled_from(QUANTALOIDS + [DIAG4, BOOL2, ORD2]), label="quantaloid")
    A = random_carrier(data, Q)
    for space, oracle in ((materialize_presheaves(A), oracle_presheaf_hom),
                          (materialize_copresheaves(A), oracle_copresheaf_hom)):
        X, members = space.category, space.members
        assert [list(row) for row in X.hom] == [[oracle(m, n) for n in members] for m in members]
        picked = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4),
                           label="members")
        D = discrete_category(Q, QTypedSet(tuple(f"d{i}" for i in range(len(picked))),
                                           tuple(m.type for m in picked)))
        for F in (space.yoneda_functor(), space.functor_from(D, [m.key() for m in picked])):
            g = graph(F)
            expected = oracle_left_imp(g, g)
            assert [list(row) for row in dist_left_imp(g, g).matrix] == expected
            assert is_dense(F) == (expected == [list(row) for row in X.hom])
            assert is_fully_faithful(F) == all(
                F.dom.hom_of(x, y) == X.hom_of(F(x), F(y))
                for x, y in itertools.product(F.dom.objects, repeat=2))


def test_is_complete_matches_the_enumeration_on_small_carriers():
    # every category on one or two objects over each quantaloid
    verdicts = [(is_complete(A), oracle_is_complete(A)) for Q in QUANTALOIDS
                for labels in (("x",), ("x", "y")) for A in _categories(Q, labels)]
    assert all(got == expected for got, expected in verdicts)
    assert (len(verdicts), sum(got for got, _ in verdicts)) == (88, 26)


def test_cyclic_verdicts_match_the_arrow_loop():
    # every endo-family of each quantaloid, and of the frame-diagonal chain=5 preset
    # that the benchmark searches
    verdicts = [(is_cyclic_family(Q, d), oracle_is_cyclic_family(Q, d))
                for Q in QUANTALOIDS + [build_preset("frame-diagonal", chain=5)]
                for d in (dict(zip(Q.objects, combo)) for combo in
                          itertools.product(*(Q.arrows(q, q) for q in Q.objects)))]
    assert all(got == expected for got, expected in verdicts)
    assert (len(verdicts), sum(got for got, _ in verdicts)) == (142, 22)


def _redrawn_residuations(Q, rnd):
    """A copy of ``Q`` with one to three entries of its residuation tables at
    endo-triples (p, q, p) redrawn within their homs: off the join formula, so
    the first cyclic family need not be the first family, nor exist."""
    R = copy.copy(Q)
    R.__dict__.pop("_opposite", None)
    R.limp_table, R.rimp_table = dict(Q.limp_table), dict(Q.rimp_table)
    for _ in range(rnd.randint(1, 3)):
        p, q = rnd.choice(Q.objects), rnd.choice(Q.objects)
        attr, size = rnd.choice([("limp_table", len(Q.hom(q, p))),
                                 ("rimp_table", len(Q.hom(p, q)))])
        rows = [list(row) for row in getattr(R, attr)[(p, q, p)]]
        rnd.choice(rows)[rnd.randrange(len(rows[0]))] = rnd.randrange(size)
        getattr(R, attr)[(p, q, p)] = tuple(map(tuple, rows))
    return R


def _listed_top_first(Q):
    """One-object ``Q`` with its elements listed in reverse: its first family
    is the top, which is cyclic but not dualizing."""
    hom, arrows = Q.hom("*", "*"), Q.arrows("*", "*")
    return build_preset(
        "commutative-quantale-from-table", elements=hom.elements[::-1],
        leq=[(hom.elements[i], hom.elements[j]) for i, j in hom.leq_pairs],
        products=[(Q.label(v), Q.label(u), Q.label(Q.compose(v, u)))
                  for v in arrows for u in arrows],
        unit=Q.label(Q.unit("*")))


FAMILY_CASES = QUANTALOIDS + [_listed_top_first(TWO), _listed_top_first(LUK3)] + [
    build_preset("frame-diagonal", **params)
    for params in ({"chain": 4}, {"chain": 5}, {"boolean": 2}, {"boolean": 3})]


def test_family_search_matches_the_per_family_search():
    # the search that decides each object pair once against the one that
    # decides each family whole: on each quantaloid, its opposite, and copies
    # with redrawn residuation entries
    rnd, kinds = random.Random(32), []
    for Q in FAMILY_CASES:
        for R in (Q, Q.opposite(), *(_redrawn_residuations(Q, rnd) for _ in range(16))):
            fam = find_cyclic_dualizing_family(R)
            assert fam == oracle_find_cyclic_dualizing_family(R), R.name
            first = fam is not None and all(a.index == 0 for _, a in fam.d)
            kinds.append("none" if fam is None else (fam.dualizing, first))
    # (dualizing, the first family): every outcome of the search occurs
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "none": 4, (True, True): 56, (True, False): 25, (False, True): 63, (False, False): 68}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_is_complete_matches_the_enumeration_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    A = closed_category(data, Q, ("x", "y", "z"))
    assert validate_category(A).ok
    assert is_complete(A) == oracle_is_complete(A)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_complete_matches_the_enumeration_on_multi_object_carriers_randomized(data):
    # rows coded over A^op, whose homs run from the row's type: over the
    # multi-object quantaloids a carrier, its (co)presheaf spaces, which are
    # complete, and each with one object dropped
    Q = data.draw(st.sampled_from([DIAG3, DIAG4, BOOL2, ORD2]), label="quantaloid")
    labels = ("x",) if data.draw(st.booleans(), label="one object") else ("x", "y")
    A = data.draw(st.sampled_from(_categories(Q, labels)), label="carrier")
    for X in (A, materialize_presheaves(A).category, materialize_copresheaves(A).category):
        drop = data.draw(st.sampled_from(X.objects), label="dropped")
        for Y in (X, X.full_subcategory([x for x in X.objects if x != drop])):
            assert is_complete(Y) == oracle_is_complete(Y), (Q.name, Y.objects)


def test_is_complete_matches_the_enumeration_over_asymmetric_homs():
    # the homs (0, 1) and (1, 0) of the ordinal quantaloid differ, as no preset's do,
    # so rows coded over A instead of A^op would read the wrong homs here
    verdicts = [(is_complete(X), oracle_is_complete(X)) for labels in (("x",), ("x", "y"))
                for A in _categories(ORD2, labels)
                for X in (A, materialize_presheaves(A).category,
                          materialize_copresheaves(A).category)]
    assert all(got == expected for got, expected in verdicts)
    assert (len(verdicts), sum(got for got, _ in verdicts)) == (42, 30)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_supremum_lookup_matches_the_colimit_scan_randomized(data):
    # every presheaf on a discrete domain as one batch of weights through
    # _suprema, against the scan per weight; colimits along F are often missing
    # there.  lan raises at the first point whose colimit the scan misses, and
    # otherwise sends each point where the scan does
    Q = data.draw(st.sampled_from(QUANTALOIDS + [DIAG4, BOOL2]), label="quantaloid")
    X = random_carrier(data, Q)
    images = data.draw(st.lists(st.sampled_from(X.objects), min_size=1, max_size=3),
                       label="images")
    D = discrete_category(Q, QTypedSet(tuple(f"d{i}" for i in range(len(images))),
                                       tuple(map(X.type_of, images))))
    F = QFunctor(D, X, dict(zip(D.objects, images)))
    K = QFunctor(D, X, {d: data.draw(st.sampled_from(
        [x for x in X.objects if X.type_of(x) == D.type_of(d)]), label="K") for d in D.objects})
    weights = [mu for qobj in Q.objects for mu in enumerate_presheaves(D, qobj)]
    assert list(_suprema(F, [(mu.type, mu.values) for mu in weights])) == \
        [weighted_colimit(mu, F) for mu in weights]
    expected = {b: weighted_colimit(Presheaf(D, t, column), F)
                for b, t, column in zip(X.objects, X.types, graph(K).columns)}
    missing = [b for b, c in expected.items() if c is None]
    if missing:
        with pytest.raises(ColimitMissing) as err:
            lan(K, F)
        assert err.value.point == missing[0]
    else:
        assert lan(K, F).mapping == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residual_category_matches_the_arrow_construction_randomized(data):
    # the residuals read off limp_table as codes, in runs of one type, against
    # presheaf_residual at each (a, u): members in the same order, their labels and
    # values, provenance and the Yoneda graph.  Over the frame-diagonal presets the
    # runs of different types interleave on most two-object carriers
    Q = data.draw(st.sampled_from(QUANTALOIDS + [DIAG4, BOOL2]), label="quantaloid")
    labels = ("x",) if data.draw(st.booleans(), label="one object") else ("x", "y")
    A = data.draw(st.sampled_from(_categories(Q, labels)), label="carrier")
    members, provenance = oracle_residuals(A)
    rc = residual_category(A)
    assert [p.key() for p in rc.members] == [p.key() for p in members]
    assert list(rc.labels) == [oracle_presheaf_label(p) for p in members]
    assert [dict(zip(A.objects, vs)) for vs in rc.value_labels] == \
        list(map(oracle_values, members))
    assert rc.provenance == provenance
    assert [list(row) for row in rc.yoneda_graph.matrix] == \
        [[p.values[i] for p in members] for i in range(len(A))]


def test_residual_runs_interleave_types_on_multi_object_carriers():
    # a run holds consecutive members of one type; on a two-object carrier over
    # frame-diagonal chain=4 a type's members come in more than one run
    carriers = _categories(DIAG4, ("x", "y"))
    runs = [[code.qobj for code, _ in residual_category(A).coded] for A in carriers]
    assert sum(len(set(types)) < len(types) for types in runs) == 56


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
                # the oracle closure reads no code table, which the two above share
                oracle = {p.key() for p in oracle_brute_force_fixed(phi, kind, qobj)}
                assert oracle == expected, (kind, qobj)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_family_maps_match_the_per_member_maps_randomized(data):
    # each pair's lefts, rights and closures on a whole space at once, and its one-row
    # left, right and closure, against the oracle maps one (co)presheaf at a time; the
    # Isbell right map reads a copresheaf's row and its dual presheaf's alike.  The
    # ordinal quantaloid's homs (0, 1) and (1, 0) differ, so a dual read from the
    # wrong hom shows there; the entries are drawn, since the maps are formulas
    Q = data.draw(st.sampled_from(QUANTALOIDS + [DIAG4, BOOL2, ORD2]), label="quantaloid")

    def carrier(side):
        n = data.draw(st.integers(1, 2), label=f"{side}-size")
        labels = tuple(f"{side}{i}" for i in range(n))
        return data.draw(st.sampled_from(_categories(Q, labels)), label=f"{side}-carrier")

    A, B = carrier("a"), carrier("b")
    phi = QDistributor(A, B, [[data.draw(st.sampled_from(Q.arrows(s, t)), label="entry")
                               for t in B.types] for s in A.types])
    for pair in (IsbellPair(phi), KanPair(phi)):
        for s in Q.objects:
            members = enumerate_presheaves(pair.base, s)
            if pair.kind == "fca":
                middle = enumerate_copresheaves(B, s)
                dual_rows = [mu.values for mu in enumerate_presheaves(dualize_category(B), s)]
            else:
                middle = enumerate_presheaves(A, s)
                dual_rows = [v.values for v in middle]
            lefts = [oracle_left(pair, mu) for mu in members]
            rights = [oracle_right(pair, v) for v in middle]
            closed = [oracle_right(pair, v).values for v in lefts]
            rows = [mu.values for mu in members]
            assert [tuple(r) for r in pair.lefts(s, rows)] == [v.values for v in lefts]
            assert [tuple(r) for r in pair.rights(s, [v.values for v in middle])] == \
                [tuple(r) for r in pair.rights(s, dual_rows)] == [v.values for v in rights]
            assert [tuple(r) for r in pair.closures(s, rows)] == closed
            assert [pair_left(pair, mu) for mu in members] == lefts
            assert [pair_right(pair, v) for v in middle] == rights
            assert [pair.closure(mu).values for mu in members] == closed
            assert brute_force_fixed(phi, pair.kind, s) == \
                oracle_brute_force_fixed(phi, pair.kind, s)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_value_rows_match_decode_randomized(data):
    # value_rows reads each position of all the codes at once and zips the
    # positions; decode reads one code.  Both must give the rows the codes were
    # packed from, on down-set and up-set layouts, plain and co; the empty base
    # gives empty rows.  A co layout on A has the rows, fields and top of the
    # plain one on A^op, and reads the same codes as the same indices in Q
    Q = data.draw(st.sampled_from(QUANTALOIDS + [DIAG4, BOOL2, ORD2]), label="quantaloid")
    n = data.draw(st.integers(1, 2), label="size")
    carriers = [_categories(Q, ()), _categories(Q, tuple(f"x{i}" for i in range(n)))]
    for A in (carriers[0][0], data.draw(st.sampled_from(carriers[1]), label="carrier")):
        for qobj, sets, co in itertools.product(Q.objects, ("down", "up"), (False, True)):
            code = _SetCode(A, qobj, sets, co)
            indices = data.draw(st.lists(st.tuples(*[st.integers(0, len(r) - 1)
                                                     for r in code.rows]), max_size=6),
                                label="indices")
            codes = [code.pack(ks) for ks in indices]
            rows = [tuple(Q.arrow_table[(qobj, t) if co else (t, qobj)][k]
                          for t, k in zip(A.types, ks)) for ks in indices]
            assert code.value_rows(codes) == [code.decode(c).values for c in codes] == rows
            if co:
                dual = _SetCode(dualize_category(A), qobj, sets)
                assert (code.rows, code.fields, code.top) == (dual.rows, dual.fields, dual.top)
                assert [Q.dual_arrows(r) for r in rows] == dual.value_rows(codes)


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
            assert pointwise_leq(pair_left(kan, pair_right(kan, mu)), mu)
        for lam in enumerate_presheaves(phi.cod, qobj):
            assert pointwise_leq(lam, kan.closure(lam))
            assert kan.closure(kan.closure(lam)) == kan.closure(lam)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coded_closures_match_arrow_closures_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    for pair in (IsbellPair(phi), KanPair(phi)):
        for qobj in Q.objects:
            code, close, generators, _ = pair.coded(qobj)
            assert code.decode(generators[0]) == top_presheaf(pair.base, qobj)
            assert [code.decode(g).values for g in generators[1:]] == \
                oracle_generators(phi, pair.kind, qobj), (pair.kind, qobj)
            for mu in enumerate_presheaves(pair.base, qobj):
                c = code.pack(v.index for v in mu.values)
                assert code.decode(c) == mu
                assert code.decode(close(c)) == oracle_right(pair, oracle_left(pair, mu)), \
                    (pair.kind, mu.values)
    # the Kan interior star . lower on up-set codes over A, read off the pair's
    # tables, and the member codes of each space
    kan = KanPair(phi)
    for qobj in Q.objects:
        star, mid, lower = kan.coded(qobj)[3]
        for A in (phi.dom, phi.cod):
            up, codes = _member_codes(A, qobj, f"presheaf space on {A.name}")
            members = enumerate_presheaves(A, qobj)
            assert len(set(codes)) == len(codes) == len(members)
            assert set(map(up.decode, codes)) == set(members), (A.name, qobj)
        up = _SetCode(phi.dom, qobj, "up")
        for mu in enumerate_presheaves(phi.dom, qobj):
            u = up.pack(v.index for v in mu.values)
            assert up.decode(_through(star, _through(lower, u, -1), mid.top)) == \
                oracle_left(kan, oracle_right(kan, mu)), (qobj, mu.values)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_coded_tables_match_the_per_cell_tables_randomized(data):
    # a table reads the matrix entry by entry, so any typed matrix will do; the
    # frame-diagonal presets have a bottom type whose homs have one element, and
    # ORD2's homs (0, 1) and (1, 0) differ, so a table that reads its line type
    # and its type across in swapped order meets a quantaloid where it matters
    Q = data.draw(st.sampled_from(QUANTALOIDS + [DIAG4, BOOL2, ORD2]), label="quantaloid")
    empty = discrete_category(Q, QTypedSet((), ()))
    side = data.draw(st.sampled_from(["none"] * 4 + ["dom", "cod"]), label="empty side")
    A = empty if side == "dom" else random_carrier(data, Q)
    B = empty if side == "cod" else random_carrier(data, Q)
    phi = QDistributor(A, B, [[data.draw(st.sampled_from(Q.arrows(s, t)), label="entry")
                               for t in B.types] for s in A.types])
    for pair in (IsbellPair(phi), KanPair(phi)):
        for qobj in Q.objects:
            left, _, right = pair.coded(qobj)[3]
            assert (left, right) == oracle_tables(pair, qobj), (pair.kind, qobj)


def corrupted_context(data):
    """A context over ``lukasiewicz-chain n=3`` with one drawn table entry
    replaced, on discrete carriers of one or two objects with drawn entries;
    the opposite quantaloid is first built from the corrupted tables."""
    Q = build_preset("lukasiewicz-chain", n=3)
    tables = getattr(Q, data.draw(st.sampled_from(["limp_table", "rimp_table", "compose_table"]),
                                  label="table"))
    rows = [list(row) for row in tables["*", "*", "*"]]
    w, x = data.draw(st.integers(0, 2), label="row"), data.draw(st.integers(0, 2), label="col")
    rows[w][x] = data.draw(st.integers(0, 2), label="entry")
    tables["*", "*", "*"] = tuple(map(tuple, rows))
    A, B = (discrete_category(Q, QTypedSet(tuple(f"{side}{i}" for i in range(n)), ("*",) * n),
                              name=side.upper())
            for side, n in (("a", data.draw(st.integers(1, 2), label="a-size")),
                            ("b", data.draw(st.integers(1, 2), label="b-size"))))
    values = st.sampled_from(Q.arrows("*", "*"))
    matrix = [[data.draw(values, label="value") for _ in B.objects] for _ in A.objects]
    return QDistributor(A, B, matrix, name="phi")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adjunction_laws_match_the_member_scan_randomized(data):
    # valid tables satisfy every law, so corrupted ones draw the failing verdicts;
    # the report is built once from the codes and once from the Arrow-map oracle
    if data.draw(st.booleans(), label="corrupted"):
        phi = corrupted_context(data)
    else:
        phi = random_context(data, data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid"))
    got = verify_adjunction_laws(phi).to_json()
    with mock.patch.object(represent, "_presheaf_side_laws", oracle_side_laws):
        assert got == verify_adjunction_laws(phi).to_json()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_density_suite_matches_the_generator_functors_randomized(data):
    # the four generator verdicts, read off the images, against the functors
    # from the discrete categories of arrow-tagged objects.  Each verdict holds
    # on every carrier (a theorem), so the space and the image that the suite
    # hands to _join_dense are compared too
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    n = data.draw(st.integers(1, 3 if Q is TWO else 2), label="size")
    labels = tuple(f"x{i}" for i in range(n))
    A = data.draw(st.sampled_from(_categories(Q, labels)), label="category")
    seen = []

    def recording(X, image):
        seen.append((X, set(image)))
        return _join_dense(X, image)

    with mock.patch.object(represent, "_join_dense", recording):
        report = verify_density_suite(A)
    pa, pda = materialize_presheaves(A), materialize_copresheaves(A)
    functors, density = generator_functors(A, pa, pda)
    P, Pd = pa.category, pda.category
    spaces = (P, dualize_category(P), dualize_category(Pd), Pd)
    assert seen == [(X, set(F.mapping.values())) for X, F in zip(spaces, functors.values())]
    assert [(c.name, c.passed) for c in report.conditions[3:]] == list(density.items())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_join_dense_matches_the_presheaf_join_witness_randomized(data):
    # on a carrier, which may be incomplete, and on its presheaf space and the dual
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    n = data.draw(st.integers(1, 3 if Q is TWO else 2), label="size")
    A = data.draw(st.sampled_from(_categories(Q, tuple(f"x{i}" for i in range(n)))),
                  label="category")
    P = materialize_presheaves(A).category
    for X in (A, P, dualize_category(P)):
        image = data.draw(st.sets(st.sampled_from(X.objects)), label="image")
        assert _join_dense(X, image) == oracle_join_dense(X, image), X.name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_elementary_grids_match_the_arrow_entries_randomized(data):
    phi = random_context(data, data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid"))
    for kind in ("fca", "rst"):
        d = _elementary(phi, kind)
        assert d.grid(phi, d.f_pairs, d.g_pairs) == elementary_oracle_grid(phi, kind), kind


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bimodule_law_matches_the_quadruple_scan_randomized(data):
    # a valid context and the same context with one entry replaced
    phi = random_context(data, data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid"))
    i = data.draw(st.integers(0, len(phi.dom) - 1), label="row")
    j = data.draw(st.integers(0, len(phi.cod) - 1), label="column")
    matrix = [list(row) for row in phi.matrix]
    matrix[i][j] = data.draw(st.sampled_from(phi.q.arrows(phi.dom.types[i], phi.cod.types[j])),
                             label="entry")
    for psi in (phi, QDistributor(phi.dom, phi.cod, matrix, name="changed")):
        assert validate_distributor(psi).to_json() == oracle_bimodule_report(psi).to_json()


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
def test_coded_print_path_matches_decoded_oracle_randomized(data):
    # lattice_to_json and lattice_to_dot read the concepts' codes and decode none;
    # the oracle decodes each member, labels it with presheaf_label and reads the
    # covers off the materialized lattice category
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    for compute in (fca_lattice, rst_lattice):
        lat = compute(phi)
        printed, dot = lattice_to_json(lat), lattice_to_dot(lat)
        assert not {"_members", "_labels", "category"} & lat.__dict__.keys()
        types = {}
        for qobj, members in lat.per_type().items():
            labels = [presheaf_label(p) for p in members]
            order = underlying_order(lat.category.full_subcategory(labels))
            types[qobj] = {"concepts": [{"label": label, "values": oracle_values(p)}
                                        for label, p in zip(labels, members)],
                           "hasse": [list(e) for e in order.hasse_edges()]}
        expected = {"kind": lat.kind, "context": phi.name, "types": types}
        assert printed == expected, lat.kind
        assert dot == _json_to_dot(expected), lat.kind
        assert list(lat.labels) == list(map(presheaf_label, lat.members))


def _oracle_form(members):
    return [(oracle_presheaf_label(p), oracle_values(p)) for p in members]


def _family_form(family):
    """Each member's label and values, as the family keeps them."""
    return [(label, dict(zip(family.base.objects, values)))
            for label, values in zip(family.labels, family.value_labels)]


def _tr_members(phi):
    """The residual members that ``qfca tr`` prints for phi, read from a context file."""
    A, B = (QCategory(C.q, C.objects, C.types, C.hom, name=name)
            for C, name in ((phi.dom, "A"), (phi.cod, "B")))
    doc = ContextDocument(phi.q, {}, {"A": A, "B": B},
                          {"phi": QDistributor(A, B, phi.matrix, name="phi")}, {})
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "phi.json"), os.path.join(tmp, "tr.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(serialize_document(doc), fh)
        assert main(["tr", path, "-o", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return [(m["label"], m["values"]) for m in json.load(fh)["residual_members"]]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_printed_form_matches_oracle_randomized(data):
    Q = data.draw(st.sampled_from(QUANTALOIDS), label="quantaloid")
    phi = random_context(data, Q)
    for compute in (fca_lattice, rst_lattice):
        lat = compute(phi)
        printed = [(c["label"], c["values"])
                   for part in lattice_to_json(lat)["types"].values() for c in part["concepts"]]
        assert printed == _oracle_form(p for ps in lat.per_type().values() for p in ps)
        assert _family_form(lat) == _oracle_form(lat.members)
    for space in (materialize_presheaves(phi.dom), materialize_copresheaves(phi.cod)):
        assert _family_form(space) == _oracle_form(space.members)
        assert all(member_of(space, space.label_of(m)) is m for m in space.members)
    rc = residual_category(phi.dom)
    assert _family_form(rc) == _oracle_form(rc.members)
    assert list(rc.category.objects) == list(rc.labels)
    assert _tr_members(phi) == _oracle_form(rc.members)


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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_right_imp_matches_both_oracles_randomized(data):
    # psi >r xi read off rimp_table, against the scans of right residuals and the
    # dual of xi^op <l psi^op, on carriers of up to two objects.  ORD2's homs
    # (0, 1) and (1, 0) differ, so a residual read from the wrong hom or triple
    # shows there; the entries are drawn, since the implication is a formula
    Q = data.draw(st.sampled_from(QUANTALOIDS + [DIAG4, BOOL2, ORD2]), label="quantaloid")

    def carrier(side):
        n = data.draw(st.integers(1, 2), label=f"{side}-size")
        labels = tuple(f"{side}{i}" for i in range(n))
        return data.draw(st.sampled_from(_categories(Q, labels)), label=f"{side}-carrier")

    def drawn(X, Y, name):
        return QDistributor(X, Y, [[data.draw(st.sampled_from(Q.arrows(s, t)), label=name)
                                    for t in Y.types] for s in X.types], name=name)

    A, B, C = carrier("a"), carrier("b"), carrier("c")
    psi, xi = drawn(B, C, "psi"), drawn(A, C, "xi")
    got = dist_right_imp(psi, xi)
    assert (got.dom, got.cod) == (A, B)
    assert [list(row) for row in got.matrix] == oracle_right_imp(psi, xi) == \
        dual_right_imp(psi, xi)


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


LUK16 = build_preset("lukasiewicz-chain", n=16)
DIAG_B2 = build_preset("frame-diagonal", boolean=2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residuation_tables_match_the_fused_pass_randomized(data):
    # up to four drawn composition entries are redrawn, so the tables are also
    # compared on composition tables that break the quantale laws, where the
    # v with v.u <= w need not form a principal down-set
    Q = data.draw(st.sampled_from(QUANTALOIDS + [LUK16, DIAG_B2]), label="quantaloid")
    compose = {key: [list(row) for row in rows] for key, rows in Q.compose_table.items()}
    for _ in range(data.draw(st.integers(1, 4), label="redrawn entries")):
        p, q, r = key = data.draw(st.sampled_from(sorted(compose)), label="triple")
        rows = compose[key]
        v = data.draw(st.integers(0, len(rows) - 1), label="v")
        u = data.draw(st.integers(0, len(rows[v]) - 1), label="u")
        rows[v][u] = data.draw(st.integers(0, len(Q.hom(p, r)) - 1), label="v.u")
    redrawn = Quantaloid(Q.objects, Q.homs, compose, Q.units, name="redrawn")
    for R in (Q, Q.opposite(), redrawn, redrawn.opposite()):
        assert (R.limp_table, R.rimp_table) == oracle_residuation_tables(R.homs, R.compose_table)
