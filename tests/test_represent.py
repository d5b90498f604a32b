import pathlib
import random
import sys

import pytest

import qfca
from qfca.cli import load_valid_document
from qfca.errors import BudgetExceeded, NotAQuantale
from qfca.qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    compose_functors,
    discrete_category,
    dualize_category,
    identity_functor,
    singleton_category,
)
from qfca.qdist import (
    QDistributor,
    cograph,
    dist_compose,
    graph,
    identity_dist,
    validate_distributor,
)
from qfca.presheaf import _join_dense, materialize_copresheaves, materialize_presheaves, yoneda
from qfca.concept import (
    brute_force_fixed,
    fca_lattice,
    residual_category,
    verify_rst_as_fca,
    verify_rst_as_fca_complement,
)
from qfca.represent import (
    canonical_adjunction,
    canonical_dense_data,
    canonical_elementary_data,
    canonical_fca_data,
    canonical_general_data,
    canonical_rst_data,
    cod_pairs,
    dom_pairs,
    fix_points,
    quantale_corollary_check,
    verify_adjunction_laws,
    verify_dense_representation,
    verify_elementary_identities,
    verify_elementary_representation,
    verify_fca_representation,
    verify_general_representation,
    verify_rst_representation,
    verify_type_preserving_representation,
    verify_yoneda,
)
from qfca.quantaloid import Quantaloid, build_preset, find_cyclic_dualizing_family

from _helpers import (
    composite_witnesses,
    condition,
    failed_names,
    find_equivalence,
    find_left_adjoint,
    find_right_adjoint,
    generator_functors,
    isbell_down,
)

CONTEXTS = pathlib.Path(__file__).parent.parent / "contexts"


def test_fix_points_identity(fix2id):
    A = fix2id.A
    assert fix_points(identity_functor(A)).objects == A.objects


def test_fix_points_isbell_closure_is_lattice(fix2id):
    phi = fix2id.phi
    adj = canonical_adjunction(phi, "fca")
    fixed = fix_points(compose_functors(adj.T, adj.S))
    lattice = fca_lattice(phi)
    assert set(fixed.objects) == set(lattice.category.objects)


def test_fix_points_constant_closure(two):
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    X = QCategory(two, ("u", "v"), ("*", "*"), [[one, one], [zero, one]])
    const_top = QFunctor(X, X, {"u": "v", "v": "v"})
    assert fix_points(const_top).objects == ("v",)


def test_general_representation_canonical(all_contexts):
    for name, ctx in all_contexts.items():
        for kind in ("fca", "rst"):
            d = canonical_general_data(ctx.phi, kind)
            report = verify_general_representation(d.adj.S, d.adj.T, d.L, d.R, d.X)
            assert report.passed, (name, kind, failed_names(report))
            # the fix-equivalence condition against the generic equivalence search
            fixed = fix_points(compose_functors(d.adj.T, d.adj.S))
            assert find_equivalence(fixed, d.X) is not None, (name, kind)


def test_general_representation_not_adjoint(fixl3):
    # on the three-valued context the closure is not an isomorphism, so the
    # swapped pair genuinely fails to be an adjunction
    d = canonical_general_data(fixl3.phi, "fca")
    report = verify_general_representation(d.adj.T, d.adj.S, d.R, d.L, d.X)
    assert "adjunction" in failed_names(report)


def test_general_representation_nonsurjective_R(fix2id):
    d = canonical_general_data(fix2id.phi, "fca")
    top = [lbl for lbl in d.X.objects][0]
    R_bad = QFunctor(d.adj.D_space.category, d.X,
                     {x: top for x in d.adj.D_space.category.objects}, name="collapse")
    report = verify_general_representation(d.adj.S, d.adj.T, d.L, R_bad, d.X)
    assert not report.passed
    assert "essential-surjectivity-R" in failed_names(report)


def test_general_representation_graph_identity_mutation(fix2id):
    d = canonical_general_data(fix2id.phi, "fca")
    # postcompose L with the swap automorphism of the concept square
    lattice = fca_lattice(fix2id.phi)
    one = fix2id.A.q.arrow("*", "*", "1")
    by_extent = {frozenset(x for x, v in zip(p.base.objects, p.values) if v == one):
                 lattice.label_of(p) for p in lattice.concepts}
    sigma = {by_extent[frozenset()]: by_extent[frozenset()],
             by_extent[frozenset({"a1"})]: by_extent[frozenset({"a2"})],
             by_extent[frozenset({"a2"})]: by_extent[frozenset({"a1"})],
             by_extent[frozenset({"a1", "a2"})]: by_extent[frozenset({"a1", "a2"})]}
    L_bad = QFunctor(d.L.dom, d.X, {x: sigma[d.L(x)] for x in d.L.dom.objects})
    report = verify_general_representation(d.adj.S, d.adj.T, L_bad, d.R, d.X)
    assert failed_names(report) == ["graph-identity"]


def test_type_preserving_representation(fix2id, fixl3):
    for ctx in (fix2id, fixl3):
        d = canonical_general_data(ctx.phi, "fca")
        report = verify_type_preserving_representation(
            d.adj.S, d.adj.T, dict(d.L.mapping), dict(d.R.mapping), d.X)
        assert report.passed, failed_names(report)


def test_type_preserving_representation_stops_at_a_type_mismatch():
    phi = load_valid_document(str(CONTEXTS / "fix_dl3.json")).distributors["phi"]
    d = canonical_general_data(phi, "fca")
    L = dict(d.L.mapping)
    c = next(iter(L))
    L[c] = next(y for y in d.X.objects if d.X.type_of(y) != d.X.type_of(L[c]))
    report = verify_type_preserving_representation(d.adj.S, d.adj.T, L,
                                                   dict(d.R.mapping), d.X)
    assert [x.name for x in report.conditions] == ["adjunction", "type-preserving"]
    assert failed_names(report) == ["type-preserving"]


def test_dense_representation_necessity_instance(fix2id):
    # K and H the identities, L and R the canonical witnesses
    d = canonical_general_data(fix2id.phi, "fca")
    report = verify_dense_representation(
        d.adj.S, d.adj.T, d.L, identity_functor(d.adj.C_space.category),
        d.R, identity_functor(d.adj.D_space.category), d.X)
    assert report.passed, failed_names(report)


def test_dense_representation_generator_instance(all_contexts):
    for name, ctx in all_contexts.items():
        for kind in ("fca", "rst"):
            d, F, K, G, H = canonical_dense_data(ctx.phi, kind)
            report = verify_dense_representation(d.adj.S, d.adj.T, F, K, G, H, d.X)
            assert report.passed, (name, kind, failed_names(report))


def test_dense_representation_checks_completeness_by_default(fix2id):
    d, F, K, G, H = canonical_dense_data(fix2id.phi, "fca")
    checked = verify_dense_representation(d.adj.S, d.adj.T, F, K, G, H, d.X)
    assert checked.passed, failed_names(checked)
    assert condition(checked, "completeness").detail == "dom, cod and X are all complete"


def test_lattice_representations_skip_completeness_only_when_asserted(fix2id):
    # assume_complete stays on these two verifiers alone; it replaces the
    # check of X by a skip and leaves every other condition as it was
    d, F, G = canonical_fca_data(fix2id.phi)
    dk, Fk, Gk, rc = canonical_rst_data(fix2id.phi)
    for verify, args in ((verify_fca_representation, (fix2id.phi, d.X, F, G)),
                         (verify_rst_representation, (fix2id.phi, dk.X, Fk, Gk, rc))):
        checked, asserted = verify(*args), verify(*args, assume_complete=True)
        assert checked.passed and condition(checked, "complete").detail == ""
        assert condition(asserted, "complete").detail == "skipped: asserted by caller"
        assert [c for c in checked.conditions if c.name != "complete"] == \
            [c for c in asserted.conditions if c.name != "complete"]


def test_dense_representation_broken_density(fix2id):
    d, F, K, G, H = canonical_dense_data(fix2id.phi, "fca")
    top_label = d.adj.C_space.label_of(
        max(d.adj.C_space.members, key=lambda m: sum(v.index for v in m.values)))
    K_bad = QFunctor(K.dom, K.cod, {x: top_label for x in K.dom.objects}, name="const")
    report = verify_dense_representation(d.adj.S, d.adj.T, F, K_bad, G, H, d.X)
    assert not report.passed and "dense-K" in failed_names(report)


def test_fca_representation_canonical(all_contexts):
    for name, ctx in all_contexts.items():
        d, F, G = canonical_fca_data(ctx.phi)
        report = verify_fca_representation(ctx.phi, d.X, F, G)
        assert report.passed, (name, failed_names(report))


def test_fca_representation_macneille_instance(two):
    # the identity context on the two-element antichain; the completion hosts
    # a dense restricted-representable map and a codense closure of the
    # corepresentables, with the homs reproducing the category itself
    from qfca.presheaf import coyoneda

    A = discrete_category(two, QTypedSet(("x", "y"), ("*", "*")), name="anti")
    phi = identity_dist(A)
    lat = fca_lattice(phi)
    X = lat.category
    F = QFunctor(A, X, {a: lat.label_of(yoneda(A, a)) for a in A.objects})
    G = QFunctor(A, X, {a: lat.label_of(isbell_down(phi, coyoneda(A, a)))
                        for a in A.objects})
    assert all(F(a) == G(a) for a in A.objects)  # both are the representables
    report = verify_fca_representation(phi, X, F, G)
    assert report.passed, failed_names(report)
    assert dist_compose(cograph(G), graph(F)) == phi


def test_fca_representation_with_concept_removed(fix2id):
    d, F, G = canonical_fca_data(fix2id.phi)
    keep = [x for x in d.X.objects if x not in set(F.mapping.values())][1:] \
        + sorted(set(F.mapping.values()))
    X_small = d.X.full_subcategory(sorted(keep, key=d.X.index))
    F2 = QFunctor(F.dom, X_small, dict(F.mapping))
    G2 = QFunctor(G.dom, X_small, dict(G.mapping))
    report = verify_fca_representation(fix2id.phi, X_small, F2, G2)
    assert not report.passed


def test_rst_representation_canonical(all_contexts):
    for name, ctx in all_contexts.items():
        d, F, G, rc = canonical_rst_data(ctx.phi)
        report = verify_rst_representation(ctx.phi, d.X, F, G, rc)
        assert report.passed, (name, failed_names(report))


def test_rst_representation_wrong_G(fixl3):
    d, F, G, rc = canonical_rst_data(fixl3.phi)
    top_member = rc.category.objects[-1]
    collapse = QFunctor(rc.category, rc.category,
                        {x: top_member for x in rc.category.objects})
    G_bad = compose_functors(collapse, identity_functor(rc.category))
    G_bad = compose_functors(G, G_bad)
    report = verify_rst_representation(fixl3.phi, d.X, F, G_bad, rc)
    assert not report.passed and "residual-identity" in failed_names(report)


def test_generator_maps(fixl3, fix2id):
    for ctx in (fixl3, fix2id):
        A = ctx.A
        pa = materialize_presheaves(A)
        maps, density = generator_functors(A, pa, materialize_copresheaves(A))
        assert all(density.values())
        # the residual map's image is exactly the residual category
        rc = residual_category(A)
        residuals = maps["presheaf_residuals:meet"]
        image = {residuals(x) for x in residuals.dom.objects}
        space_labels = set()
        for p in rc.members:
            space_labels.add(pa.label_of(p))
        assert image == space_labels
        # type law: |(a,u)| = cod u
        tensors = maps["presheaf_tensors:join"]
        for lbl, (_, u) in zip(tensors.dom.objects, dom_pairs(A), strict=True):
            assert tensors.dom.type_of(lbl) == u.dst


def test_elementary_identities(all_contexts):
    for name, ctx in all_contexts.items():
        report = verify_elementary_identities(ctx.phi)
        assert report.passed, (name, failed_names(report))


ARROW_CALLS = ("left_imp", "right_imp", "compose", "leq", "hom_join")


def test_table_paths_make_no_arrow_level_call(all_contexts, monkeypatch):
    # the elementary grids, the density witnesses and the bimodule law of a valid
    # distributor read the index tables only
    spaces = {name: materialize_presheaves(ctx.A).category for name, ctx in all_contexts.items()}
    for method in ARROW_CALLS:
        monkeypatch.setattr(Quantaloid, method, lambda *args, method=method: pytest.fail(method))
    for name, ctx in all_contexts.items():
        assert verify_elementary_identities(ctx.phi).passed, name
        assert validate_distributor(ctx.phi).ok, name
        P = spaces[name]
        assert _join_dense(P, P.objects) and _join_dense(dualize_category(P), P.objects)


def test_family_callers_make_no_per_member_call(monkeypatch):
    # the fixed-point oracle, the elementary identities and the canonical witnesses
    # map each family in one call: no one-(co)presheaf map runs, and the library
    # has no conversion of a presheaf on a dual base to a copresheaf.  The closures
    # run on the kept code closure, through neither family map, and once warm the
    # fixed-point oracle reads the kept member codes and packs none
    contexts = {path.name: load_valid_document(str(path)).distributors["phi"]
                for path in sorted(CONTEXTS.glob("*.json"))}
    assert len(contexts) == 4
    assert "_copresheaf_of" not in vars(qfca.represent)
    assert "_copresheaf_of" not in vars(qfca.presheaf)
    assert not {"isbell_up", "isbell_down", "kan_star", "kan_lower", "_one_row"} \
        & set(vars(qfca.concept))
    for cls in (qfca.IsbellPair, qfca.KanPair):
        assert not hasattr(cls, "left") and not hasattr(cls, "right")
        monkeypatch.setattr(cls, "closure", lambda *args: pytest.fail("closure"))
    fixed = {}
    for file, phi in contexts.items():
        fixed[file] = [brute_force_fixed(phi, kind, qobj) for kind in ("fca", "rst")
                       for qobj in phi.q.objects]
        assert all(fixed[file]), file
        assert verify_elementary_identities(phi).passed, file
        canonical_fca_data(phi)
        canonical_rst_data(phi)
    for name in ("lefts", "rights"):
        monkeypatch.setattr(qfca.concept._ClosurePair, name,
                            lambda *args, name=name: pytest.fail(name))
    for file, phi in contexts.items():
        for pair in (qfca.IsbellPair(phi), qfca.KanPair(phi)):
            for qobj in phi.q.objects:
                rows = [mu.values for mu in brute_force_fixed(phi, pair.kind, qobj)]
                assert pair.closures(qobj, rows) == rows, (file, pair.kind, qobj)
    monkeypatch.setattr(qfca.presheaf._SetCode, "pack", lambda *args: pytest.fail("pack"))
    for file, phi in contexts.items():
        assert [brute_force_fixed(phi, kind, qobj) for kind in ("fca", "rst")
                for qobj in phi.q.objects] == fixed[file], file


def test_verifiers_decode_no_code_one_at_a_time(monkeypatch):
    # the RST-as-FCA checks compare lattices on codes, the adjunction laws read the
    # kept down-set codes, the elementary identities read the tensors as value rows
    # and the fixed-point oracle filters the kept value rows: on fresh documents, no
    # code is decoded on its own and no tensor is built as a presheaf
    contexts = {path.name: load_valid_document(str(path)).distributors["phi"]
                for path in sorted(CONTEXTS.glob("*.json"))}
    assert len(contexts) == 4
    monkeypatch.setattr(qfca.presheaf._SetCode, "decode",
                        lambda *args: pytest.fail("_SetCode.decode"))
    monkeypatch.setattr(qfca.represent, "presheaf_tensor",
                        lambda *args: pytest.fail("presheaf_tensor"))
    complements = 0
    for file, phi in contexts.items():
        assert verify_rst_as_fca(phi).passed, file
        fam = find_cyclic_dualizing_family(phi.q)
        if fam.dualizing:
            complements += 1
            assert verify_rst_as_fca_complement(phi, fam).passed, file
        assert verify_adjunction_laws(phi).passed, file
        assert verify_elementary_identities(phi).passed, file
        assert all(brute_force_fixed(phi, kind, qobj) for kind in ("fca", "rst")
                   for qobj in phi.q.objects), file
    assert complements == 2


def test_elementary_identity_at_units(fix2id, fixl3):
    # with both arrows the unit, the double residuation collapses to the entry
    for ctx in (fix2id, fixl3):
        q = ctx.phi.q
        unit = q.unit("*")
        for a in ctx.A.objects:
            for b in ctx.B.objects:
                entry = ctx.phi.at(a, b)
                assert q.right_imp(unit, q.left_imp(entry, unit)) == entry
                assert q.left_imp(q.left_imp(unit, entry), unit) == \
                    q.left_imp(unit, entry)


def test_elementary_representation_canonical(all_contexts):
    for name, ctx in all_contexts.items():
        for kind in ("fca", "rst"):
            d, F, G = canonical_elementary_data(ctx.phi, kind)
            report = verify_elementary_representation(ctx.phi, d.X, F, G, kind)
            assert report.passed, (name, kind, failed_names(report))


def test_elementary_representation_stops_at_a_type_mismatch(fixdl3):
    d, F, G = canonical_elementary_data(fixdl3.phi, "fca")
    f = next(iter(F))
    F = {**F, f: next(x for x in d.X.objects if d.X.type_of(x) != f[1].dst)}
    report = verify_elementary_representation(fixdl3.phi, d.X, F, G, "fca")
    assert [c.name for c in report.conditions] == ["separated", "complete", "type-preserving"]
    assert failed_names(report) == ["type-preserving"]


def test_elementary_representation_degenerate_X(fixl3):
    X = singleton_category(fixl3.phi.q, "*")
    F = {p: "*" for p in dom_pairs(fixl3.B)}
    G = {p: "*" for p in dom_pairs(fixl3.A)}
    report = verify_elementary_representation(fixl3.phi, X, F, G, "rst")
    assert not report.passed and "hom-identity" in failed_names(report)


def test_quantale_corollary(fixl3, luk3):
    half = luk3.arrow("*", "*", "1/2")
    A = discrete_category(luk3, QTypedSet(("a1", "a2"), ("*", "*")))
    B = discrete_category(luk3, QTypedSet(("b1", "b2"), ("*", "*")))
    phi = QDistributor(A, B, [[half, half], [half, half]], name="allhalf")
    for kind in ("fca", "rst"):
        d, F, G = canonical_elementary_data(phi, kind)
        report = quantale_corollary_check(phi, d.X, F, G, kind)
        assert report.passed, failed_names(report)


def test_quantale_corollary_requires_quantale(fixdl3):
    with pytest.raises(NotAQuantale):
        quantale_corollary_check(fixdl3.phi, fixdl3.A, {}, {}, "rst")


def test_quantale_corollary_degenerate_X(fixl3):
    X = singleton_category(fixl3.phi.q, "*")
    F = {p: "*" for p in dom_pairs(fixl3.B)}
    G = {p: "*" for p in dom_pairs(fixl3.A)}
    report = quantale_corollary_check(fixl3.phi, X, F, G, "rst")
    assert not report.passed
    assert {"hom-identity", "object-oriented-biconditional"} & set(failed_names(report))


def test_quantale_corollary_degenerate_X_fca(fixl3):
    X = singleton_category(fixl3.phi.q, "*")
    F = {p: "*" for p in dom_pairs(fixl3.A)}
    G = {p: "*" for p in cod_pairs(fixl3.B)}
    report = quantale_corollary_check(fixl3.phi, X, F, G, "fca")
    assert "formal-concept-biconditional" in failed_names(report)


def test_witnesses_are_adjoints(fix2id, fixl3):
    # L is a left adjoint (its right adjoint exists) and R is a right
    # adjoint (its left adjoint exists) in every passing instance
    for ctx in (fix2id, fixl3):
        for kind in ("fca", "rst"):
            d = canonical_general_data(ctx.phi, kind)
            assert find_right_adjoint(d.L) is not None
            assert find_left_adjoint(d.R) is not None


def test_adjunction_laws_reports(all_contexts):
    for name, ctx in all_contexts.items():
        report = verify_adjunction_laws(ctx.phi)
        assert report.passed, (name, failed_names(report))


def test_yoneda_report(fixdl3):
    assert verify_yoneda(fixdl3.A).passed
    assert verify_yoneda(fixdl3.B).passed


# -- the canonical witnesses against their composites through the spaces -------------


def _perfbench(*names):
    """The benchmark's seeded context generator modules, by name."""
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))
    try:
        return [__import__(name) for name in names]
    finally:
        sys.path.pop(0)


def _context_files():
    for path in sorted(CONTEXTS.glob("*.json")):
        for name, phi in load_valid_document(str(path)).distributors.items():
            yield f"{path.stem}/{name}", phi


def _verify_shapes():
    """The verify benchmark's context shapes: per quantaloid, a discrete and a
    sparse 3x3 context (discrete is diagonal on a multi-object base)."""
    gen, oracle, workloads = _perfbench("gen", "oracle", "workloads")
    for spec in workloads.VERIFY_QUANTALOIDS:
        Q = build_preset(spec["name"], **{k: v for k, v in spec.items() if k != "name"})
        tables, rnd = oracle.Tables(Q), random.Random(f"witnesses/{Q.name}")
        disc = (gen.discrete(tables, 3, 3, rnd) if Q.one_object
                else gen.sparse(tables, 3, 3, rnd, density=0.0))
        for shape, draw in (("discrete", disc),
                            ("sparse", gen.sparse(tables, 3, 3, rnd, density=0.3))):
            yield f"{Q.name}/{shape}", gen.build(qfca, Q, draw)


def _assert_witnesses_match_composites(name, phi):
    for kind in ("fca", "rst"):
        lattice, F0, G0, rc0, EF0, EG0 = composite_witnesses(phi, kind)
        X0 = lattice.category
        if kind == "fca":
            d, F, G = canonical_fca_data(phi)
            new = verify_fca_representation(phi, d.X, F, G)
            old = verify_fca_representation(phi, X0, F0, G0)
        else:
            d, F, G, rc = canonical_rst_data(phi)
            new = verify_rst_representation(phi, d.X, F, G, rc)
            old = verify_rst_representation(phi, X0, F0, G0, rc0)
        # QFunctor equality compares dom, cod and mapping
        assert (F, F.name, G, G.name) == (F0, F0.name, G0, G0.name), (name, kind)
        assert new.to_json() == old.to_json(), (name, kind)
        assert "adj" not in d.__dict__, (name, kind)
        de, EF, EG = canonical_elementary_data(phi, kind)
        assert (EF, EG) == (EF0, EG0), (name, kind)
        assert verify_elementary_representation(phi, de.X, EF, EG, kind).to_json() == \
            verify_elementary_representation(phi, X0, EF0, EG0, kind).to_json(), (name, kind)


CONTEXT_FILES = list(_context_files())


@pytest.mark.parametrize("name, phi", CONTEXT_FILES, ids=[name for name, _ in CONTEXT_FILES])
def test_witnesses_match_the_composites_on_context_files(name, phi):
    _assert_witnesses_match_composites(name, phi)


def test_witnesses_match_the_composites_on_the_verify_shapes():
    shapes = list(_verify_shapes())
    assert len(shapes) == 12
    for name, phi in shapes:
        _assert_witnesses_match_composites(name, phi)


def test_witnesses_enumerate_no_presheaf_space(monkeypatch, two):
    # random 10x10 over two: each presheaf space has 2^10 members, above a cap
    # of 100, and the concept lattices have 49 and 36 members, below it
    gen, oracle = _perfbench("gen", "oracle")
    phi = gen.build(qfca, two, gen.discrete(oracle.Tables(two), 10, 10, random.Random(1)))
    monkeypatch.setenv("QFCA_BUDGET", "100")
    d, F, G = canonical_fca_data(phi)
    assert len(d.lattice) == 49
    assert verify_fca_representation(phi, d.X, F, G).passed
    d, F, G, rc = canonical_rst_data(phi)
    assert len(d.lattice) == 36
    assert verify_rst_representation(phi, d.X, F, G, rc).passed
    d, F, G = canonical_elementary_data(phi, "fca")
    assert verify_elementary_representation(phi, d.X, F, G, "fca").passed
    with pytest.raises(BudgetExceeded) as err:
        d.adj
    # the cap bounds the members produced, so it trips at the 101st
    assert (err.value.kind, err.value.limit, err.value.count) == ("enumeration", 100, 101)
