"""Acceptance suite: one test per criterion, each printing a verdict line.

All comparisons are exact (tolerance zero); the subject matter is finite
lattice computation, so nothing here is approximate.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import itertools
import pathlib

import qfca.cli as cli
from qfca.qcat import (
    QCategory,
    QFunctor,
    QTypedSet,
    discrete_category,
)
from qfca.qdist import QDistributor
from qfca.presheaf import (
    coyoneda,
    copresheaf_hom,
    enumerate_copresheaves,
    enumerate_presheaves,
    is_dense,
    materialize_presheaves,
    presheaf_hom,
    yoneda,
)
from qfca.concept import (
    brute_force_fixed,
    codense_probe,
    complement_context,
    fca_lattice,
    rst_lattice,
    verify_rst_as_fca,
    verify_rst_as_fca_complement,
)
from qfca.represent import (
    canonical_dense_data,
    canonical_elementary_data,
    canonical_fca_data,
    canonical_general_data,
    canonical_rst_data,
    quantale_corollary_check,
    verify_adjunction_laws,
    verify_dense_representation,
    verify_density_suite,
    verify_elementary_identities,
    verify_elementary_representation,
    verify_fca_representation,
    verify_general_representation,
    verify_rst_representation,
)
from qfca.quantaloid import find_cyclic_dualizing_family
from qfca.errors import NotGirard

from _helpers import (
    classical_fca_extents,
    classical_rst_fixed,
    failed_names,
    is_join_dense,
    iter_context_stream,
    presheaf_to_subset,
    validate_chu,
    value_at,
    verify_functoriality_square,
)

CONTEXTS = pathlib.Path(__file__).parent.parent / "contexts"


def verdict(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_1_residuation_and_join_preservation(presets):
    failures = []
    for name, Q in presets.items():
        for p, q, r in itertools.product(Q.objects, repeat=3):
            for u in Q.arrows(p, q):
                for v in Q.arrows(q, r):
                    for w in Q.arrows(p, r):
                        left = Q.leq(Q.compose(v, u), w)
                        if left != Q.leq(v, Q.left_imp(w, u)) or \
                                left != Q.leq(u, Q.right_imp(v, w)):
                            failures.append((name, "adjunction", u, v, w))
        # join preservation over every subset of each hom (all are <= 2^6)
        for p, q, r in itertools.product(Q.objects, repeat=3):
            vs = Q.arrows(q, r)
            assert 2 ** len(vs) <= 2 ** 6
            subsets = []
            for size in range(len(vs) + 1):
                subsets.extend(itertools.combinations(vs, size))
            for u in Q.arrows(p, q):
                for S in subsets:
                    lhs = Q.compose(Q.hom_join(q, r, S), u)
                    rhs = Q.hom_join(p, r, [Q.compose(v, u) for v in S])
                    if lhs != rhs:
                        failures.append((name, "join-left", S, u))
            us = Q.arrows(p, q)
            subsets_u = []
            for size in range(len(us) + 1):
                subsets_u.extend(itertools.combinations(us, size))
            for v in vs:
                for S in subsets_u:
                    lhs = Q.compose(v, Q.hom_join(p, q, S))
                    rhs = Q.hom_join(p, r, [Q.compose(v, u) for u in S])
                    if lhs != rhs:
                        failures.append((name, "join-right", v, S))
    ok = verdict(1, not failures,
                 "residuation adjunction and join preservation, all presets, exhaustive")
    assert ok, failures[:3]


def _yoneda_cats(presets, all_contexts):
    luk3, godel3, diagb4 = presets["luk3"], presets["godel3"], presets["diagb4"]
    half_l = luk3.arrow("*", "*", "1/2")
    one_l = luk3.arrow("*", "*", "1")
    tri_l = QCategory(luk3, ("x", "y", "z"), ("*",) * 3,
                      [[one_l, half_l, half_l], [half_l, one_l, half_l],
                       [half_l, half_l, one_l]], name="tri-luk")
    half_g = godel3.arrow("*", "*", "1/2")
    one_g = godel3.arrow("*", "*", "1")
    tri_g = QCategory(godel3, ("x", "y", "z"), ("*",) * 3,
                      [[one_g, half_g, half_g], [half_g, one_g, half_g],
                       [half_g, half_g, one_g]], name="tri-godel")
    a = diagb4.arrow
    two_b4 = QCategory(diagb4, ("x", "y"), ("ab", "a"),
                       [[a("ab", "ab", "ab"), a("ab", "a", "a")],
                        [a("a", "ab", "0"), a("a", "a", "a")]], name="two-b4")
    cats = [tri_l, tri_g, two_b4]
    for ctx in all_contexts.values():
        cats.extend([ctx.A, ctx.B])
    return cats


def test_criterion_2_yoneda_lemma(presets, all_contexts):
    failures = []
    for A in _yoneda_cats(presets, all_contexts):
        assert len(A) <= 3
        for qobj in A.q.objects:
            for mu in enumerate_presheaves(A, qobj):
                for x in A.objects:
                    if presheaf_hom(yoneda(A, x), mu) != value_at(mu, x):
                        failures.append((A.name, qobj, x, "presheaf"))
            for lam in enumerate_copresheaves(A, qobj):
                for x in A.objects:
                    if copresheaf_hom(lam, coyoneda(A, x)) != value_at(lam, x):
                        failures.append((A.name, qobj, x, "copresheaf"))
    ok = verdict(2, not failures, "Yoneda lemma, both halves, exact, <=3-object bases")
    assert ok, failures[:3]


def test_criterion_3_adjunction_laws_enumerated(presets):
    counts = {}
    failures = []
    for name, Q in presets.items():
        n = 0
        for phi in iter_context_stream(Q, 100):
            n += 1
            report = verify_adjunction_laws(phi)
            if not report.passed:
                failures.append((name, n, failed_names(report)))
        counts[name] = n
    enough = all(n >= 100 for n in counts.values())
    ok = verdict(3, not failures and enough,
                 f"Isbell/Kan unit-counit laws on {counts} enumerated contexts")
    assert ok, (counts, failures[:3])


def test_criterion_4_oracle_equivalence(two, luk3, all_contexts):
    failures = []
    for name, ctx in all_contexts.items():
        for kind, make in (("fca", fca_lattice), ("rst", rst_lattice)):
            per = make(ctx.phi).per_type()
            for qobj in ctx.phi.q.objects:
                space = len(enumerate_presheaves(
                    ctx.phi.dom if kind == "fca" else ctx.phi.cod, qobj))
                assert space <= 4096
                oracle = frozenset(p.key() for p in brute_force_fixed(ctx.phi, kind, qobj))
                if frozenset(p.key() for p in per[qobj]) != oracle:
                    failures.append((name, kind, qobj))
    M2, K2 = fca_lattice(all_contexts["fix2id"].phi), rst_lattice(all_contexts["fix2id"].phi)
    one = two.arrow("*", "*", "1")
    extents = {presheaf_to_subset(two, p) for p in M2.concepts}
    shape_ok = (len(M2) == 4 and len(K2) == 4
                and extents == {frozenset(), frozenset({"a1"}), frozenset({"a2"}),
                                frozenset({"a1", "a2"})})
    vals = lambda lat: sorted(luk3.label(p.values[0]) for p in lat.concepts)
    l3ok = (vals(rst_lattice(all_contexts["fixl3"].phi)) == ["1", "1/2"]
            and vals(fca_lattice(all_contexts["fixl3"].phi)) == ["1", "1/2"])
    ok = verdict(4, not failures and shape_ok and l3ok,
                 "closure lattices equal brute-force fixed points; stock counts exact")
    assert ok, (failures[:3], shape_ok, l3ok)


def test_criterion_5_rst_equals_fca_of_residual(all_contexts, two, luk3):
    reports = {}
    half = luk3.arrow("*", "*", "1/2")
    A22 = discrete_category(luk3, QTypedSet(("a1", "a2"), ("*", "*")))
    B22 = discrete_category(luk3, QTypedSet(("b1", "b2"), ("*", "*")))
    extra = QDistributor(A22, B22, [[half, half], [half, half]], name="l3-allhalf")
    cases = dict(all_contexts)
    cases["l3-allhalf"] = type("C", (), {"phi": extra})
    for name, ctx in cases.items():
        reports[name] = verify_rst_as_fca(ctx.phi)
    bad = {n: failed_names(r) for n, r in reports.items() if not r.passed}
    ok = verdict(5, not bad,
                 "rst lattice equals fca lattice of the residual context, per type, "
                 "with the pseudo-complement identity exact (incl. multi-typed)")
    assert ok, bad


def test_criterion_6_girard_route(fix2id, fixl3, fixg3, two, luk3, godel3):
    fam2 = find_cyclic_dualizing_family(two)
    faml = find_cyclic_dualizing_family(luk3)
    r1 = verify_rst_as_fca_complement(fix2id.phi, fam2)
    r2 = verify_rst_as_fca_complement(fixl3.phi, faml)
    famg = find_cyclic_dualizing_family(godel3)
    raised = False
    try:
        complement_context(fixg3.phi, famg)
    except NotGirard:
        raised = True
    probe = codense_probe(godel3, "*")
    probe_negative = probe.passed and "exists: False" in probe.conditions[0].detail
    ok = verdict(6, r1.passed and r2.passed and raised and probe_negative,
                 "complement route exact on Girard presets; Goedel-3 refused and "
                 "probe confirms no codense singleton functor")
    assert ok, (failed_names(r1), failed_names(r2), raised, probe_negative)


def test_criterion_7_density_suite(two, luk3, fix2id, fixl3):
    failures = []
    bases = [fixl3.A, fix2id.A,
             discrete_category(luk3, QTypedSet(("s", "t"), ("*", "*")), name="L2")]
    for A in bases:
        report = verify_density_suite(A)
        if not report.passed:
            failures.append((A.name, failed_names(report)))
    S = discrete_category(luk3, QTypedSet(("a",), ("*",)))
    y = materialize_presheaves(S).yoneda_functor()
    negative = is_dense(y) and not is_join_dense(y)
    ok = verdict(7, not failures and negative,
                 "Yoneda dense, co-Yoneda codense, residual inclusion codense, "
                 "generators join/meet-dense; dense-but-not-join-dense case reproduced")
    assert ok, (failures, negative)


def test_criterion_8_theorem_verifiers(all_contexts, two):
    failures = []
    for name, ctx in all_contexts.items():
        for kind in ("fca", "rst"):
            d = canonical_general_data(ctx.phi, kind)
            if not verify_general_representation(d.adj.S, d.adj.T, d.L, d.R, d.X).passed:
                failures.append((name, kind, "general"))
            dd, F, K, G, H = canonical_dense_data(ctx.phi, kind)
            if not verify_dense_representation(dd.adj.S, dd.adj.T, F, K, G, H, dd.X).passed:
                failures.append((name, kind, "dense"))
            de, Fe, Ge = canonical_elementary_data(ctx.phi, kind)
            if not verify_elementary_representation(ctx.phi, de.X, Fe, Ge, kind).passed:
                failures.append((name, kind, "elementary"))
        dm, Fm, Gm = canonical_fca_data(ctx.phi)
        if not verify_fca_representation(ctx.phi, dm.X, Fm, Gm).passed:
            failures.append((name, "fca-rep"))
        dk, Fk, Gk, rc = canonical_rst_data(ctx.phi)
        if not verify_rst_representation(ctx.phi, dk.X, Fk, Gk, rc).passed:
            failures.append((name, "rst-rep"))

    # single-hypothesis mutations fail with the mutated hypothesis named
    ctx = all_contexts["fix2id"]
    d = canonical_general_data(ctx.phi, "fca")
    collapse = QFunctor(d.adj.D_space.category, d.X,
                        {x: d.X.objects[0] for x in d.adj.D_space.category.objects})
    rep = verify_general_representation(d.adj.S, d.adj.T, d.L, collapse, d.X)
    if "essential-surjectivity-R" not in failed_names(rep):
        failures.append(("mutation", "essential-surjectivity-R"))
    dd, F, K, G, H = canonical_dense_data(ctx.phi, "fca")
    K_bad = QFunctor(K.dom, K.cod, {x: K.cod.objects[-1] for x in K.dom.objects})
    rep = verify_dense_representation(dd.adj.S, dd.adj.T, F, K_bad, G, H, dd.X)
    if "dense-K" not in failed_names(rep):
        failures.append(("mutation", "dense-K"))
    dm, Fm, Gm = canonical_fca_data(ctx.phi)
    G_bad = QFunctor(Gm.dom, dm.X, {x: Fm(ctx.A.objects[0]) for x in Gm.dom.objects})
    rep = verify_fca_representation(ctx.phi, dm.X, Fm, G_bad)
    if "codense-G" not in failed_names(rep):
        failures.append(("mutation", "codense-G"))
    fl = all_contexts["fixl3"]
    dk, Fk, Gk, rc = canonical_rst_data(fl.phi)
    Gk_bad = QFunctor(rc.category, dk.X,
                      {x: Gk(rc.category.objects[-1]) for x in rc.category.objects})
    rep = verify_rst_representation(fl.phi, dk.X, Fk, Gk_bad, rc)
    if "residual-identity" not in failed_names(rep):
        failures.append(("mutation", "residual-identity"))

    # classical reproduction on a 3x3 crisp context
    objs, attrs = ("a1", "a2", "a3"), ("b1", "b2", "b3")
    rel = frozenset({("a1", "b1"), ("a1", "b2"), ("a2", "b2"), ("a3", "b3")})
    A = discrete_category(two, QTypedSet(objs, ("*",) * 3))
    B = discrete_category(two, QTypedSet(attrs, ("*",) * 3))
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    phi = QDistributor(A, B, [[one if (a, b) in rel else zero for b in attrs]
                              for a in objs], name="crisp")
    got_m = {presheaf_to_subset(two, p) for p in fca_lattice(phi).concepts}
    got_k = {presheaf_to_subset(two, p) for p in rst_lattice(phi).concepts}
    if got_m != classical_fca_extents(rel, objs, attrs):
        failures.append(("classical", "fca"))
    if got_k != classical_rst_fixed(rel, objs, attrs):
        failures.append(("classical", "rst"))
    d = canonical_general_data(phi, "fca")
    from qfca.represent import verify_type_preserving_representation
    if not verify_type_preserving_representation(
            d.adj.S, d.adj.T, dict(d.L.mapping), dict(d.R.mapping), d.X).passed:
        failures.append(("classical", "thm-1.1"))
    ok = verdict(8, not failures,
                 "all five theorem verifiers pass canonical data, mutations fail "
                 "by name, Q=2 reproduces the classical theorems")
    assert ok, failures


def test_criterion_9_functoriality_square(fix2id, fixl3, two, luk3):
    from test_concept import make_chu_transforms

    transforms = make_chu_transforms(fix2id, fixl3, two, luk3)
    nonidentity = [c for c in transforms
                   if any(c.F(x) != x for x in c.F.dom.objects)
                   or any(c.G(x) != x for x in c.G.dom.objects)
                   or c.frm is not c.to]
    failures = []
    for i, c in enumerate(nonidentity):
        if not validate_chu(c).ok:
            failures.append((i, "chu"))
            continue
        report = verify_functoriality_square(c)
        if not report.passed:
            failures.append((i, failed_names(report)))
    ok = verdict(9, len(nonidentity) >= 5 and not failures,
                 f"rst map equals residual fca map on {len(nonidentity)} "
                 "nonidentity Chu transforms")
    assert ok, (len(nonidentity), failures)


def test_criterion_10_elementary_identities_and_quantale(all_contexts, luk3):
    failures = []
    for name, ctx in all_contexts.items():
        if not verify_elementary_identities(ctx.phi).passed:
            failures.append((name, "identities"))
    half = luk3.arrow("*", "*", "1/2")
    one = luk3.arrow("*", "*", "1")
    A22 = discrete_category(luk3, QTypedSet(("a1", "a2"), ("*", "*")))
    B22 = discrete_category(luk3, QTypedSet(("b1", "b2"), ("*", "*")))
    for mat, name in [([[half, half], [half, half]], "l3-allhalf"),
                      ([[half, one], [one, half]], "l3-mixed")]:
        phi = QDistributor(A22, B22, mat, name=name)
        if not verify_elementary_identities(phi).passed:
            failures.append((name, "identities"))
        for kind in ("fca", "rst"):
            d, F, G = canonical_elementary_data(phi, kind)
            rep = quantale_corollary_check(phi, d.X, F, G, kind)
            if not rep.passed:
                failures.append((name, kind, failed_names(rep)))
    ok = verdict(10, not failures,
                 "elementary hom identities on all pairs; quantale corollary with "
                 "both order-level biconditionals on three-valued contexts")
    assert ok, failures


def test_criterion_11_cli_determinism(capsys):
    fixtures = [
        ("validate", CONTEXTS / "fix_dl3.json"),
        ("concepts", CONTEXTS / "fix_2id.json", "--mode", "fca", "--out", "json"),
        ("concepts", CONTEXTS / "fix_dl3.json", "--mode", "rst", "--out", "dot"),
        ("concepts", CONTEXTS / "fix_l3.json", "--mode", "rst", "--oracle"),
        ("girard", CONTEXTS / "godel3.json"),
        ("verify", CONTEXTS / "fix_dl3.json", "--prop", "k-eq-m-tr"),
        ("verify", CONTEXTS / "fix_l3.json", "--prop", "elementary-rep"),
        ("tr", CONTEXTS / "fix_dl3.json"),
    ]
    stable = True
    for argv in fixtures:
        cli.main([str(a) for a in argv])
        out1 = capsys.readouterr().out
        cli.main([str(a) for a in argv])
        out2 = capsys.readouterr().out
        if out1 != out2 or not out1:
            stable = False
    ok = verdict(11, stable, "repeated runs produce byte-identical JSON/DOT output")
    assert ok
