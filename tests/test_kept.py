"""What a base keeps cannot change a result.

A base category keeps its code layouts, its presheaf spaces' member codes and
categories, and its residual category (``quantaloid._kept``); a context keeps
its closure pairs' code tables, per kind and value type.  Every verifier
that reads them gives the same report on a first call, a second call and a
fresh but equal base; a kept space trips a cap set later exactly as a fresh
enumeration does; and a base or context that keeps them is still freed by
reference counting alone.
"""

import gc
import itertools
import pathlib
import weakref

import pytest

from qfca import concept
from qfca.cli import load_document
from qfca.concept import (
    IsbellPair,
    brute_force_fixed,
    fca_lattice,
    residual_category,
    rst_lattice,
    verify_rst_as_fca,
    verify_rst_as_fca_complement,
)
from qfca.errors import BudgetExceeded, InvalidParams
from qfca.presheaf import (
    enumerate_copresheaves,
    enumerate_presheaves,
    materialize_copresheaves,
    materialize_presheaves,
)
from qfca.qcat import QCategory, dualize_category
from qfca.qdist import QDistributor, dualize_distributor, identity_dist, validate_distributor
from qfca.quantaloid import find_cyclic_dualizing_family
from qfca.represent import (
    canonical_dense_data,
    canonical_fca_data,
    canonical_general_data,
    canonical_rst_data,
    verify_adjunction_as_functors,
    verify_adjunction_laws,
    verify_dense_representation,
    verify_density_suite,
    verify_fca_representation,
    verify_general_representation,
    verify_rst_representation,
    verify_yoneda,
)

from _helpers import (
    enumerate_categories,
    enumerate_distributors,
    isbell_down,
    isbell_up,
    kan_lower,
    kan_star,
    member_of,
)

CONTEXTS = pathlib.Path(__file__).parent.parent / "contexts"


def fresh(A: QCategory) -> QCategory:
    """A base equal to A that keeps nothing yet."""
    return QCategory(A.q, A.objects, A.types, A.hom, name=A.name)


def fresh_context(phi: QDistributor) -> QDistributor:
    return QDistributor(fresh(phi.dom), fresh(phi.cod), phi.matrix, name=phi.name)


def context_reports(phi: QDistributor) -> dict:
    """Every verifier that reads what phi's bases keep, as JSON, and the brute
    force fixed points as keys."""
    reports = {"rst-as-fca": verify_rst_as_fca(phi),
               "adjunction-laws": verify_adjunction_laws(phi)}
    fam = find_cyclic_dualizing_family(phi.q)
    if fam is not None and fam.dualizing:
        reports["complement"] = verify_rst_as_fca_complement(phi, fam)
    for kind in ("fca", "rst"):
        reports[f"functors-{kind}"] = verify_adjunction_as_functors(phi, kind)
        d = canonical_general_data(phi, kind)
        reports[f"general-{kind}"] = verify_general_representation(d.adj.S, d.adj.T, d.L, d.R,
                                                                   d.X)
        d, F, K, G, H = canonical_dense_data(phi, kind)
        reports[f"dense-{kind}"] = verify_dense_representation(d.adj.S, d.adj.T, F, K, G, H, d.X)
    d, F, G = canonical_fca_data(phi)
    reports["fca-representation"] = verify_fca_representation(phi, d.X, F, G)
    d, F, G, rc = canonical_rst_data(phi)
    reports["rst-representation"] = verify_rst_representation(phi, d.X, F, G, rc)
    out = {name: report.to_json() for name, report in reports.items()}
    for kind, qobj in itertools.product(("fca", "rst"), phi.q.objects):
        out[f"brute-{kind}@{qobj}"] = [p.key() for p in brute_force_fixed(phi, kind, qobj)]
    return out


def base_reports(A: QCategory) -> dict:
    return {"density": verify_density_suite(A).to_json(), "yoneda": verify_yoneda(A).to_json()}


def assert_kept_changes_nothing(phi: QDistributor) -> None:
    """The reports on a fresh copy of phi, called twice, equal those on a
    second fresh copy and on phi itself, whatever phi's bases keep already."""
    copy = fresh_context(phi)
    first = context_reports(copy), base_reports(copy.dom), base_reports(copy.cod)
    second = context_reports(copy), base_reports(copy.dom), base_reports(copy.cod)
    other = fresh_context(phi)
    third = context_reports(other), base_reports(other.dom), base_reports(other.cod)
    given = context_reports(phi), base_reports(phi.dom), base_reports(phi.cod)
    assert first == second == third == given


@pytest.mark.parametrize("name", ["fix2id", "fixl3", "fixdl3", "fixg3"])
def test_kept_spaces_change_no_report_on_the_fixtures(name, request):
    assert_kept_changes_nothing(request.getfixturevalue(name).phi)


@pytest.mark.parametrize("qname,labels", [("two", ("x", "y")), ("luk3", ("x", "y")),
                                          ("diag3", ("x",)), ("diagb4", ("x",))])
def test_kept_spaces_change_no_report_on_enumerated_carriers(qname, labels, presets):
    # per carrier: its identity context and its second enumerated context, if any
    for A in enumerate_categories(presets[qname], labels):
        for phi in [identity_dist(A), *itertools.islice(enumerate_distributors(A, A), 1, 2)]:
            assert_kept_changes_nothing(phi)


# each call that enumerates a space of fix2id.A under the enumeration cap; the
# last reads the codes that the copresheaf enumeration keeps on the dual base,
# under the name of a presheaf space on that dual
SPACES = {
    "presheaves": lambda A: enumerate_presheaves(A, "*"),
    "copresheaves": lambda A: enumerate_copresheaves(A, "*"),
    "presheaf space": materialize_presheaves,
    "copresheaf space": materialize_copresheaves,
    "presheaves on the dual": lambda A: enumerate_presheaves(dualize_category(A), "*"),
}


def _outcome(call, *args):
    """call's report or the size of its result, or what it raised: class, kind,
    limit, count and message."""
    try:
        result = call(*args)
    except BudgetExceeded as e:
        return type(e), e.kind, e.limit, e.count, str(e)
    return result.to_json() if hasattr(result, "to_json") else len(result)


@pytest.mark.parametrize("limit", range(6))
def test_a_kept_space_trips_a_later_cap_as_a_fresh_enumeration(limit, fix2id, monkeypatch):
    kept, kept_phi = fresh(fix2id.A), fresh_context(fix2id.phi)
    for call in SPACES.values():
        call(kept)
    verify_adjunction_laws(kept_phi)
    monkeypatch.setenv("QFCA_BUDGET", str(limit))
    for name, call in SPACES.items():
        assert _outcome(call, kept) == _outcome(call, fresh(fix2id.A)), name
    laws = _outcome(verify_adjunction_laws, kept_phi)
    assert laws == _outcome(verify_adjunction_laws, fresh_context(fix2id.phi))
    if limit < 4:  # each space of fix2id.A holds 4 members, and its closure 4 codes
        assert laws[3] == limit + 1
        message = _outcome(SPACES["presheaves on the dual"], kept)[4]
        assert f"exceeded by the presheaf space on A2^op at type '*' (count {limit + 1})" in message


def test_a_base_with_kept_spaces_is_freed_without_the_collector(fixdl3):
    phi = fresh_context(fixdl3.phi)
    A = phi.dom
    verify_adjunction_laws(phi)
    verify_adjunction_as_functors(phi, "rst")
    verify_density_suite(A)  # its copresheaf half runs on the presheaf space of A^op
    materialize_copresheaves(A).category
    rc = residual_category(A)
    rc.functor_to(materialize_presheaves(A))
    member_of(rc, rc.labels[0])
    brute_force_fixed(phi, "fca", "1")
    kept = [k for k in vars(A) if k.startswith(("_members", "_order", "_up-sets", "category"))]
    assert len(kept) >= 4 and "_residuals" in vars(A)
    assert any(k.startswith("_members") for k in vars(dualize_category(A)))
    # the value rows and down-set codes beside the member codes, and the spaces' rows
    objects = phi.q.objects
    assert {f"_rows {q}" for q in objects} | {f"_members {q} down" for q in objects} <= set(vars(A))
    # the copresheaf space's codes, enumerated on A^op, are decoded on the co layouts
    # of A, and its rows are kept once, on A
    assert {f"_up-sets {q} co" for q in objects} <= set(vars(A))
    assert not [k for k in vars(dualize_category(A)) if k.endswith(" dual")]
    assert {"_value_rows presheaf", "_value_rows copresheaf", "_value_rows residuals"} <= set(vars(A))
    assert "_value_rows presheaf" in vars(dualize_category(A))
    refs = [weakref.ref(A), weakref.ref(dualize_category(A))]
    gc.disable()
    try:
        del phi, A, rc  # freed by reference counting alone: nothing kept refers back
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_presheaf_space_reads_the_rows_its_base_keeps(fixdl3):
    # the space's value rows are the base's kept _member_rows, the same tuples,
    # whether the space or the enumeration reads them first
    first, second = fresh(fixdl3.A), fresh(fixdl3.A)
    spaces = [(first, materialize_presheaves(first).value_rows)]
    for q in second.q.objects:
        enumerate_presheaves(second, q)
    spaces.append((second, materialize_presheaves(second).value_rows))
    for A, pairs in spaces:
        kept = [(q, values) for q in A.q.objects for values in vars(A)[f"_rows {q}"]]
        assert pairs == tuple(kept)
        assert all(got is values for (_, got), (_, values) in zip(pairs, kept))


def test_a_validated_context_keeps_its_verdict_and_is_freed_without_the_collector(fixdl3):
    phi = fresh_context(fixdl3.phi)
    assert validate_distributor(phi).ok and vars(phi)["_valid"] is True
    verify_rst_as_fca(phi)
    ref = weakref.ref(phi)
    gc.disable()
    try:
        del phi  # the verdict is a bare True, with no reference back
        assert ref() is None
    finally:
        gc.enable()


def closure_pair_calls(phi: QDistributor) -> None:
    """Every caller of the closure pairs' code tables, once: the four one-row maps
    on every (co)presheaf, both lattices, the brute force fixed points of every
    kind and type, and the adjunction laws (which also read those of the dual)."""
    for qobj in phi.q.objects:
        for mu in enumerate_presheaves(phi.dom, qobj):
            isbell_up(phi, mu)
            kan_lower(phi, mu)
        for lam in enumerate_copresheaves(phi.cod, qobj):
            isbell_down(phi, lam)
        for lam in enumerate_presheaves(phi.cod, qobj):
            kan_star(phi, lam)
    fca_lattice(phi)
    rst_lattice(phi)
    for kind, qobj in itertools.product(("fca", "rst"), phi.q.objects):
        brute_force_fixed(phi, kind, qobj)
    verify_adjunction_laws(phi)


def test_a_context_with_kept_code_tables_is_freed_without_the_collector(fixdl3):
    phi = fresh_context(fixdl3.phi)
    closure_pair_calls(phi)
    coded = {f"_coded {kind} {qobj}" for kind in ("fca", "rst") for qobj in phi.q.objects}
    assert coded <= set(vars(phi)) and coded <= set(vars(dualize_distributor(phi)))
    refs = [weakref.ref(phi), weakref.ref(dualize_distributor(phi))]
    gc.disable()
    try:
        del phi  # freed by reference counting alone: the tables hold no reference back
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_each_code_table_is_built_once_per_context(monkeypatch):
    phi = load_document(str(CONTEXTS / "fix_dl3.json")).distributors["phi"]
    built, table = [], concept._table
    monkeypatch.setattr(concept, "_table", lambda *args: built.append(args[3]) or table(*args))
    closure_pair_calls(phi)
    # two maps per kind and type of the three, on phi and on its dual
    assert len(built) == 24
    closure_pair_calls(phi)
    assert len(built) == 24


def test_a_type_that_is_no_object_is_refused_before_anything_is_kept():
    # the fixed-point oracle, the enumeration and a pair's code tables each build a
    # _SetCode layout at the type first, and the layout refuses it
    phi = load_document(str(CONTEXTS / "fix_dl3.json")).distributors["phi"]
    message = r"^type 'zz' is not an object of diag-chain-3; its objects are \['0', '1', '2'\]$"
    for call in (lambda: brute_force_fixed(phi, "fca", "zz"),
                 lambda: enumerate_presheaves(phi.dom, "zz"),
                 lambda: IsbellPair(phi).coded("zz")):
        with pytest.raises(InvalidParams, match=message):
            call()
    for owner in (phi, phi.dom, phi.cod):
        assert [attr for attr in vars(owner) if "zz" in attr] == []
    assert [attr for attr in vars(phi.q) if "zz" in attr] == []
