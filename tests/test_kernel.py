"""The integer tables under the quantaloid against brute-force scans."""

import itertools

import pytest

from _helpers import (
    chain4_quantale,
    oracle_residuation_tables,
    scan_join,
    scan_left_imp,
    scan_meet,
    scan_right_imp,
)
from qfca.concept import fca_lattice, rst_lattice
from qfca.errors import ValidationFailed
from qfca.qdist import hom_rows
from qfca.quantaloid import Arrow, HomLattice, Quantaloid, build_preset, validate_quantaloid

DIAMOND = ["0", "a", "b", "1"]
DIAMOND_LEQ = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]


def _diamond_meet(x, y):
    if x == y or y == "1":
        return x
    return y if x == "1" else "0"


PRESETS = {
    "two": ("two", {}),
    "luk3": ("lukasiewicz-chain", {"n": 3}),
    "luk4": ("lukasiewicz-chain", {"n": 4}),
    "luk5": ("lukasiewicz-chain", {"n": 5}),
    "godel3": ("godel-chain", {"n": 3}),
    "diag-chain3": ("frame-diagonal", {"chain": 3}),
    "diag-boolean2": ("frame-diagonal", {"boolean": 2}),
    "diamond": ("commutative-quantale-from-table", {
        "elements": DIAMOND, "leq": DIAMOND_LEQ, "unit": "1",
        "products": [(x, y, _diamond_meet(x, y)) for x in DIAMOND for y in DIAMOND]}),
}


def _quantaloids():
    for name, (preset, params) in PRESETS.items():
        Q = build_preset(preset, **params)
        yield pytest.param(Q, id=name)
        yield pytest.param(Q.opposite(), id=f"{name}^op")


@pytest.mark.parametrize("Q", list(_quantaloids()))
def test_tables_agree_with_scans(Q):
    for p, q in itertools.product(Q.objects, repeat=2):
        hom, n = Q.hom(p, q), len(Q.hom(p, q))
        arrows = Q.arrows(p, q)
        assert Q.hom_join(p, q, []) is arrows[scan_join(Q, p, q, [])] is Q.bottom(p, q)
        assert Q.hom_meet(p, q, []) is arrows[scan_meet(Q, p, q, [])] is Q.top(p, q)
        for i, j in itertools.product(range(n), repeat=2):
            assert Q.leq(arrows[i], arrows[j]) == ((i, j) in hom.leq_pairs)
            assert Q.hom_join(p, q, [arrows[i], arrows[j]]).index == scan_join(Q, p, q, [i, j])
            assert Q.hom_meet(p, q, [arrows[i], arrows[j]]).index == scan_meet(Q, p, q, [i, j])
            assert hom.joins[i][j] == scan_join(Q, p, q, [i, j])
            # left_imp(w, 1) = w, so hom_rows folds the meet of the ws alone
            ones = (Q.unit(p),) * 2
            assert next(hom_rows(Q, (p, p), [(p, ones)], [(q, [arrows[i], arrows[j]])]))[0] \
                .index == scan_meet(Q, p, q, [i, j])
    for p, q, r in itertools.product(Q.objects, repeat=3):
        for u, w in itertools.product(Q.arrows(p, q), Q.arrows(p, r)):
            assert Q.left_imp(w, u).index == scan_left_imp(Q, w, u)
        for v, w in itertools.product(Q.arrows(q, r), Q.arrows(p, r)):
            assert Q.right_imp(v, w).index == scan_right_imp(Q, v, w)


def test_results_are_interned_arrows():
    Q = build_preset("lukasiewicz-chain", n=4)
    half = Q.arrow("*", "*", "1/3")
    assert Q.compose(half, half) is Q.arrows("*", "*")[0]
    assert Q.left_imp(half, Q.unit("*")) is Q.arrows("*", "*")[1]
    assert Q.hom_meet("*", "*", [Arrow("*", "*", 2), half]) is Q.arrows("*", "*")[1]


def _container_sizes(Q):
    owners = [Q, Q.opposite(), *Q.homs.values()]
    return [(id(o), name, len(value)) for o in owners for name, value in vars(o).items()
            if isinstance(value, (dict, list, set, frozenset, tuple))]


def test_computing_leaves_the_quantaloid_unchanged(fixdl3):
    Q = fixdl3.phi.q
    before = _container_sizes(Q)
    for _ in range(2):
        fca_lattice(fixdl3.phi)
        rst_lattice(fixdl3.phi)
    assert _container_sizes(Q) == before


def _no_join_hom():
    # a and b have two minimal upper bounds, c and d: no join of {a, b}
    return HomLattice.from_labels(
        ("0", "a", "b", "c", "d", "1"),
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"),
         ("c", "1"), ("d", "1")])


def test_non_lattice_hom_is_refused_at_construction():
    hom = _no_join_hom()
    table = {("*", "*", "*"): tuple(tuple(0 for _ in range(6)) for _ in range(6))}
    with pytest.raises(ValidationFailed,
                       match=r"^quantaloid no-join failed validation; see the report$") as caught:
        Quantaloid(("*",), {("*", "*"): hom}, table, {"*": 5}, name="no-join")
    (report,) = caught.value.reports
    assert ("*", "*", "a", "b") in {i.where for i in report.issues if i.code == "lattice.join"}


def test_validator_rescans_the_residuation_tables():
    Q = build_preset("lukasiewicz-chain", n=3)
    rows = [list(row) for row in Q.limp_table[("*", "*", "*")]]
    rows[0][2] = 1  # left_imp(0, 1) is 0, not 1/2
    Q.limp_table[("*", "*", "*")] = tuple(map(tuple, rows))
    codes = {i.code for i in validate_quantaloid(Q).issues}
    assert codes == {"residuation.table", "residuation.adjunction"}


def _one_object(hom):
    table = {("*", "*", "*"): tuple(tuple(0 for _ in range(len(hom))) for _ in range(len(hom)))}
    return Quantaloid(("*",), {("*", "*"): hom}, table, {"*": 0}, name="broken")


ANTISYMMETRIC = "x <= y and y <= x for distinct elements"


@pytest.mark.parametrize("hom, issues", [
    pytest.param(HomLattice(("0", "1"), frozenset({(0, 1), (1, 1)})), [
        ("poset.reflexive", ("*", "*", "0"), "x <= x fails"),
        ("lattice.bottom", ("*", "*"), "no least element"),
        ("lattice.meet", ("*", "*", "0", "1"), "pairwise meet missing"),
    ], id="no-reflexive-pair"),
    pytest.param(HomLattice(("0", "a", "1"), frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)})), [
        ("poset.transitive", ("*", "*", "0", "a", "1"), "x <= y <= z but not x <= z"),
        ("lattice.top", ("*", "*"), "no greatest element"),
        ("lattice.bottom", ("*", "*"), "no least element"),
        ("lattice.join", ("*", "*", "0", "1"), "pairwise join missing"),
        ("lattice.meet", ("*", "*", "0", "1"), "pairwise meet missing"),
    ], id="no-transitive-pair"),
    pytest.param(HomLattice.from_labels(("0", "1"), [("0", "1"), ("1", "0")]), [
        ("poset.antisymmetric", ("*", "*", "0", "1"), ANTISYMMETRIC),
        ("poset.antisymmetric", ("*", "*", "1", "0"), ANTISYMMETRIC),
        ("lattice.top", ("*", "*"), "no greatest element"),
        ("lattice.bottom", ("*", "*"), "no least element"),
        ("lattice.join", ("*", "*", "0", "1"), "pairwise join missing"),
        ("lattice.meet", ("*", "*", "0", "1"), "pairwise meet missing"),
    ], id="two-cycle"),
    pytest.param(HomLattice.from_labels(("a", "b"), []), [
        ("lattice.top", ("*", "*"), "no greatest element"),
        ("lattice.bottom", ("*", "*"), "no least element"),
        ("lattice.join", ("*", "*", "a", "b"), "pairwise join missing"),
        ("lattice.meet", ("*", "*", "a", "b"), "pairwise meet missing"),
    ], id="antichain"),
])
def test_broken_hom_laws_are_reported_in_order(hom, issues):
    with pytest.raises(ValidationFailed,
                       match=r"^quantaloid broken failed validation; see the report$") as caught:
        _one_object(hom)
    (report,) = caught.value.reports
    assert [(i.code, i.where, i.detail) for i in report.issues] == issues


# Every preset at the sizes the benchmark builds it, and the two noncommutative
# quantales of the property tests.
BENCHMARK_PRESETS = [("two", {}), *(("lukasiewicz-chain", {"n": n}) for n in (3, 4, 5, 16, 32)),
                     *(("godel-chain", {"n": n}) for n in (3, 16)),
                     *(("frame-diagonal", {"chain": n}) for n in (2, 3, 4, 5)),
                     *(("frame-diagonal", {"boolean": k}) for k in (2, 3))]


def _table_cases():
    for name, params in BENCHMARK_PRESETS:
        label = "-".join([name, *map(str, params.values())])
        yield pytest.param(lambda name=name, params=params: build_preset(name, **params), id=label)
    yield pytest.param(lambda: chain4_quantale("0", "a"), id="NC_AB")
    yield pytest.param(lambda: chain4_quantale("a", "0"), id="NC_BA")


@pytest.mark.parametrize("make", list(_table_cases()))
def test_residuation_tables_match_the_fused_pass(make):
    Q = make()
    assert (Q.limp_table, Q.rimp_table) == oracle_residuation_tables(Q.homs, Q.compose_table)
