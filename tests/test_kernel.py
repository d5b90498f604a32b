"""The integer tables under the quantaloid against brute-force scans."""

import copy
import itertools
import random

import pytest

from _helpers import (
    chain4_quantale,
    oracle_residuation_tables,
    scan_join,
    scan_left_imp,
    scan_meet,
    scan_right_imp,
)
from qfca.concept import fca_lattice, lattice_to_json, rst_lattice
from qfca.presheaf import is_complete
from qfca.errors import InvalidParams, TypeMismatch, ValidationFailed
from qfca.qcat import QCategory
from qfca.qdist import QDistributor, hom_rows
from qfca.quantaloid import (
    Arrow,
    HomLattice,
    Quantaloid,
    _law_report,
    _laws_hold,
    _residuation_tables,
    build_preset,
    validate_quantaloid,
)

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
        assert Q.bottom(p, q) is arrows[scan_join(Q, p, q, [])]
        assert Q.top(p, q) is arrows[scan_meet(Q, p, q, [])]
        # the bounds of every list of up to three arrows, the empty list included
        for r in range(4):
            for idx in itertools.product(range(n), repeat=r):
                picked = [arrows[i] for i in idx]
                assert Q.hom_join(p, q, picked) is arrows[scan_join(Q, p, q, idx)]
                assert Q.hom_meet(p, q, picked) is arrows[scan_meet(Q, p, q, idx)]
        for bound in (Q.hom_join, Q.hom_meet):
            with pytest.raises(TypeMismatch):
                bound(p, q, [arrows[0], Arrow(p, "elsewhere", 0)])
        for i, j in itertools.product(range(n), repeat=2):
            assert Q.leq(arrows[i], arrows[j]) == ((i, j) in hom.leq_pairs)
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
    # warmed first, so the kept code tables exist
    Q = fixdl3.phi.q
    fca_lattice(fixdl3.phi)
    rst_lattice(fixdl3.phi)
    before = _container_sizes(Q)
    for _ in range(2):
        fca_lattice(fixdl3.phi)
        rst_lattice(fixdl3.phi)
    assert _container_sizes(Q) == before


def test_a_first_computation_keeps_nothing_on_the_quantaloid(fixdl3):
    # on a new instance, unlike the shared fixture: an RST lattice, an FCA lattice,
    # their JSON and the completeness test add nothing to Q, not even its opposite,
    # and build no dual of the context or of its categories
    Q = build_preset("frame-diagonal", chain=3)
    A, B = (QCategory(Q, C.objects, C.types, C.hom, name=C.name) for C in (fixdl3.A, fixdl3.B))
    phi = QDistributor(A, B, fixdl3.phi.matrix, name="fresh")
    owners = [Q, *Q.homs.values()]
    before = [set(vars(o)) for o in owners]
    for compute in (lambda: lattice_to_json(rst_lattice(phi)),
                    lambda: lattice_to_json(fca_lattice(phi)),
                    lambda: is_complete(A) or is_complete(B)):
        compute()
        assert [set(vars(o)) - names for o, names in zip(owners, before)] == \
            [set()] * len(owners)
    assert [x for x in (phi, A, B) if "_dual" in vars(x)] == []


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


# The six quantaloids of the property tests, and two larger presets.
DECISION_CASES = [("two", {}), ("lukasiewicz-chain", {"n": 3}), ("godel-chain", {"n": 3}),
                  ("frame-diagonal", {"chain": 3}), ("lukasiewicz-chain", {"n": 16}),
                  ("frame-diagonal", {"boolean": 2})]

# the hom of each table's entries, by the triple's positions
ENTRY_HOM = {"compose_table": (0, 2), "limp_table": (1, 2), "rimp_table": (0, 1)}


def _decision_cases():
    for name, params in DECISION_CASES:
        label = "-".join([name, *map(str, params.values())])
        yield pytest.param(lambda name=name, params=params: build_preset(name, **params), id=label)
    yield pytest.param(lambda: chain4_quantale("0", "a"), id="NC_AB")
    yield pytest.param(lambda: chain4_quantale("a", "0"), id="NC_BA")


def _with_entry(Q, rnd, attr, rebuild=False):
    """``Q`` with one drawn entry of one table redrawn: in place, so the other
    tables stay as they were, or for the composition table also rebuilt, so
    the residuation tables follow it.  A residuation entry may be drawn one
    past the end of its hom, which the scan reports as a wrong table entry."""
    table = dict(getattr(Q, attr))
    key = rnd.choice(sorted(table))
    rows = [list(row) for row in table[key]]
    row = rnd.choice(rows)
    size = len(Q.hom(*(key[i] for i in ENTRY_HOM[attr])))
    row[rnd.randrange(len(row))] = rnd.randrange(size if attr == "compose_table" else size + 1)
    table[key] = tuple(map(tuple, rows))
    if rebuild:
        return Quantaloid(Q.objects, Q.homs, table, Q.units, name="redrawn")
    R = copy.copy(Q)
    R.__dict__.pop("_opposite", None)
    setattr(R, attr, table)
    return R


@pytest.mark.parametrize("make", list(_decision_cases()))
def test_the_table_decision_matches_the_scan(make):
    # the decision on bytes against the entrywise scan that writes the report,
    # on single-entry corruptions of each table
    Q, rnd, verdicts = make(), random.Random(22), set()
    assert _laws_hold(Q) and _law_report(Q).ok
    for attr, rebuild in [("compose_table", False), ("compose_table", True),
                          ("limp_table", False), ("rimp_table", False)]:
        for _ in range(12):
            R = _with_entry(Q, rnd, attr, rebuild)
            for S in (R, R.opposite()) if rebuild else (R,):
                scan = _law_report(S)
                assert _laws_hold(S) == scan.ok, (attr, rebuild)
                assert validate_quantaloid(S).to_json() == scan.to_json()
                verdicts.add(scan.ok)
    assert False in verdicts


def test_residuation_tables_read_homs_wider_than_a_byte():
    # entries of a 300-element chain do not fit in a byte, nor do the flags of
    # its down-sets fit a translate table
    wide = HomLattice.from_labels([str(i) for i in range(300)],
                                  [(str(i), str(i + 1)) for i in range(299)])
    small = HomLattice.from_labels(["0", "a", "b", "1"],
                                   [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    homs = {("a", "b"): small, ("b", "c"): small, ("a", "c"): wide, ("c", "d"): wide,
            ("b", "d"): small}
    rnd = random.Random(5)
    for _ in range(20):
        compose = {
            ("a", "b", "c"): [[rnd.randrange(300) for _ in range(4)] for _ in range(4)],
            ("b", "c", "d"): [[rnd.randrange(4) for _ in range(4)] for _ in range(300)],
        }
        assert _residuation_tables(homs, compose) == oracle_residuation_tables(homs, compose)


def test_pairwise_bounds_match_the_cone_search():
    # joins and meets by the principal cone on a poset, by the cone search on
    # anything else: both against HomLattice.bound
    rnd = random.Random(7)
    for _ in range(300):
        n = rnd.randint(1, 6)
        labels = [str(i) for i in range(n)]
        pairs = {(i, j) for i in range(n) for j in range(n) if rnd.random() < 0.4}
        homs = [HomLattice(labels, frozenset(pairs)),
                HomLattice.from_labels(labels, [(labels[i], labels[j]) for i, j in pairs]),
                HomLattice.from_labels(labels, [(labels[i], labels[j]) for i, j in pairs if i < j])]
        for hom in homs:
            for i, j in itertools.product(range(n), repeat=2):
                assert hom.joins[i][j] == hom.bound((i, j), hom.up)
                assert hom.meets[i][j] == hom.bound((i, j), hom.down)
        assert not homs[2].issues or homs[2].issues[0][0].startswith("lattice.")


def test_a_shared_table_keeps_the_unit_law_of_each_triple():
    # one table object serves (x, z, x), which carries no unit law, and the
    # later (x, z, z), whose left unit law it breaks; the unit index is 0, so a
    # memo key holding ``q == r and unit`` would read 0 there and False at
    # (x, z, x), which are equal keys.  Every other law holds: (z, x, z) gets
    # an equal table of its own, every other triple the meet.
    top_first = HomLattice.from_labels(("1", "0"), [("0", "1")])
    meet, bottom = ((0, 1), (1, 1)), ((1, 1), (1, 1))
    objects = ("x", "z")
    compose = {t: meet for t in itertools.product(objects, repeat=3)}
    compose[("x", "z", "x")] = compose[("x", "z", "z")] = bottom
    compose[("z", "x", "z")] = tuple(map(tuple, bottom))
    Q = Quantaloid(objects, {pq: top_first for pq in itertools.product(objects, repeat=2)},
                   compose, {"x": 0, "z": 0}, name="shared")
    assert Q.compose_table[("x", "z", "x")] is Q.compose_table[("x", "z", "z")]
    # the opposite shares the transposed table between (x, z, x) and (z, z, x)
    for R, issue in ((Q, ("unit.left", ("x", "z", "1"))),
                     (Q.opposite(), ("unit.right", ("z", "x", "1")))):
        scan = _law_report(R)
        assert [(i.code, i.where) for i in scan.issues] == [issue]
        assert not _laws_hold(R)
        assert validate_quantaloid(R).to_json() == scan.to_json()


@pytest.mark.parametrize("params, homs, tables", [
    pytest.param({"boolean": 3}, 8, 125, id="boolean-3"),
    pytest.param({"chain": 5}, 5, 35, id="chain-5"),
])
def test_frame_diagonal_builds_each_distinct_hom_and_table_once(params, homs, tables):
    # one hom per element of the frame and one table per distinct meet triple;
    # the residuations and the opposite's transposes follow the tables
    Q = build_preset("frame-diagonal", **params)

    def distinct(values):
        return len({id(value) for value in values})

    for R in (Q, Q.opposite()):
        assert distinct(R.homs.values()) == homs
        assert [distinct(R.compose_table.values()), distinct(R.limp_table.values()),
                distinct(R.rimp_table.values())] == [tables] * 3


def test_one_table_object_over_different_homs_is_read_per_homs():
    # the memo keys name the homs as well as the table: the same rows are
    # residuated against each triple's own homs, and checked against each
    # triple's own codomain
    diamond = HomLattice.from_labels(DIAMOND, DIAMOND_LEQ)
    chain = HomLattice.from_labels("0123", [("0", "1"), ("1", "2"), ("2", "3")])
    homs = {("a", "b"): diamond, ("b", "c"): diamond, ("a", "c"): diamond,
            ("c", "d"): chain, ("b", "d"): chain}
    rnd = random.Random(9)
    for _ in range(20):
        table = [[rnd.randrange(4) for _ in range(4)] for _ in range(4)]
        compose = {("a", "b", "c"): table, ("b", "c", "d"): table}
        assert _residuation_tables(homs, compose) == oracle_residuation_tables(homs, compose)
    two = HomLattice.from_labels("01", [("0", "1")])
    three = HomLattice.from_labels("012", [("0", "1"), ("1", "2")])
    objects = ("x", "y")
    homs = {pq: two for pq in itertools.product(objects, repeat=2)}
    homs[("x", "x")] = three
    compose = {(p, q, r): [[0] * len(homs[(p, q)])] * len(homs[(q, r)])
               for p, q, r in itertools.product(objects, repeat=3)}
    # an index of hom (x, x) at (x, y, x), out of range in hom (y, y) at (y, y, y)
    compose[("x", "y", "x")] = compose[("y", "y", "y")] = [[0, 2], [0, 0]]
    with pytest.raises(InvalidParams,
                       match=r"^compose table for \(y,y,y\) has entry 2 at \[0\]\[1\]"):
        Quantaloid(objects, homs, compose, {"x": 2, "y": 1})


def test_the_decision_reads_each_triples_own_homs():
    # every triple of a two-object quantaloid holds the same three table
    # objects; the copy reorders hom (y, y) so that they break the adjunction
    # there, which only a decision keyed by the homs as well can see
    chain = HomLattice.from_labels("01", [("0", "1")])
    objects = ("x", "y")
    Q = Quantaloid(objects, {pq: chain for pq in itertools.product(objects, repeat=2)},
                   {t: ((0, 0), (0, 1)) for t in itertools.product(objects, repeat=3)},
                   {"x": 1, "y": 1}, name="shared")
    assert len({id(t) for t in Q.limp_table.values()}) == 1
    assert _laws_hold(Q)
    R = copy.copy(Q)
    R.homs = {**Q.homs, ("y", "y"): HomLattice.from_labels("10", [("0", "1")])}
    scan = _law_report(R)
    assert not scan.ok and not _laws_hold(R)
    assert validate_quantaloid(R).to_json() == scan.to_json()
