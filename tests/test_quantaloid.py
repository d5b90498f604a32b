import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qfca.quantaloid as quantaloid
from _helpers import chain4_quantale
from qfca.errors import InvalidParams, NotGirard, ValidationFailed
from qfca.quantaloid import (
    Arrow,
    HomLattice,
    Quantaloid,
    build_preset,
    complement_arrow,
    find_cyclic_dualizing_family,
    is_cyclic_family,
    is_dualizing_family,
    validate_quantaloid,
)


def frac(Q, a):
    return Fraction(Q.label(a))


def luk_tensor(a, b):
    return max(Fraction(0), a + b - 1)


def test_compose_two(two):
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    assert two.compose(one, one) == one
    assert two.compose(one, zero) == zero


def test_compose_luk3_arithmetic_oracle(luk3):
    # every product must match Fraction arithmetic of the Lukasiewicz tensor
    for v in luk3.arrows("*", "*"):
        for u in luk3.arrows("*", "*"):
            assert frac(luk3, luk3.compose(v, u)) == luk_tensor(frac(luk3, v), frac(luk3, u))
    half = luk3.arrow("*", "*", "1/2")
    assert luk3.label(luk3.compose(half, half)) == "0"


def test_left_imp_two(two):
    one, zero = two.arrow("*", "*", "1"), two.arrow("*", "*", "0")
    assert two.left_imp(zero, one) == zero
    assert two.left_imp(zero, zero) == one


def test_left_imp_luk3_join_oracle(luk3):
    # independent oracle: max of the Fractions v with tensor(v, u) <= w
    for w in luk3.arrows("*", "*"):
        for u in luk3.arrows("*", "*"):
            expect = max(frac(luk3, v) for v in luk3.arrows("*", "*")
                         if luk_tensor(frac(luk3, v), frac(luk3, u)) <= frac(luk3, w))
            assert frac(luk3, luk3.left_imp(w, u)) == expect
    half, zero = luk3.arrow("*", "*", "1/2"), luk3.arrow("*", "*", "0")
    assert luk3.label(luk3.left_imp(zero, half)) == "1/2"


def test_hom_join_meet(two, luk3):
    assert two.label(two.hom_join("*", "*", [])) == "0"
    assert two.label(two.hom_meet("*", "*", [])) == "1"
    half, zero = luk3.arrow("*", "*", "1/2"), luk3.arrow("*", "*", "0")
    assert luk3.hom_join("*", "*", [zero, half]) == half


def test_validate_presets(presets):
    for Q in presets.values():
        assert validate_quantaloid(Q).ok


def test_validate_broken_associativity(two):
    # min-composition except m.1 := 0; then (m.1).m = 0 but m.(1.m) = m
    hom = HomLattice.from_labels(("0", "m", "1"), [("0", "m"), ("m", "1")])
    idx = {e: i for i, e in enumerate(hom.elements)}

    def godel(a, b):
        return min(a, b, key=lambda e: idx[e])

    table = [[idx[godel(v, u)] for u in hom.elements] for v in hom.elements]
    table[idx["m"]][idx["1"]] = idx["0"]
    Q = Quantaloid(("*",), {("*", "*"): hom},
                   {("*", "*", "*"): tuple(tuple(r) for r in table)},
                   {"*": idx["1"]}, name="broken")
    report = validate_quantaloid(Q)
    assert not report.ok
    hits = [i for i in report.issues if i.code == "compose.associative"]
    assert hits and ("m", "1", "m") in {i.where for i in hits}


def test_residuation_refuses_a_hom_that_is_not_a_lattice():
    # the antichain {a, b} has no bottom, so the empty join that left_imp(a, b)
    # and right_imp(b, a) would need is missing: no residuation table is built
    hom = HomLattice.from_labels(("a", "b"), [])
    with pytest.raises(ValidationFailed, match="^quantaloid antichain failed validation") as caught:
        Quantaloid(("*",), {("*", "*"): hom}, {("*", "*", "*"): ((0, 1), (1, 1))},
                   {"*": 0}, name="antichain")
    (report,) = caught.value.reports
    assert [(i.code, i.where) for i in report.issues] == [
        ("lattice.top", ("*", "*")), ("lattice.bottom", ("*", "*")),
        ("lattice.join", ("*", "*", "a", "b")), ("lattice.meet", ("*", "*", "a", "b"))]


def test_compose_entries_and_units_must_index_their_homs(two):
    # an index is an int: a float, a string or a bool is refused even where it equals one
    for entry in (5, 1.0, "1", True):
        with pytest.raises(InvalidParams, match=rf"^compose table for \(\*,\*,\*\) has entry "
                                                rf"{entry!r} at \[1\]\[1\], not an index of "
                                                r"hom \(\*,\*\)$"):
            Quantaloid(two.objects, two.homs, {("*", "*", "*"): ((0, 0), (0, entry))}, two.units)
    with pytest.raises(InvalidParams, match=r"^compose table for \(\*,\*,\*\) has entry -1 at "
                                            r"\[0\]\[1\], not an index of hom \(\*,\*\)$"):
        Quantaloid(two.objects, two.homs, {("*", "*", "*"): ((0, -1), (0, 1))}, two.units)
    for unit in (9, -1, "1", True, 1.0):
        with pytest.raises(InvalidParams, match=rf"^unit {unit!r} of object \* is not an index "
                                                r"of hom \(\*,\*\)$"):
            Quantaloid(two.objects, two.homs, two.compose_table, {"*": unit})


def test_residuation_adjunction_exhaustive(presets):
    for Q in presets.values():
        for p, q, r in itertools.product(Q.objects, repeat=3):
            for u in Q.arrows(p, q):
                for v in Q.arrows(q, r):
                    for w in Q.arrows(p, r):
                        left = Q.leq(Q.compose(v, u), w)
                        assert left == Q.leq(v, Q.left_imp(w, u))
                        assert left == Q.leq(u, Q.right_imp(v, w))


def test_derived_residuation_identities(presets):
    # (w <l v) <l u == w <l (u.v)   and   u >r (v >r w) == (v.u) >r w
    for Q in presets.values():
        for p, q, r, s in itertools.product(Q.objects, repeat=4):
            for v in Q.arrows(p, q):
                for u in Q.arrows(q, r):
                    for w in Q.arrows(p, s):
                        assert Q.left_imp(Q.left_imp(w, v), u) == \
                            Q.left_imp(w, Q.compose(u, v))
        for p, q, r, s in itertools.product(Q.objects, repeat=4):
            for u in Q.arrows(s, q):
                for v in Q.arrows(q, r):
                    for w in Q.arrows(p, r):
                        assert Q.right_imp(u, Q.right_imp(v, w)) == \
                            Q.right_imp(Q.compose(v, u), w)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_join_preservation_random_subsets(data):
    Q = build_preset("frame-diagonal", chain=3)
    p = data.draw(st.sampled_from(Q.objects))
    q = data.draw(st.sampled_from(Q.objects))
    r = data.draw(st.sampled_from(Q.objects))
    u = data.draw(st.sampled_from(Q.arrows(p, q)))
    sub = data.draw(st.lists(st.sampled_from(Q.arrows(q, r)), max_size=4))
    lhs = Q.compose(Q.hom_join(q, r, sub), u)
    rhs = Q.hom_join(p, r, [Q.compose(v, u) for v in sub])
    assert lhs == rhs


def test_family_luk3(luk3):
    fam = find_cyclic_dualizing_family(luk3)
    assert fam.cyclic and fam.dualizing
    assert fam.labels(luk3) == {"*": "0"}


def test_family_godel3(godel3):
    fam = find_cyclic_dualizing_family(godel3)
    assert fam.cyclic and not fam.dualizing
    # the defining failure: (0 <l 1/2) >r 0 = 1 != 1/2
    zero, half = godel3.arrow("*", "*", "0"), godel3.arrow("*", "*", "1/2")
    assert godel3.label(godel3.right_imp(godel3.left_imp(zero, half), zero)) == "1"


def test_family_diag3_cyclic_not_dualizing(diag3):
    fam = find_cyclic_dualizing_family(diag3)
    assert fam.cyclic and not fam.dualizing
    assert set(fam.labels(diag3).values()) == {"0"}
    bottoms = {q: diag3.bottom(q, q) for q in diag3.objects}
    assert is_cyclic_family(diag3, bottoms)
    assert not is_dualizing_family(diag3, bottoms)


def test_family_boolean_diagonal_is_girard(diagb4):
    fam = find_cyclic_dualizing_family(diagb4)
    assert fam is not None and fam.dualizing


def test_dualizing_fails_on_its_second_clause():
    # in NC_BA, d = 0 passes both clauses at u = 0 and the first, but not
    # the second, at u = a, the next arrow the check visits
    Q = chain4_quantale("a", "0")
    zero, a = Q.arrows("*", "*")[:2]
    assert [Q.right_imp(Q.left_imp(zero, u), zero) for u in (zero, a)] == [zero, a]
    assert [Q.left_imp(zero, Q.right_imp(u, zero)) == u for u in (zero, a)] == [True, False]
    assert not is_dualizing_family(Q, {"*": zero})


def test_found_families_hold_the_interned_arrows(presets):
    for Q in [*presets.values(), chain4_quantale("0", "a"), chain4_quantale("a", "0")]:
        fam = find_cyclic_dualizing_family(Q)
        assert [q for q, _ in fam.d] == sorted(Q.objects)
        assert all(a is Q.arrows(q, q)[a.index] for q, a in fam.d)


def test_the_tops_are_a_cyclic_family(presets):
    # left_imp(top, u) and right_imp(u, top) are both the top of their hom,
    # so a valid quantaloid always has a cyclic family
    for Q in [*presets.values(), chain4_quantale("0", "a"), chain4_quantale("a", "0")]:
        assert is_cyclic_family(Q, {q: Q.top(q, q) for q in Q.objects})


def test_complement(two, luk3):
    fam = find_cyclic_dualizing_family(luk3)
    half, one, zero = (luk3.arrow("*", "*", x) for x in ("1/2", "1", "0"))
    assert complement_arrow(luk3, fam, half) == half
    assert complement_arrow(luk3, fam, one) == zero
    fam2 = find_cyclic_dualizing_family(two)
    assert two.label(complement_arrow(two, fam2, two.arrow("*", "*", "0"))) == "1"


def test_complement_involution(presets):
    for name in ("two", "luk3", "diagb4"):
        Q = presets[name]
        fam = find_cyclic_dualizing_family(Q)
        for u in Q.all_arrows():
            assert complement_arrow(Q, fam, complement_arrow(Q, fam, u)) == u


def test_complement_requires_dualizing(godel3):
    fam = find_cyclic_dualizing_family(godel3)
    with pytest.raises(NotGirard):
        complement_arrow(godel3, fam, godel3.arrow("*", "*", "1/2"))


def test_family_search_budget(luk3, monkeypatch):
    from qfca.errors import SearchBudgetExceeded
    monkeypatch.setenv("QFCA_BUDGET", "2")
    with pytest.raises(SearchBudgetExceeded):
        find_cyclic_dualizing_family(luk3)


def test_build_preset_two():
    Q = build_preset("two")
    assert len(Q.objects) == 1 and len(Q.hom("*", "*")) == 2


def test_frame_diagonal_hom_sizes(diag3):
    # the hom at (0, q) is the downset of 0: exactly one arrow
    for q in diag3.objects:
        assert len(diag3.hom("0", q)) == 1


def test_frame_diagonal_implication_formula(diag3):
    # left implications match the frame formula: meet(q, r, u -> w)
    L = [Fraction(x) for x in diag3.objects]

    def heyting(a, b):
        return max([x for x in L if min(x, a) <= b])

    for p, q, r in itertools.product(diag3.objects, repeat=3):
        for u in diag3.arrows(p, q):
            for w in diag3.arrows(p, r):
                expect = min(Fraction(q), Fraction(r),
                             heyting(Fraction(diag3.label(u)), Fraction(diag3.label(w))))
                assert Fraction(diag3.label(diag3.left_imp(w, u))) == expect


def test_build_preset_errors():
    with pytest.raises(InvalidParams):
        build_preset("no-such-thing")
    with pytest.raises(InvalidParams):
        build_preset("frame-diagonal")


def test_build_preset_checks_parameters():
    with pytest.raises(InvalidParams, match="parameter 'n' must be an integer, got 'x'"):
        build_preset("lukasiewicz-chain", n="x")
    with pytest.raises(InvalidParams, match="parameter 'chain' must be an integer"):
        build_preset("frame-diagonal", chain=2.5)
    with pytest.raises(InvalidParams, match="takes no parameter 'bogus'"):
        build_preset("lukasiewicz-chain", n=3, bogus=1)
    with pytest.raises(InvalidParams, match="takes no parameter 'n'"):
        build_preset("two", n=2)
    with pytest.raises(InvalidParams, match="takes no parameter 'name'"):
        build_preset("commutative-quantale-from-table", name="x")
    assert build_preset("godel-chain", n="4").name == "godel-4"


def test_integer_parameters_are_ascii_digit_strings():
    for value in ("1_0", " +4 ", "\u0663", "-3", ""):
        with pytest.raises(InvalidParams) as caught:
            build_preset("godel-chain", n=value)
        assert str(caught.value) == f"parameter 'n' must be an integer, got {value!r}"


def test_build_preset_refuses_bools_and_two_frames():
    # a JSON true or false is no integer, although Python counts it as one
    for name, key, value in [("frame-diagonal", "chain", True),
                             ("frame-diagonal", "boolean", False),
                             ("lukasiewicz-chain", "n", True),
                             ("godel-chain", "n", False)]:
        with pytest.raises(InvalidParams,
                           match=f"^parameter '{key}' must be an integer, got {value}$"):
            build_preset(name, **{key: value})
    with pytest.raises(InvalidParams, match="^frame-diagonal takes chain=<n> or boolean=<k>, "
                                            "not both$"):
        build_preset("frame-diagonal", chain=2, boolean=3)


def test_table_preset_names_unknown_labels_and_missing_parameters():
    params = dict(elements=["0", "1"], leq=[("0", "1")], unit="1",
                  products=[("0", "0", "0"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "1")])
    with pytest.raises(InvalidParams, match="unknown arrow label 'zz'"):
        build_preset("commutative-quantale-from-table", **{**params, "leq": [("0", "zz")]})
    for key in params:
        rest = {k: v for k, v in params.items() if k != key}
        with pytest.raises(InvalidParams, match=f"missing parameter '{key}'"):
            build_preset("commutative-quantale-from-table", **rest)


def test_table_preset_refuses_a_table_that_fails_validation():
    # on the chain 0 < a < 1 with unit 1, a.a = 1 is not below a.1 = a
    el = ["0", "a", "1"]
    products = [(x, y, "0" if "0" in (x, y) else y if x == "1" else x if y == "1" else "1")
                for x in el for y in el]
    with pytest.raises(InvalidParams, match="^preset 'commutative-quantale-from-table' "
                                            "failed validation: "):
        build_preset("commutative-quantale-from-table", elements=el,
                     leq=list(zip(el, el[1:])), products=products, unit="1")


def test_table_preset_refuses_a_hom_that_is_not_a_lattice():
    # a and b are both above 0 with no upper bound in common
    el = ["0", "a", "b"]
    with pytest.raises(InvalidParams) as caught:
        build_preset("commutative-quantale-from-table", elements=el,
                     leq=[("0", "a"), ("0", "b")],
                     products=[(x, y, "0") for x in el for y in el], unit="a")
    assert str(caught.value) == (
        "preset 'commutative-quantale-from-table' failed validation: "
        "[Issue(code='lattice.top', where=('*', '*'), detail='no greatest element'), "
        "Issue(code='lattice.join', where=('*', '*', 'a', 'b'), "
        "detail='pairwise join missing')]")


def test_quantale_from_table():
    Q = build_preset(
        "commutative-quantale-from-table",
        elements=["0", "1"], leq=[("0", "1")],
        products=[("0", "0", "0"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "1")],
        unit="1")
    assert validate_quantaloid(Q).ok


def test_opposite_involution(diag3):
    op = diag3.opposite()
    assert op.opposite() is diag3
    for u in diag3.all_arrows():
        assert op.dual_arrows(diag3.dual_arrows([u]))[0] is u
    # composition reverses through duality
    a = diag3.arrow
    u, v = a("1", "2", "0"), a("2", "2", "1")
    du, dv = diag3.dual_arrows([u, v])
    assert op.compose(du, dv) is diag3.dual_arrows([diag3.compose(v, u)])[0]


# sha256 (first 16 hex digits) of the objects, each hom's elements and leq
# pairs, the compose tables, the units and the name, recorded when the frames
# were built by a separate lattice class; the presets must not change.
FRAME_DIAGONAL_DIGESTS = {
    ("chain", 1): "7839f211b6c02b8f", ("chain", 2): "2de4d5fd36445dd9",
    ("chain", 3): "706ddd2e5532b76c", ("chain", 4): "1aa96951b309524b",
    ("chain", 5): "ed48d4494a84a77d", ("boolean", 0): "5be4a56797790a5f",
    ("boolean", 1): "d8d29fd6e3d5d091", ("boolean", 2): "d6f510b4ab76572c",
    ("boolean", 3): "bc1b948989f5fb7d",
}

# The same digest of the chain presets, recorded when each built its own
# product table.
CHAIN_DIGESTS = {
    ("two", None): "592061b8c7ab239c",
    ("lukasiewicz-chain", 2): "e7d0cbaca54b1bd8", ("lukasiewicz-chain", 3): "81b94ed01a54f56e",
    ("lukasiewicz-chain", 4): "0c1575a998536c14", ("lukasiewicz-chain", 5): "2c5adafa20505d1c",
    ("lukasiewicz-chain", 6): "c971bf6e4926eb7e", ("lukasiewicz-chain", 32): "f7ef1c19ffeaf3d5",
    ("godel-chain", 2): "a719e8d49a16cba0", ("godel-chain", 3): "2b870eb03d1182e8",
    ("godel-chain", 4): "4a2debaa51b2258e", ("godel-chain", 5): "e97e49999621f8df",
    ("godel-chain", 6): "3a55523141e7ec5d",
}


def _table_digest(Q):
    import hashlib
    import json

    homs = {f"{p}->{q}": [list(h.elements),
                          sorted([h.elements[i], h.elements[j]] for i, j in h.leq_pairs)]
            for (p, q), h in sorted(Q.homs.items())}
    comp = {",".join(k): [list(r) for r in t] for k, t in sorted(Q.compose_table.items())}
    units = {q: Q.homs[(q, q)].elements[i] for q, i in sorted(Q.units.items())}
    blob = json.dumps([list(Q.objects), homs, comp, units, Q.name], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_frame_diagonal_tables_are_pinned():
    for (key, n), expected in FRAME_DIAGONAL_DIGESTS.items():
        assert _table_digest(build_preset("frame-diagonal", **{key: n})) == expected, (key, n)
    for key, n in (("chain", 0), ("boolean", -1), ("boolean", 7)):
        with pytest.raises(InvalidParams):
            build_preset("frame-diagonal", **{key: n})


def test_chain_preset_tables_are_pinned():
    for (name, n), expected in CHAIN_DIGESTS.items():
        params = {} if n is None else {"n": n}
        assert _table_digest(build_preset(name, **params)) == expected, (name, n)
    for name in ("lukasiewicz-chain", "godel-chain"):
        with pytest.raises(InvalidParams, match=r"chain presets need n >= 2"):
            build_preset(name, n=1)


class _Table(Exception):
    """Carries the table that a chain preset hands to the quantale builder."""


def test_chain_presets_match_fraction_arithmetic(monkeypatch):
    # the labels and products against the fractions i/(n-1) and each tensor on
    # them; the quantale is not built, so every n up to 64 stays cheap
    def capture(elements, leq, products, unit, name):
        raise _Table(list(elements), list(leq), list(products), unit)

    monkeypatch.setattr(quantaloid, "_quantale_from_table", capture)
    cases = [("two", 2, min)] + [(name, n, tensor) for n in range(2, 65) for name, tensor in
                                 (("godel-chain", min), ("lukasiewicz-chain", luk_tensor))]
    for name, n, tensor in cases:
        with pytest.raises(_Table) as table:
            build_preset(name, **({} if name == "two" else {"n": n}))
        values = [Fraction(i, n - 1) for i in range(n)]
        labels = [str(v) for v in values]
        products = [(str(a), str(b), str(tensor(a, b))) for a in values for b in values]
        assert table.value.args == (labels, list(zip(labels, labels[1:])), products, "1"), (
            name, n)


def _luk3_with(v, u, k):
    """lukasiewicz-chain n=3 with v.u set to the k-th element, rebuilt."""
    Q = build_preset("lukasiewicz-chain", n=3)
    rows = [list(row) for row in Q.compose_table[("*", "*", "*")]]
    rows[v][u] = k
    return Quantaloid(Q.objects, Q.homs, {("*", "*", "*"): rows}, Q.units, name="corrupted")


def _issues(Q, codes):
    return [(i.code, i.where, i.detail) for i in validate_quantaloid(Q).issues if i.code in codes]


def test_validator_reports_units_and_join_preservation():
    # elements 0, 1/2, 1 by index; the unit is 1
    assert _issues(_luk3_with(2, 1, 0), {"unit.left"}) == [
        ("unit.left", ("*", "*", "1/2"), "1.u != u")]
    assert _issues(_luk3_with(0, 2, 1), {"compose.joins.left", "compose.joins.right"}) == [
        ("compose.joins.left", ("*", "*", "*", "1"), "bottom.u != bottom")]
    assert _issues(_luk3_with(1, 0, 1), {"compose.joins.left", "compose.joins.right"}) == [
        ("compose.joins.left", ("1/2", "1", "0"), "(v1 v v2).u != v1.u v v2.u"),
        ("compose.joins.right", ("*", "*", "*", "1/2"), "v.bottom != bottom"),
        ("compose.joins.right", ("1/2", "0", "1/2"), "v.(u1 v u2) != v.u1 v v.u2")]


def test_validator_rescans_the_right_residuation_table():
    Q = build_preset("lukasiewicz-chain", n=3)
    rows = [list(row) for row in Q.rimp_table[("*", "*", "*")]]
    rows[1][0] = 2  # right_imp(1/2, 0) is 1/2, not 1
    Q.rimp_table[("*", "*", "*")] = tuple(map(tuple, rows))
    assert _issues(Q, {"residuation.table"}) == [
        ("residuation.table", ("*", "*", "*", "1/2", "0"),
         "right_imp(v, w) is not the join of the u with v.u <= w")]
