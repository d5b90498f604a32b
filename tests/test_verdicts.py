"""Per-condition verdicts of the verifiers on corrupted quantaloid tables.

Each case replaces one entry of the ``limp_table``, ``rimp_table`` or
``compose_table`` of ``lukasiewicz-chain n=3`` by another element, then runs
``verify_adjunction_laws`` and the lemma check ``verify_transpose_identities``
of ``_helpers`` on a fixed 2x2 discrete context and ``verify_yoneda`` on its
row category.  The pinned outcome names, in report order, the conditions
that fail (or the class of the exception raised).  A verifier that checks a
law on the wrong side, or pairs a unit with the wrong counit, changes some of
these verdicts.

The same corruptions also pin ``verify_elementary_identities`` and
``quantale_corollary_check`` on ``canonical_elementary_data`` for both kinds,
each failed condition with the counterexample its detail names.
"""

import itertools

import pytest

from qfca.errors import QfcaError
from qfca.qcat import QTypedSet, discrete_category
from qfca.qdist import QDistributor
from qfca.quantaloid import build_preset
from qfca.represent import (
    _elementary,
    canonical_elementary_data,
    quantale_corollary_check,
    verify_adjunction_laws,
    verify_elementary_identities,
    verify_yoneda,
)

from _helpers import elementary_oracle_grid, failed_names, verify_transpose_identities

SHORT = {"polarity-unit": "pu", "polarity-counit": "pc", "extension-unit": "eu",
         "extension-counit": "ec", "dual-extension-unit": "du", "dual-extension-counit": "dc",
         "factor-through-presheaves": "fp", "factor-through-copresheaves": "fc",
         "cotranspose-via-adjunctions": "ca", "transpose-via-adjunctions": "ta",
         "presheaf-half": "yp", "copresheaf-half": "yc"}
CONTEXT = (("1/2", "0"), ("1", "1/2"))

# (table, row, column, new entry): "adjunction laws | transpose identities |
# yoneda", each the failed conditions by SHORT name, "-" for none, or the class
# of the exception raised
PINNED = {
    ("limp", 0, 0, 0): "pc eu | ca | yp",
    ("limp", 0, 0, 1): "pc eu | - | yp",
    ("limp", 0, 1, 0): "pc eu | - | -",
    ("limp", 0, 1, 2): "pu ec | fp | -",
    ("limp", 0, 2, 1): "pu ec | fp ca | yp",
    ("limp", 0, 2, 2): "pu ec | fp ca | yp",
    ("limp", 1, 0, 0): "pc eu | fp ca | yp",
    ("limp", 1, 0, 1): "pc eu | fp ca | yp",
    ("limp", 1, 1, 0): "pc eu | - | -",
    ("limp", 1, 1, 1): "pc eu | - | -",
    ("limp", 1, 2, 0): "pc eu | fp ca | yp",
    ("limp", 1, 2, 2): "pu ec | fp ca | yp",
    ("limp", 2, 0, 0): "- | ca | yp",
    ("limp", 2, 0, 1): "- | - | yp",
    ("limp", 2, 1, 0): "pc eu | - | -",
    ("limp", 2, 1, 1): "pc eu | - | -",
    ("limp", 2, 2, 0): "pc eu | fp ca | yp",
    ("limp", 2, 2, 1): "pc eu | fp ca | yp",
    ("rimp", 0, 0, 0): "pu dc | ta | yc",
    ("rimp", 0, 0, 1): "pu dc | - | yc",
    ("rimp", 0, 1, 0): "pu dc | fc ta | yc",
    ("rimp", 0, 1, 1): "pu dc | fc ta | yc",
    ("rimp", 0, 2, 0): "- | ta | yc",
    ("rimp", 0, 2, 1): "- | - | yc",
    ("rimp", 1, 0, 0): "pu dc | - | -",
    ("rimp", 1, 0, 2): "pc du | fc | -",
    ("rimp", 1, 1, 0): "pu dc | - | -",
    ("rimp", 1, 1, 1): "pu dc | - | -",
    ("rimp", 1, 2, 0): "pu dc | - | -",
    ("rimp", 1, 2, 1): "pu dc | - | -",
    ("rimp", 2, 0, 1): "pc du | fc ta | yc",
    ("rimp", 2, 0, 2): "pc du | fc ta | yc",
    ("rimp", 2, 1, 0): "pu dc | fc ta | yc",
    ("rimp", 2, 1, 2): "pc du | fc ta | yc",
    ("rimp", 2, 2, 0): "pu dc | fc ta | yc",
    ("rimp", 2, 2, 1): "pu dc | fc ta | yc",
    ("compose", 0, 0, 1): "- | - | -",
    ("compose", 0, 0, 2): "- | QfcaError | -",
    ("compose", 0, 1, 1): "ec du | QfcaError | -",
    ("compose", 0, 1, 2): "ec du | QfcaError | -",
    ("compose", 0, 2, 1): "du | QfcaError | -",
    ("compose", 0, 2, 2): "du | QfcaError | -",
    ("compose", 1, 0, 1): "ec du | QfcaError | -",
    ("compose", 1, 0, 2): "ec du | QfcaError | -",
    ("compose", 1, 1, 1): "ec du | fp fc | -",
    ("compose", 1, 1, 2): "ec du | fp fc | -",
    ("compose", 1, 2, 0): "eu dc | ca | -",
    ("compose", 1, 2, 2): "du | QfcaError | -",
    ("compose", 2, 0, 1): "ec | QfcaError | -",
    ("compose", 2, 0, 2): "ec | QfcaError | -",
    ("compose", 2, 1, 0): "eu dc | ta | -",
    ("compose", 2, 1, 2): "ec | QfcaError | -",
    ("compose", 2, 2, 0): "eu dc | fp fc ca ta | -",
    ("compose", 2, 2, 1): "eu dc | fp fc ca ta | -",
}

# the conditions that the elementary verifiers report failed somewhere below,
# and the formula that each detail states before its counterexample
ELEMENTARY = {
    "polarity-hom": ("ph", "hom(up(tensor(a,u)), cotensor(b,v)) == "
                           "right_imp(v, left_imp(phi(a,b), u))"),
    "kan-hom": ("kh", "hom(star(tensor(b,v)), residual(a,u)) == "
                      "left_imp(left_imp(u, phi(a,b)), v)"),
    "separated": ("se", ""),
    "complete": ("co", ""),
    "join-dense-F": ("jf", ""),
    "meet-dense-G": ("mg", ""),
    "hom-identity": ("hi", "X(F(.), G(.)) equals the double residuation of the entry"),
    "formal-concept-biconditional": ("fb", "v.u <= phi(a,b)  iff  F(a,u) <= G(b,v)"),
    "object-oriented-biconditional": ("ob", "phi(a,b) <= v>r u  iff  F(b,v) <= G(a,u)"),
}

# (table, row, column, new entry): "elementary identities | fca corollary |
# rst corollary", each the failed conditions by ELEMENTARY code followed by
# the counterexample tuple of the detail, "-" for none, or the class of the
# exception raised
PINNED_ELEMENTARY = {
    ("limp", 0, 0, 0):
        "ph(a2,0,b2,1/2) kh(b1,0,a1,0) | QfcaError | QfcaError",
    ("limp", 0, 0, 1):
        "ph(a2,0,b2,1) kh(b1,0,a1,0) | QfcaError | QfcaError",
    ("limp", 0, 1, 0):
        "kh(b1,1/2,a1,0) | hi(a1,1/2,b2,1/2) | QfcaError",
    ("limp", 0, 1, 2):
        "- | fb(a1,b2,1/2,1) | QfcaError",
    ("limp", 0, 2, 1):
        "kh(b1,1,a1,0) | QfcaError | QfcaError",
    ("limp", 0, 2, 2):
        "kh(b1,1,a1,0) | QfcaError | QfcaError",
    ("limp", 1, 0, 0):
        "ph(a1,0,b2,1/2) kh(b1,0,a1,0) | co jf mg hi(a1,0,b1,1/2) fb(a1,b1,0,1) | QfcaError",
    ("limp", 1, 0, 1):
        "ph(a1,0,b2,1) kh(b1,0,a1,0) | co hi(a1,0,b1,1) fb(a1,b2,0,1) | QfcaError",
    ("limp", 1, 1, 0):
        "kh(b1,1/2,a1,0) | QfcaError | QfcaError",
    ("limp", 1, 1, 1):
        "kh(b1,1/2,a1,0) | QfcaError | QfcaError",
    ("limp", 1, 2, 0):
        "kh(b1,1,a1,0) | co hi(a1,1/2,b2,1) | QfcaError",
    ("limp", 1, 2, 2):
        "kh(b1,1,a1,0) | QfcaError | se mg hi(b2,1,a2,0) ob(a1,b1,0,1)",
    ("limp", 2, 0, 0):
        "ph(a1,0,b1,1/2) kh(b1,0,a1,0) | co jf mg hi(a1,0,b1,0) fb(a1,b1,0,0) | QfcaError",
    ("limp", 2, 0, 1):
        "ph(a1,0,b1,1) kh(b1,0,a1,0) | co jf mg hi(a1,0,b1,0) fb(a1,b1,0,0) | QfcaError",
    ("limp", 2, 1, 0):
        "kh(b1,1/2,a1,0) | co hi(a1,0,b1,0) fb(a1,b1,0,0) | QfcaError",
    ("limp", 2, 1, 1):
        "kh(b1,1/2,a1,0) | co hi(a1,0,b1,0) fb(a1,b1,0,0) | QfcaError",
    ("limp", 2, 2, 0):
        "kh(b1,1,a1,0) | se co jf mg hi(a1,1/2,b1,0) fb(a1,b1,1/2,0) | QfcaError",
    ("limp", 2, 2, 1):
        "kh(b2,1,a1,0) | se co jf mg hi(a1,1/2,b1,0) fb(a1,b1,1/2,0) | QfcaError",
    ("rimp", 0, 0, 0):
        "ph(a1,1,b1,0) | QfcaError | mg ob(a1,b1,0,0)",
    ("rimp", 0, 0, 1):
        "ph(a1,1,b1,0) | QfcaError | mg ob(a2,b1,0,0)",
    ("rimp", 0, 1, 0):
        "ph(a1,1/2,b1,0) | QfcaError | mg ob(a1,b1,1/2,0)",
    ("rimp", 0, 1, 1):
        "ph(a1,1/2,b1,0) | QfcaError | mg ob(a2,b1,1/2,0)",
    ("rimp", 0, 2, 0):
        "ph(a1,0,b1,1/2) | QfcaError | mg ob(a1,b1,1,0)",
    ("rimp", 0, 2, 1):
        "ph(a1,0,b1,1/2) | QfcaError | mg ob(a2,b1,1,0)",
    ("rimp", 1, 0, 0):
        "- | QfcaError | mg ob(a1,b1,0,1/2)",
    ("rimp", 1, 0, 2):
        "- | fb(a1,b2,1,1/2) | ob(a2,b1,0,1/2)",
    ("rimp", 1, 1, 0):
        "- | QfcaError | mg ob(a1,b1,1/2,1/2)",
    ("rimp", 1, 1, 1):
        "- | QfcaError | mg ob(a2,b1,1/2,1/2)",
    ("rimp", 1, 2, 0):
        "- | QfcaError | mg ob(a1,b1,1,1/2)",
    ("rimp", 1, 2, 1):
        "- | QfcaError | mg ob(a2,b1,1,1/2)",
    ("rimp", 2, 0, 1):
        "- | QfcaError | mg ob(a1,b1,0,1)",
    ("rimp", 2, 0, 2):
        "- | QfcaError | mg ob(a1,b1,0,1)",
    ("rimp", 2, 1, 0):
        "- | QfcaError | mg ob(a1,b1,1/2,1)",
    ("rimp", 2, 1, 2):
        "- | QfcaError | mg ob(a2,b1,1/2,1)",
    ("rimp", 2, 2, 0):
        "- | QfcaError | mg ob(a1,b1,1,1)",
    ("rimp", 2, 2, 1):
        "- | QfcaError | mg ob(a2,b1,1,1)",
    ("compose", 0, 0, 1):
        "ph(a1,1,b1,0) kh(b1,1/2,a1,0) | hi(a1,1,b1,0) fb(a1,b2,0,0) | "
        "hi(b2,0,a2,0) ob(a2,b2,0,0)",
    ("compose", 0, 0, 2):
        "ph(a1,0,b1,0) kh(b1,0,a2,0) | hi(a1,0,b1,0) fb(a1,b2,0,0) | hi(b1,0,a2,0) ob(a2,b1,0,0)",
    ("compose", 0, 1, 1):
        "ph(a1,1,b1,1/2) kh(b1,0,a1,0) | hi(a1,1,b1,1/2) fb(a1,b2,1/2,0) | "
        "hi(b1,0,a2,0) ob(a2,b1,0,0)",
    ("compose", 0, 1, 2):
        "ph(a1,1/2,b1,1/2) kh(b1,0,a1,0) | hi(a1,1/2,b1,1/2) fb(a1,b1,1/2,0) | "
        "hi(b1,0,a1,0) ob(a1,b1,0,0)",
    ("compose", 0, 2, 1):
        "ph(a1,0,b2,1) kh(b1,0,a2,0) | hi(a1,0,b2,1) fb(a1,b2,0,1) | QfcaError",
    ("compose", 0, 2, 2):
        "ph(a1,0,b1,1) kh(b1,0,a1,0) | hi(a1,0,b1,1) fb(a1,b1,0,1) | QfcaError",
    ("compose", 1, 0, 1):
        "ph(a2,1/2,b2,1) kh(b1,1/2,a1,0) | hi(a2,1/2,b2,1) fb(a1,b2,0,1/2) | "
        "hi(b2,1/2,a2,0) ob(a2,b2,0,1/2)",
    ("compose", 1, 0, 2):
        "ph(a2,1/2,b1,1) kh(b2,1/2,a1,0) | hi(a2,1/2,b1,1) fb(a1,b1,0,1/2) | "
        "hi(b2,1/2,a1,0) ob(a1,b2,0,1/2)",
    ("compose", 1, 1, 1):
        "kh(b1,1/2,a1,0) | fb(a1,b2,1/2,1/2) | QfcaError",
    ("compose", 1, 1, 2):
        "kh(b1,1/2,a1,0) | fb(a1,b1,1/2,1/2) | QfcaError",
    ("compose", 1, 2, 0):
        "ph(a1,1/2,b2,1) kh(b1,1/2,a2,0) | hi(a1,1/2,b2,1) fb(a1,b2,1/2,1) | "
        "hi(b1,1/2,a2,0) ob(a2,b1,0,1/2)",
    ("compose", 1, 2, 2):
        "ph(a1,1/2,b1,1) kh(b1,1/2,a1,0) | hi(a1,1/2,b1,1) fb(a1,b1,1/2,1) | "
        "hi(b1,1/2,a1,0) ob(a1,b1,0,1/2)",
    ("compose", 2, 0, 1):
        "ph(a1,1,b2,0) kh(b2,1,a1,0) | hi(a1,1,b2,0) fb(a1,b2,0,1) | -",
    ("compose", 2, 0, 2):
        "ph(a1,1/2,b2,0) kh(b1,1,a1,0) | hi(a1,1/2,b2,0) fb(a1,b1,0,1) | "
        "hi(b2,1,a1,0) ob(a1,b2,0,1)",
    ("compose", 2, 1, 0):
        "ph(a1,1,b2,1/2) kh(b1,1,a1,0) | hi(a1,1,b2,1/2) fb(a1,b2,1/2,1) | QfcaError",
    ("compose", 2, 1, 2):
        "ph(a1,1/2,b2,1/2) kh(b1,1,a1,0) | hi(a1,1/2,b2,1/2) fb(a1,b1,1/2,1) | -",
    ("compose", 2, 2, 0):
        "ph(a1,1/2,b2,1) kh(b1,1,a1,0) | jf mg hi(a1,1/2,b2,1) fb(a1,b2,1/2,1) | QfcaError",
    ("compose", 2, 2, 1):
        "ph(a1,1/2,b2,1) kh(b1,1,a1,0) | jf mg hi(a1,1/2,b2,1) fb(a1,b2,1/2,1) | QfcaError",
}


def _corruptions():
    for table in ("limp", "rimp", "compose"):
        entries = getattr(build_preset("lukasiewicz-chain", n=3), f"{table}_table")["*", "*", "*"]
        for w, x in itertools.product(range(3), repeat=2):
            yield from ((table, w, x, new) for new in range(3) if new != entries[w][x])


def _outcome(run) -> str:
    try:
        return " ".join(SHORT[name] for name in failed_names(run())) or "-"
    except Exception as e:
        return type(e).__name__


def test_every_single_entry_corruption_is_pinned():
    assert list(_corruptions()) == list(PINNED)
    assert len(PINNED) == 54


def _corrupted(case):
    """The row category and the fixed context over a copy of
    ``lukasiewicz-chain n=3`` with one table entry replaced."""
    table, w, x, new = case
    Q = build_preset("lukasiewicz-chain", n=3)
    # corrupt before Q.opposite() is first built, so the opposite quantaloid,
    # transposed from these tables, carries the same fault
    assert "_opposite" not in Q.__dict__
    tables = getattr(Q, f"{table}_table")
    rows = [list(row) for row in tables["*", "*", "*"]]
    rows[w][x] = new
    tables["*", "*", "*"] = tuple(map(tuple, rows))
    A = discrete_category(Q, QTypedSet(("a1", "a2"), ("*", "*")), name="A")
    B = discrete_category(Q, QTypedSet(("b1", "b2"), ("*", "*")), name="B")
    phi = QDistributor(A, B, [[Q.arrow("*", "*", v) for v in row] for row in CONTEXT],
                       name="phi")
    return A, phi


@pytest.mark.parametrize("case", list(PINNED))
def test_verdicts_on_corrupted_tables(case):
    A, phi = _corrupted(case)
    got = " | ".join((_outcome(lambda: verify_adjunction_laws(phi)),
                      _outcome(lambda: verify_transpose_identities(phi)),
                      _outcome(lambda: verify_yoneda(A))))
    assert got == PINNED[case]


# (table, row, column, new entry), kind -> the concept the re-check names.
# The coded maps read limp (isbell_up, kan_lower), rimp (isbell_down, as the
# opposite's limp) and compose (kan_star) directly.
RECHECK = {
    (("limp", 0, 0, 0), "fca"): "*|a1:0,a2:1/2",
    (("limp", 0, 0, 0), "rst"): "*|b1:0,b2:1/2",
    (("rimp", 0, 2, 0), "fca"): "*|a1:1,a2:0",
    (("compose", 1, 1, 1), "rst"): "*|b1:0,b2:1/2",
}


def test_fixed_point_recheck_blames_the_tables():
    # the lattice routines re-check every concept; a corrupted table shows there
    for (case, kind), label in RECHECK.items():
        _, phi = _corrupted(case)
        with pytest.raises(QfcaError) as err:
            canonical_elementary_data(phi, kind)
        message = str(err.value)
        assert type(err.value) is QfcaError and "bug" not in message
        assert f"{label} is not fixed" in message, (case, kind)
        assert "not residuated" in message and "validate" in message


def test_every_condition_fails_somewhere():
    failed = {code for outcome in PINNED.values() for code in outcome.replace("|", " ").split()}
    assert set(SHORT.values()) <= failed


def _located_outcome(run) -> str:
    try:
        report = run()
    except Exception as e:
        return type(e).__name__
    tokens = []
    for c in report.conditions:
        if not c.passed:
            code, formula = ELEMENTARY[c.name]
            stated, _, where = c.detail.partition("; differs at ")
            assert stated == formula, c.detail
            tokens.append(code + where.replace("'", "").replace(", ", ","))
    return " ".join(tokens) or "-"


def _corollary(phi, kind):
    d, F, G = canonical_elementary_data(phi, kind)
    return quantale_corollary_check(phi, d.X, F, G, kind)


def test_every_elementary_corruption_is_pinned():
    assert list(PINNED_ELEMENTARY) == list(PINNED)


@pytest.mark.parametrize("case", list(PINNED_ELEMENTARY))
def test_elementary_verdicts_on_corrupted_tables(case):
    _, phi = _corrupted(case)
    got = " | ".join((_located_outcome(lambda: verify_elementary_identities(phi)),
                      _located_outcome(lambda: _corollary(phi, "fca")),
                      _located_outcome(lambda: _corollary(phi, "rst"))))
    assert got == PINNED_ELEMENTARY[case]


def test_every_elementary_condition_fails_somewhere():
    failed = {token[:2] for outcome in PINNED_ELEMENTARY.values()
              for token in outcome.replace("|", " ").split()}
    assert {code for code, _ in ELEMENTARY.values()} <= failed


@pytest.mark.parametrize("case", list(PINNED))
def test_elementary_grids_match_the_arrow_entries_on_corrupted_tables(case):
    # the grids read the tables as the Arrow residuations do, corrupted or not
    _, phi = _corrupted(case)
    for kind in ("fca", "rst"):
        d = _elementary(phi, kind)
        assert d.grid(phi, d.f_pairs, d.g_pairs) == elementary_oracle_grid(phi, kind), kind
