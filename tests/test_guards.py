"""Refusals of (co)presheaf arguments on the wrong base or of the wrong kind.

Each call hands one public function an argument on a category other than
the one it must live on, or a copresheaf where a presheaf belongs (or the
reverse), over the ``fixdl3`` context (rows x, y, z on A, columns p, q on
B).  Base refusals pin the error class; kind refusals also pin that the
message names the expected kind.
"""

import pytest

from qfca.errors import BaseMismatch
from qfca.qcat import identity_functor
from qfca.presheaf import (
    copresheaf_hom,
    coyoneda,
    inf,
    lan,
    materialize_presheaves,
    pointwise_leq,
    presheaf_hom,
    pushforward,
    sup,
    weighted_colimit,
    weighted_limit,
    yoneda,
)
from qfca.concept import (
    isbell_down,
    isbell_up,
    kan_dag,
    kan_lower,
    kan_lower_dag,
    kan_star,
    presheaf_transpose,
    residual_category,
    residual_context,
    residual_map_functor,
)

ON_ANOTHER_BASE = {
    "pointwise_leq": lambda A, B, phi: pointwise_leq(yoneda(A, "x"), yoneda(B, "p")),
    "presheaf_hom": lambda A, B, phi: presheaf_hom(yoneda(A, "x"), yoneda(B, "p")),
    "copresheaf_hom": lambda A, B, phi: copresheaf_hom(coyoneda(A, "x"), coyoneda(B, "p")),
    "sup": lambda A, B, phi: sup(A, yoneda(B, "p")),
    "inf": lambda A, B, phi: inf(A, coyoneda(B, "p")),
    "weighted_colimit": lambda A, B, phi: weighted_colimit(yoneda(B, "p"), identity_functor(A)),
    "weighted_limit": lambda A, B, phi: weighted_limit(coyoneda(B, "p"), identity_functor(A)),
    "pushforward": lambda A, B, phi: pushforward(identity_functor(A), yoneda(B, "p")),
    "lan": lambda A, B, phi: lan(identity_functor(A), identity_functor(B)),
    "isbell_up": lambda A, B, phi: isbell_up(phi, yoneda(B, "p")),
    "isbell_down": lambda A, B, phi: isbell_down(phi, coyoneda(A, "x")),
    "kan_star": lambda A, B, phi: kan_star(phi, yoneda(A, "x")),
    "kan_lower": lambda A, B, phi: kan_lower(phi, yoneda(B, "p")),
    "kan_dag": lambda A, B, phi: kan_dag(phi, coyoneda(B, "p")),
    "kan_lower_dag": lambda A, B, phi: kan_lower_dag(phi, coyoneda(A, "x")),
    "residual_context": lambda A, B, phi: residual_context(phi, residual_category(B)),
    "presheaf_transpose": lambda A, B, phi: presheaf_transpose(phi, materialize_presheaves(B)),
    "residual_map_functor": lambda A, B, phi: residual_map_functor(
        identity_functor(A), residual_category(B), residual_category(A)),
}


@pytest.mark.parametrize("call", sorted(ON_ANOTHER_BASE))
def test_an_argument_on_another_base_is_refused(fixdl3, call):
    with pytest.raises(BaseMismatch):
        ON_ANOTHER_BASE[call](fixdl3.A, fixdl3.B, fixdl3.phi)


# (call, the kind its message names)
OF_THE_WRONG_KIND = {
    "isbell_up": (lambda A, B, phi: isbell_up(phi, coyoneda(A, "x")), "presheaf"),
    "isbell_down": (lambda A, B, phi: isbell_down(phi, yoneda(B, "p")), "copresheaf"),
    "kan_star": (lambda A, B, phi: kan_star(phi, coyoneda(B, "p")), "presheaf"),
    "kan_lower": (lambda A, B, phi: kan_lower(phi, coyoneda(A, "x")), "presheaf"),
    "kan_dag": (lambda A, B, phi: kan_dag(phi, yoneda(A, "x")), "copresheaf"),
    "kan_lower_dag": (lambda A, B, phi: kan_lower_dag(phi, yoneda(B, "p")), "copresheaf"),
    "sup": (lambda A, B, phi: sup(A, coyoneda(A, "x")), "presheaf"),
    "inf": (lambda A, B, phi: inf(A, yoneda(A, "x")), "copresheaf"),
    "weighted_colimit": (lambda A, B, phi: weighted_colimit(coyoneda(A, "y"),
                                                            identity_functor(A)), "presheaf"),
    "weighted_limit": (lambda A, B, phi: weighted_limit(yoneda(A, "y"), identity_functor(A)),
                       "copresheaf"),
    "pushforward": (lambda A, B, phi: pushforward(identity_functor(A), coyoneda(A, "x")),
                    "presheaf"),
    "presheaf_hom": (lambda A, B, phi: presheaf_hom(yoneda(A, "x"), coyoneda(A, "x")),
                     "presheaf"),
    "copresheaf_hom": (lambda A, B, phi: copresheaf_hom(yoneda(A, "x"), yoneda(A, "y")),
                       "copresheaf"),
}


@pytest.mark.parametrize("call", sorted(OF_THE_WRONG_KIND))
def test_an_argument_of_the_wrong_kind_is_refused(fixdl3, call):
    run, kind = OF_THE_WRONG_KIND[call]
    with pytest.raises(BaseMismatch, match=f"expected a {kind} on "):
        run(fixdl3.A, fixdl3.B, fixdl3.phi)


def test_pointwise_leq_refuses_a_copresheaf_against_a_presheaf(fixl3):
    # on one object of type *, both vectors hold the same single arrow, and
    # an unguarded comparison answers True
    A = fixl3.A
    with pytest.raises(BaseMismatch, match="expected a presheaf on "):
        pointwise_leq(yoneda(A, "a"), coyoneda(A, "a"))
