"""Exact calculus of quantaloid-enriched categories and concept lattices.

The package computes, on finite data and without any floating point:

* quantaloids (finite hom-lattices with join-preserving composition),
  their residuations and cyclic dualizing families;
* categories, functors and distributors enriched in a quantaloid;
* presheaves, Yoneda embeddings, weighted colimits, pointwise Kan
  extensions and density predicates;
* the FCA and RST concept lattices of a distributor-valued context, the
  residual context that turns one into the other, and Girard complements;
* executable verifiers for the representation theorems relating all of the
  above, down to the order-theoretic join/meet-dense forms.

Everything is immutable and deterministic; see the ``qfca`` command line for
the file-driven interface.
"""

from .errors import (
    BaseMismatch,
    BudgetExceeded,
    ClosureBudgetExceeded,
    ColimitMissing,
    HypothesesNotMet,
    InvalidParams,
    NotAQuantale,
    NotGirard,
    QfcaError,
    Report,
    SearchBudgetExceeded,
    TypeMismatch,
    ValidationFailed,
    ValidationReport,
)
from .quantaloid import (
    Arrow,
    CyclicDualizingFamily,
    HomLattice,
    Quantaloid,
    build_preset,
    complement_arrow,
    find_cyclic_dualizing_family,
    validate_quantaloid,
)
from .qcat import (
    Preorder,
    QCategory,
    QFunctor,
    QTypedSet,
    discrete_category,
    dualize_category,
    dualize_functor,
    identity_functor,
    is_essentially_surjective,
    is_fully_faithful,
    is_separated,
    singleton_category,
    underlying_order,
    validate_category,
    validate_functor,
)
from .qdist import (
    QDistributor,
    cograph,
    dist_compose,
    dist_left_imp,
    dist_right_imp,
    dualize_distributor,
    graph,
    identity_dist,
    is_adjoint_functor_pair,
    validate_distributor,
)
from .presheaf import (
    Copresheaf,
    Presheaf,
    PresheafSpace,
    copresheaf_hom,
    coyoneda,
    enumerate_copresheaves,
    enumerate_presheaves,
    is_codense,
    is_complete,
    is_dense,
    lan,
    materialize_copresheaves,
    materialize_presheaves,
    presheaf_hom,
    ran,
    yoneda,
)
from .concept import (
    ConceptLattice,
    IsbellPair,
    KanPair,
    ResidualCategory,
    brute_force_fixed,
    codense_probe,
    complement_context,
    fca_lattice,
    lattice_to_dot,
    lattice_to_json,
    residual_category,
    residual_context,
    rst_lattice,
    verify_rst_as_fca,
    verify_rst_as_fca_complement,
)
from .represent import (
    fix_points,
    quantale_corollary_check,
    verify_dense_representation,
    verify_elementary_identities,
    verify_elementary_representation,
    verify_fca_representation,
    verify_general_representation,
    verify_rst_representation,
    verify_type_preserving_representation,
)

__version__ = "0.1.0"
