"""Executable category theory inside finite presheaf categories.

The ambient layer provides finite presheaves over a finite index category
together with the limits, exponentials, and enumeration the rest of the
package runs on. On top of that sit category objects (categories internal
to the ambient category), their functor categories, certified limits, and
theorem engines that produce checkable certificates or concrete refusals.
"""

__version__ = "0.1.0"

from .labels import fam_dict, sort_key
from .ambient import (
    IndexCategory, IndexFunctor, Presheaf, PresheafMap, LimitCone,
    PreconditionError, coproduct, elements_category, enumerate_maps,
    equalizer, evaluation_map, exponential, curry, uncurry,
    family_at_identity, family_keys, family_solver, family_space,
    initial, inverse, is_iso, point_label, point_of, points, product, pullback,
    representable, restrict, restrict_map, shift_family,
    stage_family, subpresheaf, terminal, unique_from_initial,
    unique_to_terminal,
)
from .core import (
    InternalCategory, InternalFunctor, InternalNatTrans, adjunction_check,
    arrows_at, arrows_by_ends, compose_functors, dis_u_ind_adjunctions, discrete,
    enumerate_functors, from_finite_category, identity_functor, identity_nat,
    indiscrete, initial_cat, make_internal_category, nat_is_iso,
    opposite, opposite_functor, points_of_cat, product_cat, restrict_cat,
    restrict_functor, terminal_cat, unique_to_terminal_cat,
    validate_internal_category, validate_internal_functor, validate_internal_nat,
)
from .functor_cat import (
    ExponentialCategory, curry_functor, diagonal_functor, evaluation_functor,
    exponential_cat, reindex_exponential_iso, uncurry_functor,
)
from .limits import (
    CertificateError, CommaCategory, Cone, Cocone, ConesCategory,
    LimitFunctorResult, Refusal, RefusalError, SpecialAdjoint,
    UniversalCertificate, certified_adjunction, certified_limit,
    cocones_category, comma_category, cones_category, connecting_iso,
    indexed_cone_factorization, is_internal_initial, is_internal_terminal,
    limit_functor, mediated_functor, parallel_arrows_category, shape_parallel_pair,
    shape_two, special_right_adjoint, transport_certificate,
    universal_cocone, universal_cone,
)
from .theorems import (
    AdjointConstruction, ColimitResult, CompletenessCertificate,
    ContinuityReport, GaloisAdjoint, InitialViaLimit, TransportedLimit,
    aft_left_adjoint, cocones_limit_transport, colimit_via_duality,
    default_shape_family, galois_oracle, initial_via_identity_limit,
    is_continuous, lattice_completeness_check,
)
from .formats import (
    Declaration, ParseError, SpecDocument, TaskDecl, emit_document,
    parse_document,
)
from .runner import (
    explain_document, jsonable, render_human, render_machine, run_document,
)
