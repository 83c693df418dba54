"""Exact computer algebra for bigraded models of a rational Grothendieck ring.

The package models the rational Grothendieck ring of a g-dimensional
abelian variety as a finite-dimensional bigraded Q-algebra carrying a
Fourier operator, builds the associated lambda/Adams structures (ordinary,
convolution, pi, and composed), computes their gamma filtrations as exact
subspaces, and mechanically verifies the identity suite plus the two
conjecture reformulations on bundled compliant and pathological models.
"""

from .adams import (
    ADAMS_KINDS,
    adams,
    adams_operator,
    complete_chern,
    exp_class,
    gamma_images,
    gamma_op,
    gamma_pi_coeff,
    gamma_series,
    kind_ring,
    lambda_series,
    log_class,
    nth_root,
)
from .errors import (
    DomainError,
    KringError,
    ModelParseError,
    SeriesOrderError,
    StructureError,
)
from .filtration import (
    FILTRATION_KINDS,
    FiltrationResult,
    FiltrationSpec,
    compute_filtration,
)
from .linalg import Subspace, vandermonde_det, vandermonde_matrix
from .model import (
    Bidegree,
    Element,
    ModelAlgebra,
    ValidationReport,
    antisym_model,
    pathological_model,
    theta_model,
    validate,
    violator_model,
)
from .modelio import (
    BUILDERS,
    build_model,
    export_model,
    fingerprint,
    import_model,
    load_model,
)
from .operators import (
    DiagonalOperator,
    euler_char,
    fourier,
    fourier_inverse,
    identity_expansion_coefficients,
    pullback,
    pushforward,
    pushforward_relation,
    rank,
    star_product,
)
from .reports import (
    Statement,
    VerificationReport,
    run_conjecture_suite,
    run_filtration_tables,
    run_gamma_coeff_report,
    run_series_report,
    run_verify_suite,
)
from .series import (
    Ring,
    TruncatedSeries,
    harmonic_firstkind,
    stirling1_unsigned,
    stirling2,
)

__version__ = "0.1.0"
