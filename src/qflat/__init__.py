"""Curvature data of rank-1 symmetric space quantizations.

Computes the Gaussian-weighted radial integrals q_n(tau) attached to the
isotypes of a compact rank-1 symmetric space, their log-second-derivatives
(the curvature samples of the associated family of quantum Hilbert spaces),
exact centrality certificates, and the resulting flatness verdicts: among
these spaces only the 3-sphere yields a flat family.
"""

from .spaces import (
    Family,
    RootData,
    ChiParams,
    make_space,
    parse_space,
    chi_params,
    eta_radial,
    sphere_volume,
    DEFAULT_SCAN_SELECTORS,
    default_scan_spaces,
)
from .hypergeom import RationalPoly, hypergeom_poly, closed_coeffs
from .quadrature import (
    QPParams,
    QuadratureResult,
    ErrorBudget,
    QuadratureError,
    ParameterRangeError,
    ConvergenceError,
    CancellationWarning,
    integrand,
    q_p,
    q_chi,
    q_chi_derivs,
    p_chi,
)
from .asymptotics import (
    watson2,
    fseries2,
    log_qp_large_tau,
)
from .flatness import (
    FieldVerdict,
    ProjectiveVerdict,
    FlatVerdict,
    SqrtRational,
    sqrt_rational,
    describe_exact,
    CentralityCheck,
    RationalityArgument,
    FlatnessReport,
    centrality_check,
    rationality_argument,
    curvature_samples,
    projective_test,
    flat_test,
    theorem_scan,
    theorem_expected_verdict,
)

__version__ = "0.1.0"
