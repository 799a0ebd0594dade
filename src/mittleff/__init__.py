"""Numerical evaluation of the two-parameter Mittag-Leffler function.

E[alpha, beta](z) = sum_n z**n / Gamma(beta + n*alpha) for alpha > 0,
evaluated anywhere in the complex plane by automatic dispatch among the
power series, the large-|z| asymptotic expansion, and optimized contour
quadrature, plus rational (two-point Pade) approximation of
E[alpha, beta](-x) on the nonnegative real axis.

>>> from mittleff import mittag_leffler
>>> mittag_leffler(1.0, 1.0, 1.0)  # e
(2.7182818284590455+0j)
"""

from .asymptotic import AsymptoticResult, asymptotic_sigma_tau, ml_asymptotic
from .contours import (
    ContourKind,
    QuadratureRule,
    build_hyperbolic_rule,
    build_parabolic_rule,
    hyperbolic_a,
    hyperbolic_b,
    optimize_phi,
)
from .dispatch import (
    DEFAULT_TOL,
    ml_auto,
    mittag_leffler,
    quadrature_n_for_tol,
)
from .exceptions import (
    ClusteredRootsError,
    ConvergenceError,
    DomainError,
    MittleffError,
    PoleError,
    SingularSystemError,
)
from .pade import (
    PadeApproximant,
    PadeSolver,
    PartialFractionForm,
    assemble_pade_matrix,
    build_pade,
    coefficients_csv,
    pade_eval,
    partial_fractions,
    partial_fractions_csv,
    series_coeff_a,
    series_coeff_b,
    solve_fixed_q0,
    solve_lu_homogeneous,
    solve_svd_null,
)
from .quadrature import (
    EvalResult,
    Method,
    f_one,
    f_plain,
    ml_quad,
    ml_quad_neg_axis_wide_alpha,
    ml_quad_values,
    origin_accuracy,
    q_sum,
    shift_beta_down,
    shift_beta_up,
)
from .series import SeriesResult, ml_derivative, ml_series

__version__ = "0.1.0"

__all__ = [
    "AsymptoticResult",
    "ClusteredRootsError",
    "ContourKind",
    "ConvergenceError",
    "DEFAULT_TOL",
    "DomainError",
    "EvalResult",
    "Method",
    "MittleffError",
    "PadeApproximant",
    "PadeSolver",
    "PartialFractionForm",
    "PoleError",
    "QuadratureRule",
    "SeriesResult",
    "SingularSystemError",
    "assemble_pade_matrix",
    "asymptotic_sigma_tau",
    "build_hyperbolic_rule",
    "build_pade",
    "build_parabolic_rule",
    "coefficients_csv",
    "f_one",
    "f_plain",
    "hyperbolic_a",
    "hyperbolic_b",
    "ml_asymptotic",
    "ml_auto",
    "ml_derivative",
    "ml_quad",
    "ml_quad_neg_axis_wide_alpha",
    "ml_quad_values",
    "ml_series",
    "mittag_leffler",
    "optimize_phi",
    "origin_accuracy",
    "pade_eval",
    "partial_fractions",
    "partial_fractions_csv",
    "q_sum",
    "quadrature_n_for_tol",
    "series_coeff_a",
    "series_coeff_b",
    "shift_beta_down",
    "shift_beta_up",
    "solve_fixed_q0",
    "solve_lu_homogeneous",
    "solve_svd_null",
    "__version__",
]
