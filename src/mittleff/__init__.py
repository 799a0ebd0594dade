"""Numerical evaluation of the two-parameter Mittag-Leffler function.

E[alpha, beta](z) = sum_n z**n / Gamma(beta + n*alpha) for alpha > 0,
evaluated anywhere in the complex plane by automatic dispatch among the
power series, the large-|z| asymptotic expansion, and optimized contour
quadrature, plus rational (two-point Pade) approximation of
E[alpha, beta](-x) on the nonnegative real axis.

Neither importing the package nor the series, the expansion or
quadrature at a real z < 0 with alpha <= 2 loads numpy or dataclasses
(QuadratureRule and EvalResult are NamedTuples), nor compiles or loads
the array engine (mittleff.engine): where bytecode is not cached, most of
their set-up is compiling the package's source, and with cached bytecode
that split gains little.  numpy is loaded on first use of the engine
(ml_quad_values, and quadrature at any other z) or of the Pade names;
ml_quad_values and the Pade names come from their modules on first access
(PEP 562).

>>> from mittleff import mittag_leffler
>>> mittag_leffler(1.0, 1.0, 1.0)  # e
(2.718281828459045+0j)
"""

from .asymptotic import ml_asymptotic
from .contours import QuadratureRule, build_hyperbolic_rule, build_parabolic_rule
from .dispatch import DEFAULT_TOL, ml_auto, mittag_leffler
from .exceptions import (
    ClusteredRootsError,
    ConvergenceError,
    DomainError,
    MittleffError,
    PoleError,
    SingularSystemError,
)
from .quadrature import EvalResult, Method, ml_quad
from .series import ml_series

__version__ = "0.1.0"

# the API the README documents; everything else lives in the submodules
__all__ = [
    "ClusteredRootsError",
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
    "SingularSystemError",
    "build_hyperbolic_rule",
    "build_pade",
    "build_parabolic_rule",
    "ml_asymptotic",
    "ml_auto",
    "ml_quad",
    "ml_quad_values",
    "ml_series",
    "mittag_leffler",
    "pade_eval",
    "partial_fractions",
    "__version__",
]

_PADE_NAMES = frozenset(
    ("PadeApproximant", "PadeSolver", "PartialFractionForm", "build_pade", "pade_eval", "partial_fractions")
)


def __getattr__(name: str):
    # the Pade names import pade, and ml_quad_values the engine, and with
    # either numpy, on first access
    if name in _PADE_NAMES:
        from . import pade

        return getattr(pade, name)
    if name == "ml_quad_values":
        from .engine import ml_quad_values

        return ml_quad_values
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
