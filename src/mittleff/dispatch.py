"""Top-level evaluation: route each (z, alpha, beta) to the best method.

Routing order, the same for every alpha > 0:

1. |z| <= 1: power series.
2. |z|**(1/alpha)/alpha > 40: asymptotic expansion, with the exponential
   term of every pole on the principal sheet, unless log|z| lies below the
   least value at which its stopping rule can be met
   (asymptotic.log_r_floor): there it could only fail, so it is not run.
3. Otherwise, or where step 1 or 2 misses its stopping rule: hyperbolic
   contour quadrature with N picked from tol and every pole split off at z
   itself, but those inside the split gate or whose residue underflows.  A
   real z < 0 takes one float row: the plain or edge row for alpha <= 1,
   and for 1 < alpha <= 2 the row of E(z) with both poles split off
   (quadrature._two_pole_sum), the paper's real-line method.

ml_auto checks its arguments once.  The router then calls the unchecked
sums behind ml_series, ml_asymptotic and ml_quad, so a method forced
through run_method, as in the CLI, gives the same bits wherever the route
picks that method.  Each route reads only its own cached tables: the
series' coefficients, the expansion's coefficients and floor
(asymptotic.log_r_floor), or the quadrature block (_quad_block: the rule
and its entry).  A real z gets an exactly real value on every route.
"""

from __future__ import annotations

import cmath
import functools
import math

from .asymptotic import _expansion_sum, log_r_floor, ml_asymptotic
from .contours import HYPERBOLIC_RATE, QuadratureRule, build_hyperbolic_rule, build_parabolic_rule
from .exceptions import DomainError
from .kernels import check_alpha_beta, cpow_principal, finite_complex  # noqa: F401  cpow_principal: bench/tracing.py rebinds it here
from .quadrature import DEFAULT_TOL, EvalResult, Method, _node_factors, _quad_result, ml_quad
from .series import _series_sum, ml_series

R_SERIES = 1.0
ASYMP_GATE = 40.0
TOL_MIN = 1e-15
TOL_MAX = 1e-2
_LOG_ASYMP_GATE = math.log(ASYMP_GATE)
_QUAD_HYPERBOLIC = Method.QUAD_HYPERBOLIC


def quadrature_n_for_tol(tol: float) -> int:
    """Node count giving ~tol accuracy on the hyperbolic contour, capped at 14."""
    return min(14, math.ceil(math.log(1.0 / tol) / math.log(HYPERBOLIC_RATE)) + 1)


@functools.lru_cache(maxsize=32)
def quad_rule(method: Method, n: int) -> QuadratureRule:
    """The rule of a quadrature method with parameter N, built once per (method, N):
    its nodes and weights do not depend on z."""
    if method is Method.QUAD_PARABOLIC:
        return build_parabolic_rule(n)
    return build_hyperbolic_rule(n)


def validate_params(alpha: float, beta: float, tol: float, z: complex = 0.0) -> None:
    """Reject z with a NaN or infinite part, alpha that is not a positive
    finite number, beta that is not finite, and tol outside [TOL_MIN, TOL_MAX]."""
    # every test in one expression; the checks below run only to name the bad argument
    if cmath.isfinite(z) and 0.0 < alpha < math.inf and math.isfinite(beta) and TOL_MIN <= tol <= TOL_MAX:
        return
    finite_complex(z)
    check_alpha_beta(alpha, beta)
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol={tol!r} outside [{TOL_MIN}, {TOL_MAX}]")


def run_method(
    method: Method, z: complex, alpha: float, beta: float, tol: float, n: int | None = None
) -> EvalResult:
    """E[alpha, beta](z) by one method, z, alpha and beta checked, tol not held to [TOL_MIN, TOL_MAX].

    converged says whether the series or the expansion met its stopping
    rule; quadrature has none and sets it wherever its value is not NaN.  n
    is the contour parameter N of a quadrature method, picked from tol when
    None.
    """
    if method is Method.SERIES:
        return ml_series(z, alpha, beta, tol)
    if method is Method.ASYMPTOTIC:
        return ml_asymptotic(z, alpha, beta, tol)
    return ml_quad(z, alpha, beta, quad_rule(method, quadrature_n_for_tol(tol) if n is None else n))


@functools.lru_cache(maxsize=128)
def _quad_block(alpha: float, beta: float, tol: float) -> tuple[QuadratureRule, tuple]:
    """The hyperbolic rule of N = quadrature_n_for_tol(tol) and its entry at
    (alpha, beta) (quadrature._node_factors), for checked arguments.  Read
    on the quadrature route alone: the node factors overflow for beta far
    from 0, where the series or the expansion may still serve."""
    rule = quad_rule(_QUAD_HYPERBOLIC, quadrature_n_for_tol(tol))
    return rule, _node_factors(rule, alpha, beta)


def _ml_auto_low(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    # ml_auto for checked arguments: steps 1-2 where one is picked and meets
    # its stopping rule, else step 3
    try:
        r = abs(z)
    except OverflowError:
        raise DomainError(f"z={z!r}: |z| overflows") from None
    if r <= R_SERIES:
        res = _series_sum(z, alpha, beta, tol)
        if res.converged:
            return res
    else:
        ln_r = math.log(r)
        # the size gate |z|**(1/alpha)/alpha > ASYMP_GATE, in logs; below the
        # floor the expansion cannot meet its stopping rule (less a 1e-9
        # margin for rounding in the floor's own tests)
        if ln_r / alpha - math.log(alpha) > _LOG_ASYMP_GATE and ln_r >= log_r_floor(alpha, beta, tol) - 1e-9:
            res = _expansion_sum(z, alpha, beta, tol)
            if res.converged:
                return res
    rule, entry = _quad_block(alpha, beta, tol)
    return _quad_result(z, alpha, beta, rule, _QUAD_HYPERBOLIC, entry)


def ml_auto(z: complex, alpha: float, beta: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Evaluate E[alpha, beta](z) with automatic method selection."""
    z = complex(z)
    validate_params(alpha, beta, tol, z)
    return _ml_auto_low(z, alpha, beta, tol)


def mittag_leffler(z: complex, alpha: float, beta: float = 1.0, tol: float = DEFAULT_TOL) -> complex:
    """Convenience wrapper returning just the value."""
    return ml_auto(z, alpha, beta, tol).value
