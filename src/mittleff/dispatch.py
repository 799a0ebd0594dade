"""Top-level evaluation: route each (z, alpha, beta) to the best method.

Routing order:

1. |z| <= 1: power series (any alpha).
2. alpha <= 1 and |z|**(1/alpha)/alpha > 40: try the asymptotic
   expansion, keep it only if its stopping rule converged.
3. alpha <= 1 otherwise: hyperbolic contour quadrature with N picked
   from tol.
4. alpha > 1: split into m = ceil(alpha) rotated evaluations with
   alpha/m <= 1 each, recursing exactly one level into steps 1-3.
"""

from __future__ import annotations

import cmath
import functools
import math

from .asymptotic import ml_asymptotic
from .contours import build_hyperbolic_rule
from .exceptions import DomainError
from .kernels import cpow_principal
from .quadrature import EvalResult, Method, ml_quad
from .series import ml_series

DEFAULT_TOL = 1e-14
R_SERIES = 1.0
ASYMP_GATE = 40.0
TOL_MIN = 1e-15
TOL_MAX = 1e-2


def quadrature_n_for_tol(tol: float) -> int:
    """Node count giving ~tol accuracy on the hyperbolic contour, capped at 14."""
    return min(14, math.ceil(math.log(1.0 / tol) / math.log(10.13)) + 1)


@functools.lru_cache(maxsize=32)
def _hyperbolic_rule(n: int):
    return build_hyperbolic_rule(n)


def validate_params(alpha: float, tol: float, z: complex = 0.0) -> None:
    """Reject z with a NaN part, alpha that is not a positive finite number,
    and tol outside [TOL_MIN, TOL_MAX]."""
    if cmath.isnan(z):
        raise DomainError(f"z={z!r} has a NaN part")
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha={alpha!r} must be positive and finite")
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol={tol!r} outside [{TOL_MIN}, {TOL_MAX}]")


def _series_result(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    res = ml_series(z, alpha, beta, tol)
    return EvalResult(res.value, Method.SERIES, res.terms_used, res.err_estimate)


def _ml_auto_low(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    # alpha <= 1 path; callers guarantee validated inputs
    if abs(z) <= R_SERIES:
        return _series_result(z, alpha, beta, tol)
    if math.log(abs(z)) / alpha - math.log(alpha) > math.log(ASYMP_GATE):
        res = ml_asymptotic(z, alpha, beta, tol)
        if res.converged:
            return EvalResult(res.value, Method.ASYMPTOTIC, res.m, res.err_estimate)
    return ml_quad(z, alpha, beta, _hyperbolic_rule(quadrature_n_for_tol(tol)))


def ml_auto(z: complex, alpha: float, beta: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Evaluate E[alpha, beta](z) with automatic method selection."""
    z = complex(z)
    validate_params(alpha, tol, z)
    if alpha <= 1.0:
        return _ml_auto_low(z, alpha, beta, tol)
    if abs(z) <= R_SERIES:
        return _series_result(z, alpha, beta, tol)
    # E[a,b](z) = (1/m) sum_k E[a/m,b](z**(1/m) * e**(2 pi i k/m)), a/m <= 1
    m = math.ceil(alpha)
    root = cpow_principal(z, 1.0 / m)
    alpha_m = alpha / m
    acc = 0.0j
    worst = 0.0
    count = 0
    for k in range(m):
        zk = root * cmath.rect(1.0, 2.0 * math.pi * k / m)
        sub = _ml_auto_low(zk, alpha_m, beta, tol)
        acc += sub.value
        worst = max(worst, sub.err_estimate)
        count += sub.nodes_or_terms
    # divided part by part: inf/m as a complex quotient would put NaN in a zero part
    return EvalResult(complex(acc.real / m, acc.imag / m), Method.REDUCTION, count, worst)


def mittag_leffler(z: complex, alpha: float, beta: float = 1.0, tol: float = DEFAULT_TOL) -> complex:
    """Convenience wrapper returning just the value."""
    return ml_auto(z, alpha, beta, tol).value
