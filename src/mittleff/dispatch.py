"""Top-level evaluation: route each (z, alpha, beta) to the best method.

Routing order:

1. |z| <= 1: power series (any alpha).
2. alpha <= 1 and |z|**(1/alpha)/alpha > 40: asymptotic expansion, unless
   log|z| lies below the least value at which its stopping rule can be met
   (asymptotic.log_r_floor): there it could only fail, so it is not run.
3. alpha <= 1 otherwise, or where step 1 or 2 misses its stopping
   rule: hyperbolic contour quadrature with N picked from tol.
4. alpha > 1 otherwise: split into m = ceil(alpha) rotated evaluations
   with alpha/m <= 1 each, recursing exactly one level into steps 1-3.
   For real z the sub-points come in conjugate pairs, so one evaluation
   serves each pair and the value is exactly real.
5. Real z < 0 with 1 < alpha <= 2 has one such pair, at i*sqrt(-z).  Where
   steps 1-2 do not serve it, the pair's quadrature is replaced by the
   quadrature of E[alpha, beta](z) itself with both poles split off
   (quadrature.two_pole_row), the paper's real-line method.

Each step runs through run_method, as does a method forced in the CLI,
so both give the same bits wherever the route picks that method.  A real
z gets an exactly real value on every route.
"""

from __future__ import annotations

import cmath
import functools
import math

from .asymptotic import log_r_floor, ml_asymptotic
from .contours import QuadratureRule, build_hyperbolic_rule, build_parabolic_rule
from .exceptions import DomainError
from .kernels import cpow_principal, finite_complex
from .quadrature import EvalResult, Method, ml_quad, origin_accuracy, two_pole_row
from .series import ml_series

DEFAULT_TOL = 1e-14
R_SERIES = 1.0
ASYMP_GATE = 40.0
TOL_MIN = 1e-15
TOL_MAX = 1e-2


@functools.lru_cache(maxsize=32)
def quadrature_n_for_tol(tol: float) -> int:
    """Node count giving ~tol accuracy on the hyperbolic contour, capped at 14."""
    return min(14, math.ceil(math.log(1.0 / tol) / math.log(10.13)) + 1)


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
    finite_complex(z)
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha={alpha!r} must be positive and finite")
    if not math.isfinite(beta):
        raise DomainError(f"beta={beta!r} must be finite")
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tol={tol!r} outside [{TOL_MIN}, {TOL_MAX}]")


def run_method(
    method: Method, z: complex, alpha: float, beta: float, tol: float, n: int | None = None
) -> EvalResult:
    """E[alpha, beta](z) by one method other than REDUCTION, unvalidated.

    converged says whether the series or the expansion met its stopping
    rule; quadrature has none and sets it wherever z != 0.  n is the contour
    parameter N of a quadrature method, picked from tol when None.  E is
    real on the real axis, so a real z != 0 gets an imaginary part of
    exactly 0 (quadrature's NaN at z = 0 keeps both parts).
    """
    if method is Method.SERIES:
        s = ml_series(z, alpha, beta, tol)
        res = EvalResult(s.value, method, s.terms_used, s.err_estimate, s.converged)
    elif method is Method.ASYMPTOTIC:
        a = ml_asymptotic(z, alpha, beta, tol)
        res = EvalResult(a.value, method, a.m, a.err_estimate, a.converged)
    else:
        res = ml_quad(z, alpha, beta, quad_rule(method, quadrature_n_for_tol(tol) if n is None else n))
    if z.imag == 0.0 and z != 0.0 and res.value.imag != 0.0:
        return EvalResult(complex(res.value.real, 0.0), method, res.nodes_or_terms, res.err_estimate, res.converged)
    return res


def _series_or_expansion(z: complex, alpha: float, beta: float, tol: float) -> EvalResult | None:
    # steps 1-2 for alpha <= 1: the method's result where it is picked and
    # converges, else None (quadrature's turn)
    r = abs(z)
    if r <= R_SERIES:
        method = Method.SERIES
    elif (
        math.log(r) / alpha - math.log(alpha) > math.log(ASYMP_GATE)
        # below the floor the expansion cannot meet its stopping rule; the
        # margin covers rounding in the expansion's own tests
        and math.log(r) >= log_r_floor(alpha, beta, tol) - 1e-9
    ):
        method = Method.ASYMPTOTIC
    else:
        return None
    res = run_method(method, z, alpha, beta, tol)
    return res if res.converged else None


def _ml_auto_low(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    # alpha <= 1 path; callers guarantee validated inputs
    res = _series_or_expansion(z, alpha, beta, tol)
    return res if res is not None else run_method(Method.QUAD_HYPERBOLIC, z, alpha, beta, tol)


def _neg_axis_pair(x: float, alpha: float, beta: float, tol: float) -> EvalResult:
    # E[alpha, beta](-x), x > 0, 1 < alpha <= 2: the reduction's one sub-point
    # i*sqrt(x) counts twice, so the value is Re E[alpha/2, beta](i*sqrt(x))
    res = _series_or_expansion(cmath.rect(x**0.5, math.pi / 2), alpha / 2, beta, tol)
    if res is not None:
        return EvalResult(complex(res.value.real), Method.REDUCTION, res.nodes_or_terms, res.err_estimate, True)
    # where the pair would go to quadrature, E(-x) is summed with both poles split off
    rule = quad_rule(Method.QUAD_HYPERBOLIC, quadrature_n_for_tol(tol))
    value = complex(two_pole_row(x, alpha, beta, rule))
    return EvalResult(value, Method.REDUCTION, 2 * rule.N + 1, origin_accuracy(rule, beta), True)


def ml_auto(z: complex, alpha: float, beta: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Evaluate E[alpha, beta](z) with automatic method selection."""
    z = complex(z)
    validate_params(alpha, beta, tol, z)
    if alpha <= 1.0:
        return _ml_auto_low(z, alpha, beta, tol)
    if abs(z) <= R_SERIES:
        res = run_method(Method.SERIES, z, alpha, beta, tol)
        if res.converged:
            return res
    # E[a,b](z) = (1/m) sum_k E[a/m,b](z**(1/m) * e**(2 pi i k/m)), a/m <= 1
    m = math.ceil(alpha)
    if z.imag == 0.0 and z.real < 0.0 and m == 2:
        return _neg_axis_pair(-z.real, alpha, beta, tol)
    alpha_m = alpha / m
    if z.imag == 0.0:
        # real z: the sub-points sit at angles j*pi/m, j even for z >= 0 and
        # odd for z < 0.  Points j and 2m - j are conjugates, and E(conj w) =
        # conj E(w), so a point with 0 < j < m adds 2 Re E(w) for its pair;
        # j = 0 and j = m are real points and add Re E(w)
        r = abs(z.real) ** (1.0 / m)
        subs = [
            (cmath.rect(r, j * math.pi / m), 2.0) if 0 < j < m else (complex(r if j == 0 else -r), 1.0)
            for j in range(0 if z.real >= 0.0 else 1, m + 1, 2)
        ]
    else:
        root = cpow_principal(z, 1.0 / m)
        subs = [(root * cmath.rect(1.0, 2.0 * math.pi * k / m), None) for k in range(m)]
    acc = 0.0j
    worst = 0.0
    count = 0
    converged = True
    for w, weight in subs:
        sub = _ml_auto_low(w, alpha_m, beta, tol)
        acc += sub.value if weight is None else weight * sub.value.real
        worst = max(worst, sub.err_estimate)
        count += sub.nodes_or_terms
        converged = converged and sub.converged
    # divided part by part: inf/m as a complex quotient would put NaN in a zero part
    return EvalResult(complex(acc.real / m, acc.imag / m), Method.REDUCTION, count, worst, converged)


def mittag_leffler(z: complex, alpha: float, beta: float = 1.0, tol: float = DEFAULT_TOL) -> complex:
    """Convenience wrapper returning just the value."""
    return ml_auto(z, alpha, beta, tol).value
