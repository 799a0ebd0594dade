"""Power-series evaluation of the two-parameter Mittag-Leffler function.

Direct summation of sum_n z**n / Gamma(beta + n*alpha).  Reliable for
|z| <= 1; the dispatcher routes larger arguments to the asymptotic or
quadrature evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import DomainError
from .kernels import reciprocal_gamma

DEFAULT_MAX_TERMS = 250


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    err_estimate: float  # magnitude of the first omitted term
    converged: bool


def ml_series(
    z: complex,
    alpha: float,
    beta: float,
    tol: float = 1e-15,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Partial sum with a relative stopping rule.

    Terms are added until the next one satisfies |term| <= tol*|sum|,
    so small values such as E[0.5, 150](0.5) = 2.7e-261 keep their
    relative accuracy; that term's magnitude is reported as
    err_estimate.  Terms whose gamma factor sits at a pole contribute
    zero and are skipped by the convergence test.  If max_terms is
    exhausted first, converged is False.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha={alpha!r} must be positive")
    if tol <= 0.0:
        raise DomainError(f"tol={tol!r} must be positive")
    if max_terms < 1:
        raise DomainError(f"max_terms={max_terms!r} must be >= 1")
    z = complex(z)
    acc = 0.0j
    zp = 1.0 + 0.0j  # z**n
    n = 0
    while True:
        rg = reciprocal_gamma(beta + n * alpha)
        term = zp * rg
        if n >= 1:
            if rg != 0.0 and abs(term) <= tol * abs(acc):
                return SeriesResult(acc, n, abs(term), True)
            if n >= max_terms:
                return SeriesResult(acc, n, abs(term), False)
        acc += term
        zp *= z
        n += 1


def ml_derivative(z: complex, alpha: float, beta: float, tol: float = 1e-14) -> complex:
    """d/dz of the function, via the two-evaluation identity.

    For z != 0 uses (E[alpha, beta-1](z) - (beta-1)*E[alpha, beta](z))
    / (alpha*z); at z = 0 the limit is the n = 1 series coefficient
    1/Gamma(alpha + beta).
    """
    if tol <= 0.0:
        raise DomainError(f"tol={tol!r} must be positive")
    z = complex(z)
    if z == 0:
        return complex(reciprocal_gamma(alpha + beta))
    from .dispatch import ml_auto

    upper = ml_auto(z, alpha, beta - 1.0, tol).value
    center = ml_auto(z, alpha, beta, tol).value
    return (upper - (beta - 1.0) * center) / (alpha * z)
