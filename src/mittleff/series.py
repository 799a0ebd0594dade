"""Power-series evaluation of the two-parameter Mittag-Leffler function.

Direct summation of sum_n z**n / Gamma(beta + n*alpha).  Reliable for
|z| <= 1; the dispatcher routes larger arguments to the asymptotic or
quadrature evaluators.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .exceptions import DomainError
from .kernels import finite_complex, gamma_real, reciprocal_gamma

DEFAULT_MAX_TERMS = 250
TABLE_BLOCK = 32


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    err_estimate: float  # magnitude of the first omitted term, enveloped left of x = 1/2
    converged: bool


@functools.lru_cache(maxsize=256)
def _rgamma_block(alpha: float, beta: float, block: int) -> tuple[float, ...]:
    """1/Gamma(beta + n*alpha) for the TABLE_BLOCK indices n of one block.

    The coefficients do not depend on z, so each block is computed once
    per (alpha, beta) and shared by every call; a block is immutable once
    cached, so concurrent callers never see part of one.
    """
    start = block * TABLE_BLOCK
    return tuple(reciprocal_gamma(beta + n * alpha) for n in range(start, start + TABLE_BLOCK))


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
    err_estimate.  Where x = beta + n*alpha < 1/2 the coefficient
    1/Gamma(x) = sin(pi*x)*Gamma(1-x)/pi vanishes at the poles of Gamma
    while the next one need not, so the test and the estimate size it by
    the envelope Gamma(1-x)/pi instead; the sum itself adds 1/Gamma(x).
    If max_terms is exhausted first, converged is False.  The
    coefficients 1/Gamma(beta + n*alpha) come from a table cached per
    (alpha, beta).
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha={alpha!r} must be positive")
    if not tol > 0.0:
        raise DomainError(f"tol={tol!r} must be positive")
    if max_terms < 1:
        raise DomainError(f"max_terms={max_terms!r} must be >= 1")
    z = finite_complex(z)
    # terms n < n_reflect have x < 1/2 and are sized by the envelope
    n_reflect = 1
    while n_reflect <= max_terms and beta + n_reflect * alpha < 0.5:
        n_reflect += 1
    if z.imag == 0.0:
        # summed in floats: the complex loop's real part bit for bit, and an
        # imaginary part of exactly 0
        z = z.real
    acc = 0.0
    zp = 1.0  # z**n
    n = 0
    for block in itertools.count():
        for rg in _rgamma_block(alpha, beta, block):
            term = zp * rg
            if n >= 1:
                if n >= n_reflect:
                    size = abs(term)
                else:
                    size = abs(zp) * gamma_real(1.0 - (beta + n * alpha)) / math.pi
                if size <= tol * abs(acc):
                    return SeriesResult(complex(acc), n, size, True)
                if n >= max_terms:
                    return SeriesResult(complex(acc), n, size, False)
            acc += term
            zp *= z
            n += 1
