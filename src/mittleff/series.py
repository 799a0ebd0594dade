"""Power-series evaluation of the two-parameter Mittag-Leffler function.

Direct summation of sum_n z**n / Gamma(beta + n*alpha).  Reliable for
|z| <= 1; the dispatcher routes larger arguments to the asymptotic or
quadrature evaluators.
"""

from __future__ import annotations

import cmath
import functools
import math

from .exceptions import DomainError
from .kernels import check_alpha_beta, finite_complex, gamma_real, reciprocal_gamma
from .quadrature import DEFAULT_TOL, EvalResult, Method

DEFAULT_MAX_TERMS = 250
TABLE_BLOCK = 32
_SERIES = Method.SERIES


@functools.lru_cache(maxsize=256)
def _rgamma_block(alpha: float, beta: float, block: int) -> tuple[float, ...]:
    """1/Gamma(beta + n*alpha) for the TABLE_BLOCK indices n of one block.

    The coefficients do not depend on z, so each block is computed once
    per (alpha, beta) and shared by every call; a block is immutable once
    cached, so concurrent callers never see part of one.
    """
    start = block * TABLE_BLOCK
    return tuple(reciprocal_gamma(beta + n * alpha) for n in range(start, start + TABLE_BLOCK))


def ml_series(z: complex, alpha: float, beta: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Partial sum with a relative stopping rule.

    Terms are added until the next one satisfies |term| <= tol*|sum|,
    so small values such as E[0.5, 150](0.5) = 2.7e-261 keep their
    relative accuracy; that term's magnitude is reported as
    err_estimate.  Where x = beta + n*alpha < 1/2 the coefficient
    1/Gamma(x) = sin(pi*x)*Gamma(1-x)/pi vanishes at the poles of Gamma
    while the next one need not, so the test and the estimate size it by
    the envelope Gamma(1-x)/pi instead; the sum itself adds 1/Gamma(x).
    If the fixed cap of DEFAULT_MAX_TERMS = 250 terms is reached first,
    converged is False, and so it is for a NaN value (an infinite term
    meets an infinite |sum|) and for a stop after z**n overflowed, such as
    ml_series(-1e8, 3.9, 1) = -inf where E is 3.19e33.  The coefficients
    1/Gamma(beta + n*alpha) come from a table cached per (alpha, beta).
    """
    check_alpha_beta(alpha, beta)
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol={tol!r} must be positive and finite")
    return _series_sum(finite_complex(z), alpha, beta, tol)


def _series_sum(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    """ml_series for checked arguments."""
    max_terms = DEFAULT_MAX_TERMS  # a local: read at every term
    # the terms before the first n >= 1 with beta + n*alpha >= 1/2 are sized
    # by the envelope
    n_reflect = 1
    while n_reflect <= max_terms and beta + n_reflect * alpha < 0.5:
        n_reflect += 1
    # summed in floats for real z: the complex loop's real part bit for bit,
    # and an imaginary part of exactly 0
    if z.imag == 0.0:
        z = z.real
    acc = 0.0
    zp = 1.0  # z**n
    n = 0
    block = 0
    while True:
        for rg in _rgamma_block(alpha, beta, block):
            term = zp * rg
            # n_reflect >= 1: past the envelope one index test comes before the stopping test
            if n >= n_reflect:
                size = abs(term)
            elif n:
                size = abs(zp) * gamma_real(1.0 - (beta + n * alpha)) / math.pi
            else:
                size = math.inf  # term 0 is always added
            if size <= tol * abs(acc):
                # a NaN sum (an infinite term, inf <= inf) is never converged,
                # nor is a stop after z**n overflowed: its infinite term met an
                # infinite |sum| while 1/Gamma underflowed.  acc == acc is False
                # for a NaN in either part
                return tuple.__new__(EvalResult, (complex(acc), _SERIES, n, size, acc == acc and cmath.isfinite(zp)))
            if n >= max_terms:
                return tuple.__new__(EvalResult, (complex(acc), _SERIES, n, size, False))
            acc += term
            zp *= z
            n += 1
        block += 1
