"""Large-argument asymptotic evaluation of the Mittag-Leffler function.

The algebraic part is the divergent expansion -sum_n sigma_n*tau_n*z**-n,
summed with a practical stopping rule: stop once the term-size proxy
tau_n*|z|**-n drops below tol (converged), or once n exceeds the optimal
truncation bound |z|**(1/alpha)/alpha (not converged).  Just above the
zero of 1/Gamma at beta - n*alpha = 0 the proxy uses the reflection
envelope of tau_n, so a coefficient that is small there does not stop
the sum.  When |Arg z| is within alpha*pi the exponentially growing
contribution exp(z**(1/alpha)) * z**((1-beta)/alpha) / alpha is added
on top.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .exceptions import DomainError
from .kernels import cexp, finite_complex, principal_arg

INF = math.inf
TABLE_BLOCK = 32
FLOOR_TERMS = 8 * TABLE_BLOCK  # log_r_floor scans at most eight coefficient blocks


@dataclass(frozen=True)
class AsymptoticResult:
    value: complex
    m: int  # sum ran over n = 1 .. m-1
    err_estimate: float  # tau_[m-1] * |z|**-(m-1), size proxy of the last term
    converged: bool


def asymptotic_sigma_tau(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """Coefficient pieces (sigma_n, log tau_n) of the n-th expansion term.

    While n*alpha < beta the coefficient is the plain 1/Gamma(beta -
    n*alpha); past that point the reflection form kicks in:
    sigma = -sin(pi*(n*alpha - beta)), tau = Gamma(1 + n*alpha - beta)/pi.
    tau is returned as a log to dodge overflow at large n.
    """
    x = beta - n * alpha
    if x > 0.0:
        return 1.0, -math.lgamma(x)
    return -math.sin(math.pi * (n * alpha - beta)), math.lgamma(1.0 - x) - math.log(math.pi)


@functools.lru_cache(maxsize=256)
def _sigma_tau_block(alpha: float, beta: float, block: int) -> tuple[tuple[float, float, float], ...]:
    """(sigma_n, log tau_n, log size_n) for the TABLE_BLOCK indices n of one block.

    size_n is the magnitude the stopping rule reads.  It is tau_n except
    where 0 < beta - n*alpha < 1/2: there 1/Gamma vanishes towards its zero
    at 0 while the next coefficient does not, so the term is sized by the
    reflection envelope Gamma(1 - x)/pi that the terms past the zero use.

    Cached per (alpha, beta) like the series coefficients; a block is
    immutable once cached, so concurrent callers never see part of one.
    """
    rows = []
    for n in range(block * TABLE_BLOCK, (block + 1) * TABLE_BLOCK):
        sigma, log_tau = asymptotic_sigma_tau(n, alpha, beta)
        x = beta - n * alpha
        log_size = math.lgamma(1.0 - x) - math.log(math.pi) if 0.0 < x < 0.5 else log_tau
        rows.append((sigma, log_tau, log_size))
    return tuple(rows)


@functools.lru_cache(maxsize=256)
def log_r_floor(alpha: float, beta: float, tol: float) -> float:
    """A lower bound on the log|z| at which ml_asymptotic can converge.

    Term n is reached iff log|z| >= alpha*(log n + log alpha), and it meets
    the stopping rule iff log|z| > (log size_n - log tol)/n.  The bound is
    the least over n of the larger of the two.  The reach grows with n, so
    the scan ends once it passes the least value found; it also ends at
    n = FLOOR_TERMS, whose reach then caps the bound, since as alpha -> 0
    the scan would grow without bound and evict the coefficient blocks the
    expansion reads.
    """
    log_alpha = math.log(alpha)
    log_tol = math.log(tol)
    floor = alpha * (math.log(FLOOR_TERMS) + log_alpha)
    for n in range(1, FLOOR_TERMS):
        reach = alpha * (math.log(n) + log_alpha)
        if reach >= floor:
            break
        log_size = _sigma_tau_block(alpha, beta, n // TABLE_BLOCK)[n % TABLE_BLOCK][2]
        floor = min(floor, max(reach, (log_size - log_tol) / n))
    return floor


def ml_asymptotic(z: complex, alpha: float, beta: float, tol: float) -> AsymptoticResult:
    """Asymptotic value of E[alpha, beta](z) for large |z|, alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1]")
    if not tol > 0.0:
        raise DomainError(f"tol={tol!r} must be positive")
    z = finite_complex(z)
    if z == 0:
        raise DomainError("z = 0 is not in the asymptotic regime")

    r = abs(z)
    theta = principal_arg(z)
    ln_r = math.log(r)
    # divergence bound n > |z|**(1/alpha)/alpha, kept in logs
    log_n_max = ln_r / alpha - math.log(alpha)
    log_tol = math.log(tol)

    # a real z has theta 0 or pi, where rect(1, -n*theta) is exactly (+-1, ~0):
    # it is summed in floats, the complex loop's real part bit for bit
    real = z.imag == 0.0
    acc = 0.0 if real else 0.0j
    n = 1
    t_last = INF
    m = 1
    converged = False
    coeffs = _sigma_tau_block(alpha, beta, 0)
    while True:
        if math.log(n) > log_n_max:
            m = n  # stopped before adding term n
            break
        if n % TABLE_BLOCK == 0:
            coeffs = _sigma_tau_block(alpha, beta, n // TABLE_BLOCK)
        sigma, log_tau, log_size = coeffs[n % TABLE_BLOCK]
        log_t = log_tau - n * ln_r
        t = math.exp(log_t) if log_t < 709.0 else INF
        if real:
            acc += sigma * t if theta == 0.0 or n % 2 == 0 else -(sigma * t)
        else:
            acc += sigma * t * cmath.rect(1.0, -n * theta)
        if log_size != log_tau:
            log_t = log_size - n * ln_r
            t = math.exp(log_t) if log_t < 709.0 else INF
        t_last = t
        if log_t < log_tol:
            m = n + 1
            converged = True
            break
        n += 1

    value = complex(-acc)
    if abs(theta) <= alpha * math.pi:
        lnz = cmath.log(z)
        g = cexp(lnz / alpha)  # z**(1/alpha)
        if cmath.isfinite(g):
            e = cexp(((1.0 - beta) / alpha) * lnz + g)
            # part by part: a complex quotient inf/alpha would put NaN in a zero part
            value += complex(e.real / alpha, e.imag / alpha)
        elif g.real > 0.0:
            value = complex(INF, INF)
        # g overflowed with Re g < 0: exp factor underflows to 0
    return AsymptoticResult(value, m, t_last, converged)
