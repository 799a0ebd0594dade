"""Large-argument asymptotic evaluation of the Mittag-Leffler function.

The algebraic part is the divergent expansion -sum_n sigma_n*tau_n*z**-n,
summed with a practical stopping rule: stop once the term-size proxy
tau_n*|z|**-n drops below tol (converged), or once n exceeds the optimal
truncation bound |z|**(1/alpha)/alpha (not converged).  When |Arg z| is
within alpha*pi the exponentially growing contribution
exp(z**(1/alpha)) * z**((1-beta)/alpha) / alpha is added on top.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .exceptions import DomainError
from .kernels import cexp, principal_arg

INF = math.inf


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


def ml_asymptotic(z: complex, alpha: float, beta: float, tol: float) -> AsymptoticResult:
    """Asymptotic value of E[alpha, beta](z) for large |z|, alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1]")
    if tol <= 0.0:
        raise DomainError(f"tol={tol!r} must be positive")
    z = complex(z)
    if z == 0:
        raise DomainError("z = 0 is not in the asymptotic regime")

    r = abs(z)
    theta = principal_arg(z)
    ln_r = math.log(r)
    # divergence bound n > |z|**(1/alpha)/alpha, kept in logs
    log_n_max = ln_r / alpha - math.log(alpha)
    log_tol = math.log(tol)

    acc = 0.0j
    n = 1
    t_last = INF
    m = 1
    converged = False
    while True:
        if math.log(n) > log_n_max:
            m = n  # stopped before adding term n
            break
        sigma, log_tau = asymptotic_sigma_tau(n, alpha, beta)
        log_t = log_tau - n * ln_r
        t = math.exp(log_t) if log_t < 709.0 else INF
        acc += sigma * t * cmath.rect(1.0, -n * theta)
        t_last = t
        if log_t < log_tol:
            m = n + 1
            converged = True
            break
        n += 1

    value = -acc
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
