"""Scalar numerical kernels.

Real gamma and its reciprocal, principal-branch complex powers, and the
first- and second-order power-difference kernels

    psi1(eps, a) = ((1 + eps)**a - 1) / eps
    psi2(eps, a) = ((1 + eps)**a - (1 + a*eps)) / eps**2

which stay accurate where the raw formulas cancel catastrophically.
All functions here are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import cmath
import math

from .exceptions import DomainError

# Lanczos approximation, g = 7, 9 coefficients.  Good to ~15 significant
# digits for arguments >= 0.5; below that the reflection formula is used.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _lanczos_gamma(x: float) -> float:
    # valid for x >= 0.5
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (x + k - 1.0)
    t = x + _LANCZOS_G - 0.5
    try:
        return _SQRT_TWO_PI * math.pow(t, x - 0.5) * math.exp(-t) * acc
    except OverflowError:
        return math.inf


def gamma_real(x: float) -> float:
    """Gamma function for real arguments.

    Uses a Lanczos approximation for x >= 0.5 and the reflection formula
    Gamma(x)*Gamma(1-x) = pi/sin(pi*x) below.  Raises DomainError at the
    poles x = 0, -1, -2, ...
    """
    x = float(x)
    if x >= 0.5:
        return _lanczos_gamma(x)
    if x == math.floor(x):
        raise DomainError(f"gamma_real: pole at nonpositive integer x={x!r}")
    s = math.sin(math.pi * x)
    return math.pi / (s * _lanczos_gamma(1.0 - x))


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), entire in x: returns exactly 0.0 at x = 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x >= 0.5:
        g = _lanczos_gamma(x)
        return 0.0 if math.isinf(g) else 1.0 / g
    # reflection: 1/Gamma(x) = sin(pi x) * Gamma(1-x) / pi
    return math.sin(math.pi * x) * _lanczos_gamma(1.0 - x) / math.pi


def cexp(w: complex) -> complex:
    """exp(w) that saturates to inf components instead of raising on overflow.

    A zero imaginary part stays zero: inf * sin(0) would be NaN.
    """
    try:
        return cmath.exp(w)
    except OverflowError:
        if w.imag == 0.0:
            return complex(math.inf, w.imag)
        return complex(math.inf * math.cos(w.imag), math.inf * math.sin(w.imag))


def principal_arg(z: complex) -> float:
    """Argument of z in (-pi, pi].

    A zero imaginary part is treated as +0.0, so the negative real axis
    maps to +pi regardless of the sign of the incoming zero.
    """
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.phase(z)


def cpow_principal(w: complex, a: float) -> complex:
    """Principal branch of w**a with Arg w in (-pi, pi].

    Returns 0 for w = 0 with a > 0; raises DomainError for w = 0 with
    a <= 0.  The branch cut along the negative real axis takes the value
    from above (theta = +pi).
    """
    w = complex(w)
    if w == 0:
        if a > 0.0:
            return 0.0j
        raise DomainError("cpow_principal: 0 cannot be raised to a power <= 0")
    if w.imag == 0.0:
        w = complex(w.real, 0.0)
    return cmath.exp(a * cmath.log(w))


def _log1p_complex(z: complex) -> complex:
    # log(1+z) without cancellation for small |z|; assumes Re(1+z) > -1
    # so the principal branch is smooth (holds for |z| < 1).
    w = 1.0 + z
    if w == 1.0:
        return z
    # w-1 is exact near 1, so the correction factor fixes the rounding of 1+z
    return cmath.log(w) * (z / (w - 1.0))


def _expm1_complex(z: complex) -> complex:
    # exp(z)-1 without cancellation for small |z| (|z| < 2*pi assumed,
    # which holds for every caller here).
    u = cmath.exp(z)
    if u == 1.0:
        return z
    return (u - 1.0) * (z / cmath.log(u))


def psi1(eps: complex, a: float) -> complex:
    """((1+eps)**a - 1)/eps, stable for small |eps|.

    Returns exactly a at eps = 0.  Requires |eps| <= 1 and eps != -1.
    """
    eps = complex(eps)
    _check_eps(eps, "psi1")
    if eps == 0:
        return complex(a)
    if abs(eps) <= 0.5:
        # sum_{k>=1} binom(a, k) eps^(k-1); ratio <= ~0.5 so this terminates fast
        coeff = a
        acc = complex(a)
        epk = 1.0 + 0.0j
        for k in range(1, 400):
            coeff *= (a - k) / (k + 1.0)
            epk *= eps
            term = coeff * epk
            acc += term
            if abs(term) <= 1e-17 * abs(acc):
                break
        return acc
    if eps.imag == 0.0:
        return complex(math.expm1(a * math.log1p(eps.real)) / eps.real)
    return _expm1_complex(a * _log1p_complex(eps)) / eps


def psi2(eps: complex, a: float) -> complex:
    """((1+eps)**a - (1+a*eps))/eps**2, stable for small |eps|.

    Returns exactly a*(a-1)/2 at eps = 0.  Requires |eps| <= 1 and
    eps != -1.  For |eps| <= 1/2 the binomial series is summed (the
    direct formula would cancel); beyond that the direct formula is fine.
    """
    eps = complex(eps)
    _check_eps(eps, "psi2")
    if eps == 0:
        return complex(0.5 * a * (a - 1.0))
    if abs(eps) <= 0.5:
        # sum_{k>=2} binom(a, k) eps^(k-2); ratio <= ~0.5 so this terminates fast
        coeff = 0.5 * a * (a - 1.0)
        acc = complex(coeff)
        epk = 1.0 + 0.0j
        for k in range(2, 400):
            coeff *= (a - k) / (k + 1.0)
            epk *= eps
            term = coeff * epk
            acc += term
            if abs(term) <= 1e-17 * abs(acc):
                break
        return acc
    w = cpow_principal(1.0 + eps, a)
    return (w - (1.0 + a * eps)) / (eps * eps)


def _check_eps(eps: complex, who: str) -> None:
    if abs(eps) > 1.0 or eps == -1.0:
        raise DomainError(f"{who}: eps={eps!r} outside the unit disk")
