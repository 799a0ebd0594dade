"""Scalar numerical kernels.

Real gamma and its reciprocal (on top of math.gamma and math.lgamma,
good to about 1e-15 relative wherever the result is a normal float),
principal-branch complex powers, and the first- and second-order
power-difference kernels

    psi1(eps, a) = ((1 + eps)**a - 1) / eps
    psi2(eps, a) = ((1 + eps)**a - (1 + a*eps)) / eps**2

which stay accurate where the raw formulas cancel catastrophically: each
is one adaptive binomial series on |eps| <= 1/2.  They are the reference
for quadrature's psi form, which sums the same series near a pole
(|eps| < EPS_SWITCH = 0.1) from coefficient rows cached per (alpha, beta)
and cut for that disk, not term by term.  pole_turns and
on_sheet pick the roots of w**alpha = z on the principal sheet, the poles
that quadrature splits off and whose exponential terms the expansion adds.
All functions here are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import cmath
import functools
import math

from .exceptions import DomainError


def gamma_real(x: float) -> float:
    """Gamma function for real arguments: math.gamma with the poles checked.

    Raises DomainError at the poles x = 0, -1, -2, ...  Where Gamma
    overflows (x > 171.6, or within about 1e-308 of 0) it returns an
    infinity of the sign of x.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_real: pole at nonpositive integer x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), entire in x: returns exactly 0.0 at x = 0, -1, -2, ...

    Where Gamma overflows (x > 171.6) the value is exp(-lgamma(x)), which
    runs through the subnormals down to 0 near x = 178; past x ~ 2.6e305,
    where lgamma overflows too, it is 0.0.  Left of about x = -171 the
    value is infinite, with the sign of Gamma.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        # x > 171.6 or |x| < ~1e-308: lgamma is log|Gamma|, and Gamma has the sign of x
        try:
            return math.copysign(math.exp(-math.lgamma(x)), x)
        except OverflowError:  # x > ~2.6e305
            return 0.0
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def finite_complex(z: complex) -> complex:
    """complex(z), or DomainError if a part of z is NaN or infinite or |z| overflows."""
    z = complex(z)
    if cmath.isnan(z):
        raise DomainError(f"z={z!r} has a NaN part")
    if cmath.isinf(z):
        raise DomainError(f"z={z!r} must be finite")
    try:
        abs(z)
    except OverflowError:
        raise DomainError(f"z={z!r}: |z| overflows") from None
    return z


def check_alpha_beta(alpha: float, beta: float) -> None:
    """DomainError unless alpha is positive and finite and beta is finite."""
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha={alpha!r} must be positive and finite")
    if not math.isfinite(beta):
        raise DomainError(f"beta={beta!r} must be finite")


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
    maps to +pi regardless of the sign of the incoming zero.  math.atan2
    is the libm atan2 that cmath.phase calls, but it returns an argument
    that underflows (|Im z| tiny against |Re z|) where cmath.phase raises
    OverflowError.
    """
    z = complex(z)
    return math.atan2(z.imag or 0.0, z.real)


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


@functools.lru_cache(maxsize=64)
def pole_turns(alpha: float) -> tuple[int, ...]:
    """The k != 0 of the roots gamma_k = exp((log z + 2*pi*i*k)/alpha) of
    w**alpha = z that can lie on the principal sheet: 0 < |k| <= (alpha+1)/2,
    none for alpha <= 1.  gamma_0 lies on it where |Arg z| <= alpha*pi, so
    always for alpha > 1.  Cached per alpha.
    """
    top = int((alpha + 1.0) / 2.0) if alpha > 1.0 else 0
    return (*range(-top, 0), *range(1, top + 1))


def on_sheet(turns, k: int, alpha: float):
    """Whether gamma_k, k != 0, lies on the principal sheet, for Arg z = turns*pi.

    Its argument is (turns + 2k)*pi/alpha, which must lie in (-pi, pi]: a
    pole on the cut counts once, from above.  For a real z turns is 0 or 1,
    and the test is exact.  turns may be a float or a numpy array.
    """
    t = turns + 2 * k
    return (-alpha < t) & (t <= alpha)


def _binomial_tail(eps: complex, a: float, k0: int, coeff: float) -> complex:
    # sum_{k>=k0} binom(a, k) eps^(k-k0), where coeff = binom(a, k0); for
    # |eps| <= 1/2 the term ratio is at most about 1/2, so this ends fast
    acc = complex(coeff)
    epk = 1.0 + 0.0j
    for k in range(k0, 400):
        coeff *= (a - k) / (k + 1.0)
        epk *= eps
        term = coeff * epk
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            break
    return acc


def psi1(eps: complex, a: float) -> complex:
    """((1+eps)**a - 1)/eps for |eps| <= 1/2, as one binomial series.

    Returns exactly a at eps = 0.
    """
    eps = complex(eps)
    _check_eps(eps, "psi1")
    return _binomial_tail(eps, a, 1, a)


def psi2(eps: complex, a: float) -> complex:
    """((1+eps)**a - (1+a*eps))/eps**2 for |eps| <= 1/2, as one binomial series.

    Returns exactly a*(a-1)/2 at eps = 0.
    """
    eps = complex(eps)
    _check_eps(eps, "psi2")
    return _binomial_tail(eps, a, 2, 0.5 * a * (a - 1.0))


def _check_eps(eps: complex, who: str) -> None:
    if not abs(eps) <= 0.5:
        raise DomainError(f"{who}: eps={eps!r} outside the disk |eps| <= 1/2")
