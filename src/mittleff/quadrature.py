"""Contour-quadrature evaluation of the Mittag-Leffler function.

The function is recovered from a Hankel-type integral of e**w times a
rational-like integrand in w.  Depending on where z sits relative to the
sector |Arg z| <= alpha*pi, the integrand is either used as-is (f_plain)
or has the simple pole at gamma = z**(1/alpha) split off analytically
(f_one), with the pole's residue alpha**-1 * gamma**(1-beta) * e**gamma
added back in closed form.  The node factors of the integrand do not
depend on z, so ml_quad_values caches them per (rule, alpha, beta) and
sums many z at once; the scalar ml_quad is a batch of one.  A separate
entry point handles the negative real axis for 1 < alpha < 2, where a
conjugate pair of poles must be split off (two-pole integrand f_2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .contours import ContourKind, QuadratureRule
from .exceptions import DomainError
from .kernels import (  # noqa: F401  cexp, principal_arg: bench/tracing.py rebinds them here
    cexp,
    cpow_principal as _cpow,
    finite_complex,
    principal_arg,
    psi1,
    psi2,
    reciprocal_gamma,
)

# below this relative distance to a pole the psi-form integrands take over
EPS_SWITCH = 0.1


class Method(str, Enum):
    SERIES = "series"
    ASYMPTOTIC = "asymp"
    QUAD_PARABOLIC = "quad-par"
    QUAD_HYPERBOLIC = "quad-hyp"
    REDUCTION = "reduction"


@dataclass(frozen=True)
class EvalResult:
    value: complex
    method: Method
    nodes_or_terms: int
    err_estimate: float
    converged: bool  # series/expansion: stopping rule met; reduction: every step did; quadrature: z != 0


def _method_for(rule: QuadratureRule) -> Method:
    if rule.kind is ContourKind.PARABOLIC:
        return Method.QUAD_PARABOLIC
    return Method.QUAD_HYPERBOLIC


def q_sum(
    rule: QuadratureRule,
    integrand: Callable[[complex], complex],
    conj_symmetric: bool,
) -> complex:
    """Weighted node sum A * sum_n C_n f(w_n) over n = -N..N.

    With conj_symmetric the negative-n half mirrors the positive one, so
    only real parts are accumulated: A*(C_0 f(w_0) + 2 sum Re[C_n f(w_n)]).
    Otherwise f is also evaluated at the reflected nodes conj(w_n) with
    weights conj(C_n).  Fixed ascending-n order keeps results reproducible.
    """
    if conj_symmetric:
        acc = (rule.weights[0] * integrand(rule.nodes[0])).real
        tail = 0.0
        for n in range(1, rule.N + 1):
            tail += (rule.weights[n] * integrand(rule.nodes[n])).real
        return complex(rule.A * (acc + 2.0 * tail))
    acc_c = rule.weights[0] * integrand(rule.nodes[0])
    for n in range(1, rule.N + 1):
        acc_c += rule.weights[n] * integrand(rule.nodes[n])
        acc_c += rule.weights[n].conjugate() * integrand(rule.nodes[n].conjugate())
    return rule.A * acc_c


def f_plain(w: complex, z: complex, alpha: float, beta: float) -> complex:
    """Integrand w**(alpha-beta) / (w**alpha - z) on the cut plane."""
    return _cpow(w, alpha - beta) / (_cpow(w, alpha) - z)


def f_one(w: complex, z: complex, alpha: float, beta: float, gamma: complex) -> complex:
    """f_plain with the simple pole at gamma = z**(1/alpha) removed.

    Near the pole (relative offset eps below EPS_SWITCH) the difference
    would cancel, so an equivalent psi-kernel form is used instead.
    """
    eps = (w - gamma) / gamma
    if abs(eps) < EPS_SWITCH:
        num = psi1(eps, alpha - beta) - psi2(eps, alpha) / alpha
        return num / (_cpow(gamma, beta) * psi1(eps, alpha))
    return f_plain(w, z, alpha, beta) - _cpow(gamma, 1.0 - beta) / (alpha * (w - gamma))


def _f_pair_near(
    w: complex, alpha: float, beta: float, g_near: complex, g_far: complex, eps: complex
) -> complex:
    # two-pole integrand via psi kernels around g_near; exact for any |eps| <= 1
    p1 = psi1(eps, alpha)
    den_shared = w - g_far + eps * g_near
    near = (
        (w - g_far) * (psi1(eps, alpha - beta) - psi2(eps, alpha) / alpha)
        - g_near * p1 / alpha
    ) / (_cpow(g_near, beta) * p1 * den_shared)
    far = _cpow(g_near, 1.0 - beta) * _cpow(1.0 + eps, alpha - beta) / (p1 * den_shared) - _cpow(
        g_far, 1.0 - beta
    ) / (alpha * (w - g_far))
    return near + far


def _f_two(w: complex, x: float, alpha: float, beta: float, gp: complex, gm: complex) -> complex:
    ep = (w - gp) / gp
    if abs(ep) < EPS_SWITCH:
        return _f_pair_near(w, alpha, beta, gp, gm, ep)
    em = (w - gm) / gm
    if abs(em) < EPS_SWITCH:
        return _f_pair_near(w, alpha, beta, gm, gp, em)
    return f_plain(w, -x + 0.0j, alpha, beta) - (
        _cpow(gp, 1.0 - beta) / (w - gp) + _cpow(gm, 1.0 - beta) / (w - gm)
    ) / alpha


@functools.lru_cache(maxsize=128)
def origin_accuracy(rule: QuadratureRule, beta: float) -> float:
    """Observable error proxy: |Q(w**-beta) - 1/Gamma(beta)|.

    The same rule applied at z = 0 has a known exact answer; its error
    tracks the error at nearby z within about an order of magnitude.
    """
    got = q_sum(rule, lambda w: _cpow(w, -beta), True)
    return abs(got.real - reciprocal_gamma(beta))


@functools.lru_cache(maxsize=64)
def _node_factors(
    rule: QuadratureRule, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The z-independent factors w_n, A*C_n, A*C_n*w_n**(alpha-beta), w_n**alpha.

    Columns form two blocks of N+1: the nodes n = 0..N, then their
    reflections conj(w_n).  w_0 and C_0 are real, so both blocks hold node
    0, each with half its weight: the first block's sum is then half the
    sum over n = -N..N of a conjugate-symmetric integrand.  Powers are
    principal-branch exp(a*log w), as in cpow_principal.
    """
    nodes = np.array(rule.nodes)
    weights = rule.A * np.array(rule.weights)
    weights[0] *= 0.5
    w = np.concatenate([nodes, nodes.conj()])
    c = np.concatenate([weights, weights.conj()])
    log_w = np.log(w)
    return w, c, c * np.exp((alpha - beta) * log_w), np.exp(alpha * log_w)


def _sum_rows(terms: np.ndarray, sym: np.ndarray, n: int) -> np.ndarray:
    # conjugate-symmetric rows take twice the real part of the first block, so
    # their imaginary part is exactly 0; the other rows sum both blocks
    blocks = terms.reshape(len(terms), 2, n + 1).sum(axis=2)
    return np.where(sym, 2.0 * blocks[:, 0].real, blocks[:, 0] + blocks[:, 1])


def _plain_values(z: np.ndarray, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    _, _, c_wab, wa = _node_factors(rule, alpha, beta)
    return _sum_rows(c_wab / (wa - z[:, None]), z.imag == 0.0, rule.N)


def _pole_split_values(z: np.ndarray, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    w, c, c_wab, wa = _node_factors(rule, alpha, beta)
    log_gamma = np.log(z) / alpha
    gamma = np.exp(log_gamma)
    log_pole = (1.0 - beta) * log_gamma - math.log(alpha)  # log(gamma**(1-beta)/alpha)
    dw = w - gamma[:, None]
    terms = c_wab / (wa - z[:, None]) - c * (np.exp(log_pole)[:, None] / dw)
    # the integrand is conjugate-symmetric only for gamma on the positive real
    # axis: gamma**(1-beta) is complex elsewhere, even for real z < 0
    sym = log_gamma.imag == 0.0
    # near the pole the difference cancels: f_one's psi form takes over
    # (symmetric rows never read the second block)
    for i, j in zip(*np.nonzero(np.abs(dw / gamma[:, None]) < EPS_SWITCH)):
        if j <= rule.N or not sym[i]:
            terms[i, j] = c[j] * f_one(complex(w[j]), complex(z[i]), alpha, beta, complex(gamma[i]))
    residue = np.exp(log_pole + gamma)
    # real rows add the real part alone: inf*0 would make the imaginary part NaN
    values = np.where(sym, residue.real, residue) + _sum_rows(terms, sym, rule.N)
    # z = 0 has Arg 0 and always lands here
    return np.where(z == 0.0, complex(math.nan, math.nan), values)


def ml_quad_values(z: ArrayLike, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    """E[alpha, beta] at every entry of the array z by contour quadrature.

    alpha in (0, 1].  Returns a complex array of z's shape.  Each row of
    the (points x nodes) integrand is summed on its own, so a value does
    not depend on the other points in the batch.  Outside the sector
    |Arg z| <= alpha*pi the plain integrand is summed; inside it the pole
    at gamma = z**(1/alpha) is split off and its residue added in closed
    form.  z = 0 yields NaN (callers should route z = 0 to the series).
    Overflow gives inf parts and raises no warning.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1]")
    # + 0.0 copies z and turns a -0.0 imaginary part into +0.0: the negative
    # real axis is read from above, as in principal_arg
    z = np.asarray(z, dtype=np.complex128) + 0.0
    flat = z.reshape(-1)
    # every product and quotient in the helpers has a broadcast operand, so
    # numpy runs it row by row and a row's bits do not depend on the batch
    with np.errstate(all="ignore"):
        split = np.abs(np.arctan2(flat.imag, flat.real)) <= alpha * math.pi
        n_split = np.count_nonzero(split)
        # one-sided batches, every batch of one among them, skip the index copies
        if n_split == 0:
            out = _plain_values(flat, alpha, beta, rule)
        elif n_split == len(flat):
            out = _pole_split_values(flat, alpha, beta, rule)
        else:
            out = np.empty_like(flat)
            out[split] = _pole_split_values(flat[split], alpha, beta, rule)
            out[~split] = _plain_values(flat[~split], alpha, beta, rule)
    return out.reshape(z.shape)


def ml_quad(z: complex, alpha: float, beta: float, rule: QuadratureRule) -> EvalResult:
    """E[alpha, beta](z) by contour quadrature, alpha in (0, 1].

    A batch of one through ml_quad_values; the rule is reusable across z.
    z = 0 yields a NaN value with converged False (callers should route
    z = 0 to the series).  A NaN or infinite part of z raises DomainError.
    """
    z = finite_complex(z)
    value = complex(ml_quad_values(np.array([z]), alpha, beta, rule)[0])
    err = math.nan if z == 0 else origin_accuracy(rule, beta)
    return EvalResult(value, _method_for(rule), 2 * rule.N + 1, err, z != 0)


def ml_quad_neg_axis_wide_alpha(
    x: float, alpha: float, beta: float, rule: QuadratureRule
) -> EvalResult:
    """E[alpha, beta](-x) for x > 0 and 1 < alpha < 2.

    The conjugate pole pair gamma_pm = x**(1/alpha) e**(+-i pi/alpha) is
    split off; its combined residue reduces to the real cosine form, and
    the remaining analytic integrand f_2 is summed with the halved
    symmetric rule.
    """
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"alpha={alpha!r} outside (1, 2)")
    if not x > 0.0:
        raise DomainError(f"x={x!r} must be positive")
    rho = x ** (1.0 / alpha)
    ang = math.pi / alpha
    gp = complex(rho * math.cos(ang), rho * math.sin(ang))
    gm = gp.conjugate()
    # cos(pi/alpha) < 0 for alpha < 2, so this never overflows
    residue_pair = (
        (2.0 / alpha)
        * x ** ((1.0 - beta) / alpha)
        * math.exp(rho * math.cos(ang))
        * math.cos((1.0 - beta) * ang + rho * math.sin(ang))
    )
    integral = q_sum(rule, lambda w: _f_two(w, x, alpha, beta, gp, gm), True)
    value = complex(residue_pair + integral.real)
    return EvalResult(value, _method_for(rule), 2 * rule.N + 1, origin_accuracy(rule, beta), True)
