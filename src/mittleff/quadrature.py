"""Contour-quadrature evaluation of the Mittag-Leffler function.

The function is recovered from a Hankel-type integral of e**w times a
rational-like integrand in w.  Depending on where z sits relative to the
sector |Arg z| <= alpha*pi, the integrand is either used as-is (f_plain)
or has the simple pole at gamma = z**(1/alpha) split off analytically
(f_one), with the pole's residue alpha**-1 * gamma**(1-beta) * e**gamma
added back in closed form.  The node factors of the integrand do not
depend on z, so they are cached per (rule, alpha, beta): ml_quad_values
sums many z at once in numpy, and the scalar ml_quad runs a plain loop
over the same factors as floats.  The loop repeats the engine's
operations in the engine's order, so both give the same bits.  On the
negative real axis with 1 < alpha <= 2 a conjugate pair of poles must be
split off (two-pole integrand f_2): two_pole_row sums it as floats over
the cached factors, and ml_quad_neg_axis_wide_alpha, through q_sum, is
its reference.
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
_EPS_SWITCH_SQ = EPS_SWITCH * EPS_SWITCH


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
    """The z-independent factors w_n, A*C_n, A*C_n*w_n**(alpha-beta), w_n**alpha.

    Each is a column of 2N+2 nodes in two blocks of N+1: the nodes
    n = 0..N, then their reflections conj(w_n).  w_0 and C_0 are real, so
    both blocks hold node 0, each with half its weight: the first block's
    sum is then half the sum over n = -N..N of a conjugate-symmetric
    integrand.  Powers are principal-branch exp(a*log w), as in
    cpow_principal.  The last item holds the same factors as floats for
    the scalar loop: per block, one tuple (re, im of each factor) per node.
    """
    nodes = np.array(rule.nodes)
    weights = rule.A * np.array(rule.weights)
    weights[0] *= 0.5
    w = np.concatenate([nodes, nodes.conj()])[:, None]
    c = np.concatenate([weights, weights.conj()])[:, None]
    log_w = np.log(w)
    c_wab = c * np.exp((alpha - beta) * log_w)
    wa = np.exp(alpha * log_w)
    parts = np.concatenate([w, c, c_wab, wa], axis=1).view(np.float64).tolist()
    n = rule.N + 1
    return w, c, c_wab, wa, (tuple(map(tuple, parts[:n])), tuple(map(tuple, parts[n:])))


def _sum_rows(terms: np.ndarray, sym: np.ndarray, n: int) -> np.ndarray:
    # terms is (nodes, points); numpy reduces a non-innermost axis from +0.0,
    # adding node after node as the scalar loop does.  A lone column would
    # be summed pairwise, so it is accumulated instead; + 0.0 gives its sum
    # the zero sign of a start at +0.0
    blocks = terms.reshape(2, n + 1, -1)
    if blocks.shape[2] > 1:
        sums = blocks.sum(axis=1)
    else:
        sums = np.add.accumulate(blocks, axis=1)[:, -1] + 0.0
    # conjugate-symmetric rows take twice the real part of the first block, so
    # their imaginary part is exactly 0; the other rows sum both blocks
    return np.where(sym, 2.0 * sums[0].real, sums[0] + sums[1])


def _plain_values(z: np.ndarray, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    _, _, c_wab, wa, _ = _node_factors(rule, alpha, beta)
    return _sum_rows(c_wab / (wa - z), z.imag == 0.0, rule.N)


def _pole_split_values(z: np.ndarray, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    w, c, c_wab, wa, _ = _node_factors(rule, alpha, beta)
    log_gamma = np.log(z) / alpha
    gamma = np.exp(log_gamma)
    log_pole = (1.0 - beta) * log_gamma - math.log(alpha)  # log(gamma**(1-beta)/alpha)
    dw = w - gamma
    terms = c_wab / (wa - z)
    # c * (pole/dw) in real arithmetic: numpy's complex product may be fused
    # (FMA), which Python floats cannot repeat
    q = np.exp(log_pole) / dw
    terms.real -= c.real * q.real - c.imag * q.imag
    terms.imag -= c.real * q.imag + c.imag * q.real
    # the integrand is conjugate-symmetric only for gamma on the positive real
    # axis: gamma**(1-beta) is complex elsewhere, even for real z < 0
    sym = log_gamma.imag == 0.0
    # near the pole the difference cancels: f_one's psi form takes over
    # (symmetric rows never read the second block)
    near = dw.real * dw.real + dw.imag * dw.imag < _EPS_SWITCH_SQ * (
        gamma.real * gamma.real + gamma.imag * gamma.imag
    )
    for j, i in zip(*np.nonzero(near)):
        if j <= rule.N or not sym[i]:
            cj = complex(c[j, 0])
            f = f_one(complex(w[j, 0]), complex(z[i]), alpha, beta, complex(gamma[i]))
            terms[j, i] = complex(*_mul(cj.real, cj.imag, f.real, f.imag))
    residue = np.exp(log_pole + gamma)
    # real rows add the real part alone: inf*0 would make the imaginary part NaN
    values = np.where(sym, residue.real, residue) + _sum_rows(terms, sym, rule.N)
    # z = 0 has Arg 0 and always lands here
    return np.where(z == 0.0, complex(math.nan, math.nan), values)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1]")


def ml_quad_values(z: ArrayLike, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    """E[alpha, beta] at every entry of the array z by contour quadrature.

    alpha in (0, 1].  Returns a complex array of z's shape.  Each column of
    the (nodes x points) integrand is summed on its own, node after node,
    so a value does not depend on the other points in the batch and equals
    ml_quad's bit for bit.  Outside the sector |Arg z| <= alpha*pi the plain
    integrand is summed; inside it the pole at gamma = z**(1/alpha) is
    split off and its residue added in closed form.  z = 0 yields NaN
    (callers should route z = 0 to the series); an entry with a NaN or
    infinite part raises DomainError.  Overflow gives inf parts and raises
    no warning.
    """
    _check_alpha(alpha)
    # + 0.0 copies z and turns a -0.0 imaginary part into +0.0: the negative
    # real axis is read from above, as in principal_arg
    z = np.asarray(z, dtype=np.complex128) + 0.0
    flat = z.reshape(-1)
    if not np.isfinite(flat).all():
        raise DomainError("z has an entry with a NaN or infinite part")
    # every product and quotient in the helpers is elementwise and has no
    # complex product left to fuse, so a column's bits do not depend on the
    # batch
    with np.errstate(all="ignore"):
        split = np.abs(np.arctan2(flat.imag, flat.real)) <= alpha * math.pi
        n_split = np.count_nonzero(split)
        # one-sided batches skip the index copies
        if n_split == 0:
            out = _plain_values(flat, alpha, beta, rule)
        elif n_split == len(flat):
            out = _pole_split_values(flat, alpha, beta, rule)
        else:
            out = np.empty_like(flat)
            out[split] = _pole_split_values(flat[split], alpha, beta, rule)
            out[~split] = _plain_values(flat[~split], alpha, beta, rule)
    return out.reshape(z.shape)


def _div(ar: float, ai: float, br: float, bi: float) -> tuple[float, float]:
    # numpy's complex quotient (Smith's method), repeated in floats: CPython's
    # complex / rounds differently.  A zero divisor raises ZeroDivisionError,
    # where numpy gives inf or NaN
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return (ar + ai * rat) * scl, (ai - ar * rat) * scl
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return (ar * rat + ai) * scl, (ai * rat - ar) * scl


def _mul(ar: float, ai: float, br: float, bi: float) -> tuple[float, float]:
    # the complex product, unfused
    return ar * br - ai * bi, ar * bi + ai * br


def _plain_sum(block: tuple, zr: float, zi: float) -> tuple[float, float]:
    # one block of a _plain_values column, node after node from +0.0; the
    # quotient is _div's, written out because this is ml_quad's hot loop
    sr = si = 0.0
    for _, _, _, _, ar, ai, br, bi in block:
        br -= zr
        bi -= zi
        if abs(br) >= abs(bi):
            rat = bi / br
            scl = 1.0 / (br + bi * rat)
            sr += (ar + ai * rat) * scl
            si += (ai - ar * rat) * scl
        else:
            rat = br / bi
            scl = 1.0 / (bi + br * rat)
            sr += (ar * rat + ai) * scl
            si += (ai * rat - ar) * scl
    return sr, si


def _split_sum(
    block: tuple, z: complex, alpha: float, beta: float, gamma: complex, pole: complex
) -> tuple[float, float]:
    # one block of a _pole_split_values column, node after node from +0.0;
    # both quotients are _div's, written out as in _plain_sum
    zr, zi = z.real, z.imag
    gr, gi = gamma.real, gamma.imag
    pr, pi = pole.real, pole.imag
    near = _EPS_SWITCH_SQ * (gr * gr + gi * gi)
    sr = si = 0.0
    for wr, wi, cr, ci, ar, ai, br, bi in block:
        dr = wr - gr
        di = wi - gi
        if dr * dr + di * di < near:
            f = f_one(complex(wr, wi), z, alpha, beta, gamma)
            tr, ti = _mul(cr, ci, f.real, f.imag)
        else:
            if abs(dr) >= abs(di):
                rat = di / dr
                scl = 1.0 / (dr + di * rat)
                qr = (pr + pi * rat) * scl
                qi = (pi - pr * rat) * scl
            else:
                rat = dr / di
                scl = 1.0 / (di + dr * rat)
                qr = (pr * rat + pi) * scl
                qi = (pi * rat - pr) * scl
            br -= zr
            bi -= zi
            if abs(br) >= abs(bi):
                rat = bi / br
                scl = 1.0 / (br + bi * rat)
                tr = (ar + ai * rat) * scl - (cr * qr - ci * qi)
                ti = (ai - ar * rat) * scl - (cr * qi + ci * qr)
            else:
                rat = br / bi
                scl = 1.0 / (bi + br * rat)
                tr = (ar * rat + ai) * scl - (cr * qr - ci * qi)
                ti = (ai * rat - ar) * scl - (cr * qi + ci * qr)
        sr += tr
        si += ti
    return sr, si


def _row_total(sums: list[tuple[float, float]], sym: bool) -> complex:
    # _sum_rows's last step, for one point
    if sym:
        return complex(2.0 * sums[0][0], 0.0)
    (ar, ai), (br, bi) = sums
    return complex(ar + br, ai + bi)


def _quad_row(z: complex, alpha: float, beta: float, rule: QuadratureRule) -> complex:
    """ml_quad_values at one finite z, bit for bit, as a loop over floats.

    The engine's operations in the engine's order: quotients as _div,
    products as _mul, exp and log on numpy scalars.
    """
    z = complex(z.real + 0.0, z.imag + 0.0)
    if z == 0.0:
        return complex(math.nan, math.nan)
    blocks = _node_factors(rule, alpha, beta)[4]
    edge = alpha * math.pi
    arg = abs(math.atan2(z.imag, z.real))
    if abs(arg - edge) < 1e-12:
        # numpy's arctan2 may be a SIMD one that rounds an ulp apart from
        # math.atan2: at the sector edge, take the engine's
        arg = abs(float(np.arctan2(z.imag, z.real)))
    if arg > edge:
        sym = z.imag == 0.0
        return _row_total([_plain_sum(b, z.real, z.imag) for b in blocks[: 1 if sym else 2]], sym)
    with np.errstate(all="ignore"):
        log_z = complex(np.log(z))
        log_gamma = complex(*_div(log_z.real, log_z.imag, alpha, 0.0))
        gamma = complex(np.exp(log_gamma))
        lpr, lpi = _mul(1.0 - beta, 0.0, log_gamma.real, log_gamma.imag)
        log_pole = complex(lpr - math.log(alpha), lpi)
        pole = complex(np.exp(log_pole))
        residue = complex(np.exp(log_pole + gamma))
    sym = log_gamma.imag == 0.0
    total = _row_total(
        [_split_sum(b, z, alpha, beta, gamma, pole) for b in blocks[: 1 if sym else 2]], sym
    )
    if sym:
        return complex(residue.real + total.real, 0.0)
    return residue + total


def ml_quad(z: complex, alpha: float, beta: float, rule: QuadratureRule) -> EvalResult:
    """E[alpha, beta](z) by contour quadrature, alpha in (0, 1].

    A plain loop over the cached node factors that gives ml_quad_values's
    bits at z; the rule is reusable across z.  z = 0 yields a NaN value
    with converged False (callers should route z = 0 to the series).  A
    NaN or infinite part of z raises DomainError.
    """
    z = finite_complex(z)
    _check_alpha(alpha)
    try:
        value = _quad_row(z, alpha, beta, rule)
    except ZeroDivisionError:
        # z equals some w_n**alpha exactly (at alpha = 5e-324, w_0**alpha is
        # 1.0): the engine divides by zero as IEEE does
        value = complex(ml_quad_values(z, alpha, beta, rule))
    err = math.nan if z == 0 else origin_accuracy(rule, beta)
    return EvalResult(value, _method_for(rule), 2 * rule.N + 1, err, z != 0)


def two_pole_row(x: float, alpha: float, beta: float, rule: QuadratureRule) -> float:
    """E[alpha, beta](-x) for x > 0 and 1 < alpha <= 2, as a loop over floats.

    ml_quad_neg_axis_wide_alpha's sum over the cached node factors: the
    first block holds node 0 at half weight, so the value is the residue
    pair plus twice the real part of the block's sum of C_n f_2(w_n).  Off
    the poles the term is Re[c_wab/(wa + x)] minus the real part of
    c*(P/(w - gamma_+) + conj(P)/(w - gamma_-)), P = gamma_+**(1-beta)/alpha;
    within EPS_SWITCH*|gamma| of a pole the psi form takes over.
    """
    rho = x ** (1.0 / alpha)
    ang = math.pi / alpha
    gr, gi = rho * math.cos(ang), rho * math.sin(ang)
    # x**((1-beta)/alpha) = |gamma**(1-beta)|; cos(pi/alpha) <= 0, so exp never overflows
    mag = x ** ((1.0 - beta) / alpha)
    residue_pair = (2.0 / alpha) * mag * math.exp(gr) * math.cos((1.0 - beta) * ang + gi)
    pr = mag / alpha * math.cos((1.0 - beta) * ang)
    pi = mag / alpha * math.sin((1.0 - beta) * ang)
    near = _EPS_SWITCH_SQ * rho * rho
    s = 0.0
    for wr, wi, cr, ci, ar, ai, br, bi in _node_factors(rule, alpha, beta)[4][0]:
        # w - gamma_+ = dr + i*di, w - gamma_- = dr + i*ei
        dr = wr - gr
        di = wi - gi
        ei = wi + gi
        d2 = dr * dr + di * di
        e2 = dr * dr + ei * ei
        if d2 < near or e2 < near:
            gp, gm = complex(gr, gi), complex(gr, -gi)
            w = complex(wr, wi)
            if d2 < near:
                f = _f_pair_near(w, alpha, beta, gp, gm, (w - gp) / gp)
            else:
                f = _f_pair_near(w, alpha, beta, gm, gp, (w - gm) / gm)
            s += cr * f.real - ci * f.imag
            continue
        br += x
        # P/(w - gamma_+) + conj(P)/(w - gamma_-)
        qr = (pr * dr + pi * di) / d2 + (pr * dr - pi * ei) / e2
        qi = (pi * dr - pr * di) / d2 - (pi * dr + pr * ei) / e2
        s += (ar * br + ai * bi) / (br * br + bi * bi) - (cr * qr - ci * qi)
    return residue_pair + 2.0 * s


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
