"""Reference copies of the real-axis float loops as they stood before their
per-(alpha, beta) float tables: the expansion with its three-column
coefficient blocks, f_one summing the two rows of _psi_rows one after the
other, and _two_pole_sum computing its trigonometric constants on every
call.  The code below is kept verbatim, renamed only, but for the real part
of the poles +-i*sqrt(x) at alpha = 2, which both loops now take as exactly
0.0 (cos(pi/2) rounds to 6e-17), and for f_one splitting the rows out of
the pairs that _psi_rows now caches; the tests assert that the table
versions in the package give the same bits.  ref_expansion_sum adds the
overflowing parts of both kinds, algebraic and exponential, and gives NaN
where an infinite one of each kind meet; the package keeps the larger.
Its divergence bound is _last_term's search, which the package replaced
with a bisection of a table of log n: verbatim, as it stood in the package.

ml_quad_neg_axis_wide_alpha, the engine's column at z = -x for 1 < alpha < 2,
is the reference the two-pole row is checked against.  It left the package,
whose code never called it, unchanged but for the index of origin_accuracy in
_node_factors' record.

ref_series_sum, ref_plain_row and ref_edge_row are the series loop and the
alpha <= 1 negative-axis rows as they stood before each term past the
envelope took one index test and the rows took Smith's test without abs:
verbatim, renamed only.  ref_edge_row reads the first four fields of
_node_factors' entry, the whole entry when it was written, and both rows
read the 8-float block.

f_plain, the integrand, and f_split, the integrand less its simple pole,
are the direct forms that the package's f_one fell back on off the switch
disk, verbatim.  f_one is now the psi form alone, its callers deciding
which nodes lie near a pole, and ref_f_one, like it, has lost its z and
its own nearness test (so have the calls of the rows above): the tests
read the direct forms from here."""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from mittleff.asymptotic import INF, MAX_TERMS, TABLE_BLOCK, asymptotic_sigma_tau
from mittleff.kernels import cexp, cpow_principal as _cpow, gamma_real, on_sheet, pole_turns, principal_arg
from mittleff.contours import QuadratureRule
from mittleff.engine import _chunk_poles, _split_sum
from mittleff.exceptions import DomainError
from mittleff.quadrature import (
    _EPS_SWITCH_SQ,
    EvalResult,
    Method,
    _method_for,
    _node_factors,
    _psi_rows,
    f_one,
)
from mittleff.series import _SERIES, _rgamma_block


@functools.lru_cache(maxsize=256)
def ref_sigma_tau_block(alpha: float, beta: float, block: int) -> tuple[tuple[float, float, float], ...]:
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


def _last_term(log_n_max: float) -> float:
    """The largest n >= 0 with n = 0 or math.log(n) <= log_n_max.

    The divergence test log(n) > log_n_max is then n > this bound, with the
    same first n: log is increasing on the integers, and up to e**30 the
    logs of two neighbours are further apart than their rounding.  Past
    that the bound is inf; no sum runs 1e13 terms.
    """
    if log_n_max > 30.0:
        return INF
    n = int(math.exp(log_n_max))
    while n >= 1 and math.log(n) > log_n_max:
        n -= 1
    while math.log(n + 1) <= log_n_max:
        n += 1
    return n


def ref_expansion_sum(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    """ml_asymptotic for checked arguments, z != 0."""
    r = abs(z)
    theta = principal_arg(z)
    ln_r = math.log(r)
    # divergence bound n > |z|**(1/alpha)/alpha, kept in logs
    n_last = min(_last_term(ln_r / alpha - math.log(alpha)), MAX_TERMS)
    log_tol = math.log(tol)

    # a real z has theta 0 or pi, where rect(1, -n*theta) is exactly (+-1, ~0):
    # it is summed in floats, the complex loop's real part bit for bit
    real = z.imag == 0.0
    acc = 0.0 if real else 0.0j
    # the term of largest log magnitude among those that overflow, and that log
    big = None
    log_big = -INF
    n = 1
    t_last = INF
    m = 1
    converged = False
    coeffs = ref_sigma_tau_block(alpha, beta, 0)
    while True:
        if n > n_last:
            m = n  # stopped before adding term n
            break
        if n % TABLE_BLOCK == 0:
            coeffs = ref_sigma_tau_block(alpha, beta, n // TABLE_BLOCK)
        sigma, log_tau, log_size = coeffs[n % TABLE_BLOCK]
        log_t = log_tau - n * ln_r
        t = math.exp(log_t) if log_t < 709.0 else INF
        if real:
            term = sigma * t if theta == 0.0 or n % 2 == 0 else -(sigma * t)
        else:
            term = sigma * t * cmath.rect(1.0, -n * theta)
        if t < INF:
            acc += term
        elif sigma != 0.0 and log_t + math.log(abs(sigma)) > log_big:
            # an infinite term: added, it could give inf - inf; the largest
            # is the sum's value (and a zero sigma, 0*inf = NaN, adds nothing)
            log_big = log_t + math.log(abs(sigma))
            big = term
        if log_size != log_tau:
            log_t = log_size - n * ln_r
            t = math.exp(log_t) if log_t < 709.0 else INF
        t_last = t
        if log_t < log_tol:
            m = n + 1
            converged = True
            break
        n += 1

    value = complex(-(acc if big is None else big))
    if abs(theta) <= alpha * math.pi:
        # each pole gamma_k on the principal sheet adds P_k e**gamma_k =
        # e**((1-beta)/alpha * l + gamma_k)/alpha, l = log z + 2*pi*i*k (a
        # real z read from above, as theta is); of those that overflow only
        # the largest is added, as inf - inf is NaN
        lnz = cmath.log(complex(z.real) if real else z)
        big_e = None
        log_big_e = -INF
        for k in (0, *pole_turns(alpha)):
            if k and not on_sheet(theta / math.pi, k, alpha):
                continue
            lz = lnz + 2j * math.pi * k if k else lnz
            g = cexp(lz / alpha)  # gamma_k
            if alpha == 2.0 and real and theta:
                g = complex(0.0, g.imag)  # the alpha = 2 poles +-i*sqrt(-z)
            if cmath.isfinite(g):
                log_e = ((1.0 - beta) / alpha) * lz + g
                e = cexp(log_e)
                if not cmath.isinf(e):
                    # part by part: a complex quotient inf/alpha would put NaN in a zero part
                    value += complex(e.real / alpha, e.imag / alpha)
                elif log_e.real > log_big_e:
                    big_e, log_big_e = e, log_e.real
            elif g.real > 0.0:
                value = complex(INF, INF)
            # g overflowed with Re g < 0: exp factor underflows to 0
        if big_e is not None:
            value += complex(big_e.real / alpha, big_e.imag / alpha)
    # on the cut (alpha = 1, z < 0) the exponential part rounds to a complex value
    value = complex(value.real) if real else value
    # a NaN value (inf - inf between the two parts) is never converged
    return EvalResult(value, Method.ASYMPTOTIC, m, t_last, converged and not cmath.isnan(value))


def f_plain(w: complex, z: complex, alpha: float, beta: float) -> complex:
    """Integrand w**(alpha-beta) / (w**alpha - z) on the cut plane."""
    return _cpow(w, alpha - beta) / (_cpow(w, alpha) - z)


def f_split(w: complex, z: complex, alpha: float, beta: float, gamma: complex) -> complex:
    """f_plain with the simple pole at gamma = z**(1/alpha) removed, as the
    direct difference: it cancels near the pole, where f_one takes over."""
    return f_plain(w, z, alpha, beta) - _cpow(gamma, 1.0 - beta) / (alpha * (w - gamma))


def ref_f_one(w: complex, alpha: float, beta: float, gamma: complex) -> complex:
    """f_one: the integrand less its simple pole at gamma, near it, in the
    psi form: the rows of _psi_rows, summed by Horner in floats.
    """
    eps = (w - gamma) / gamma
    num_row, psi1_row = zip(*reversed(_psi_rows(alpha, beta)))
    num = psi1_alpha = 0j
    for coeff in reversed(num_row):
        num = num * eps + coeff
    for coeff in reversed(psi1_row):
        psi1_alpha = psi1_alpha * eps + coeff
    return num / (_cpow(gamma, beta) * psi1_alpha)


def ref_two_pole_sum(x: float, alpha: float, beta: float, block: tuple) -> float:
    """E[alpha, beta](-x) for x > 0 and 1 < alpha <= 2, as a loop over floats.

    block is the first block of the node factors at (alpha, beta), which
    holds node 0 at half weight, so the value is the residue pair plus
    twice the real part of the block's sum of C_n f_2(w_n), f_2 the
    integrand less both pole terms.  Off the poles the term is
    Re[c_wab/(wa + x)] minus the real part of c*(P/(w - gamma_+) +
    conj(P)/(w - gamma_-)), P = gamma_+**(1-beta)/alpha; within
    EPS_SWITCH*|gamma| of a pole f_one's psi form takes over.
    """
    rho = x ** (1.0 / alpha)
    ang = math.pi / alpha
    gr, gi = rho * (0.0 if alpha == 2.0 else math.cos(ang)), rho * math.sin(ang)  # the alpha = 2 poles +-i*sqrt(x)
    # x**((1-beta)/alpha) = |gamma**(1-beta)|; cos(pi/alpha) <= 0, so exp never overflows
    mag = x ** ((1.0 - beta) / alpha)
    residue_pair = (2.0 / alpha) * mag * math.exp(gr) * math.cos((1.0 - beta) * ang + gi)
    pr = mag / alpha * math.cos((1.0 - beta) * ang)
    pi = mag / alpha * math.sin((1.0 - beta) * ang)
    near = _EPS_SWITCH_SQ * rho * rho
    s = 0.0
    for wr, wi, cr, ci, ar, ai, br, bi in block:
        # w - gamma_+ = dr + i*di, w - gamma_- = dr + i*ei
        dr = wr - gr
        di = wi - gi
        ei = wi + gi
        d2 = dr * dr + di * di
        e2 = dr * dr + ei * ei
        if d2 < near or e2 < near:
            # f_one for the near pole, less the other's plain term, as in the engine
            w = complex(wr, wi)
            gp, gm, p = complex(gr, gi), complex(gr, -gi), complex(pr, pi)
            if d2 < near:
                f = ref_f_one(w, alpha, beta, gp) - p.conjugate() / (w - gm)
            else:
                f = ref_f_one(w, alpha, beta, gm) - p / (w - gp)
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
    """E[alpha, beta](-x) for x > 0 and 1 < alpha < 2, _two_pole_sum's reference.

    The engine's column at z = -x: the conjugate pole pair
    gamma_pm = x**(1/alpha) e**(+-i pi/alpha) split off, and both node
    blocks summed in complex numpy, not one block in floats.
    """
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"alpha={alpha!r} outside (1, 2)")
    if not x > 0.0:
        raise DomainError(f"x={x!r} must be positive")
    err = _node_factors(rule, alpha, beta)[1]
    with np.errstate(all="ignore"):
        z = np.array([complex(-x)])
        value = _split_sum(z, _chunk_poles(z, alpha, beta), alpha, beta, rule, {})[0]
    return EvalResult(complex(value.real), _method_for(rule), 2 * rule.N + 1, err, True)


def ref_series_sum(z: complex, alpha: float, beta: float, tol: float, max_terms: int) -> EvalResult:
    """ml_series for checked arguments."""
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
    for block in itertools.count():
        for rg in _rgamma_block(alpha, beta, block):
            term = zp * rg
            if n >= 1:
                if n >= n_reflect:
                    size = abs(term)
                else:
                    size = abs(zp) * gamma_real(1.0 - (beta + n * alpha)) / math.pi
                if size <= tol * abs(acc):
                    return tuple.__new__(EvalResult, (complex(acc), _SERIES, n, size, True))
                if n >= max_terms:
                    return tuple.__new__(EvalResult, (complex(acc), _SERIES, n, size, False))
            acc += term
            zp *= z
            n += 1


def ref_plain_row(x: float, block: tuple) -> float:
    """E[alpha, beta](-x) for x > 0 from the first block of node factors,
    with every pole left in the integrand: alpha < 1, or |z| below the split
    gate x_min.  The summand is conjugate-symmetric, so the row is twice the
    sum of Re[c_wab/(wa + x)], node after node from +0.0.  The real part is
    taken in Smith form: |wa + x|**2 overflows from x ~ 1e154 on.
    """
    s = 0.0
    for _, _, _, _, ar, ai, br, bi in block:
        br += x
        if abs(br) >= abs(bi):
            rat = bi / br
            s += (ar + ai * rat) * (1.0 / (br + bi * rat))
        else:
            rat = br / bi
            s += (ar * rat + ai) * (1.0 / (bi + br * rat))
    return 2.0 * s


def ref_edge_row(x: float, beta: float, entry: tuple) -> float:
    """E[1, beta](-x) for x > 0 from the entry of the node factors at alpha = 1.

    The pole gamma = -x lies on the branch cut, where its weight P =
    gamma**(1-beta) is read from above.  For any constant Q, Q*e**gamma +
    sum C_n (f(w_n) - Q/(w_n - gamma)) approximates the same integral, and
    Q = Re P makes the summand conjugate-symmetric.  With w**1 = w both
    quotients share w + x: the row is Re P * e**-x plus twice the sum of
    Re[(c_wab - Re P * c)/(w + x)], the real part in Smith form (|w + x|**2
    overflows from x ~ 1e154 on).  Within EPS_SWITCH*x of gamma the term
    is f_one plus i*Im P/(w + x).  Where |P| would overflow, the pole stays
    in the integrand: the value is _plain_row's.
    """
    # P = x**(1-beta) * e**(i*(1-beta)*pi): the phase's cos and sin are cached
    block, _, _, (_, _, _, _, _, cos_p, sin_p) = entry
    log_mag = (1.0 - beta) * math.log(x)
    if log_mag >= 709.0:
        return ref_plain_row(x, block)
    mag = math.exp(log_mag)
    pr = mag * cos_p
    near = _EPS_SWITCH_SQ * x * x
    s = 0.0
    for wr, wi, cr, ci, ar, ai, _, _ in block:
        br = wr + x
        if br * br + wi * wi < near:
            w = complex(wr, wi)
            # f_one subtracts P/(w - gamma): add back i*Im P/(w + x)
            f = f_one(w, 1.0, beta, complex(-x))
            f += complex(0.0, mag * sin_p) / (w + x)
            s += cr * f.real - ci * f.imag
            continue
        ar -= pr * cr
        ai -= pr * ci
        if abs(br) >= abs(wi):
            rat = wi / br
            s += (ar + ai * rat) / (br + wi * rat)
        else:
            rat = br / wi
            s += (ar * rat + ai) / (wi + br * rat)
    return math.exp(log_mag - x) * cos_p + 2.0 * s
