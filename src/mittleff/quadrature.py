"""Contour-quadrature evaluation of the Mittag-Leffler function: the scalar path.

The function is recovered from a Hankel-type integral of e**w times the
integrand f(w) = w**(alpha-beta) / (w**alpha - z).  Its poles are the
roots gamma_k = exp((log z + 2*pi*i*k)/alpha) of w**alpha = z that lie on
the principal sheet, |Arg gamma_k| <= pi: gamma_0 = z**(1/alpha) where
|Arg z| <= alpha*pi, and for alpha > 1 up to ceil(alpha) in all
(kernels.pole_turns).  Each one is split off: P_k/(w - gamma_k) is taken
from the integrand, with P_k = gamma_k**(1-beta)/alpha, and its residue
P_k e**gamma_k is added back in closed form; where that residue underflows
to 0 the pole stays in the integrand (at alpha = 1 only where P overflows
too).  Near a pole the difference would cancel, so the psi-kernel form
takes over for that pole: two rows of power-series coefficients in the
offset eps = (w - gamma)/gamma, cached per (alpha, beta) as one table of
float pairs (_psi_rows).  Each caller decides which nodes lie near a pole:
f_one sums the rows by Horner in floats at the near nodes of the real-axis
rows, the engine in numpy at its own.  The node factors of the integrand
do not depend on z: one cached entry per (rule, alpha, beta) holds them as
floats, with every other z-independent constant (_node_factors).

A real z < 0 with alpha <= 2 has a conjugate-symmetric summand, and
_neg_axis_row sums the entry's nodes as floats: the plain row for
alpha < 1 or where the entry's split gate keeps the poles in the
integrand, as in the engine; else the edge row at alpha = 1, where the
pole gamma = z lies on the branch cut, and for 1 < alpha <= 2 the
two-pole row, with the pair (-z)**(1/alpha) e**(+-i*pi/alpha) split off
(_two_pole_sum).
ml_quad and the array engine's ml_quad_values both call it; ml_quad
passes any other z to the engine as a batch of one.  A real z gets an
exactly real value.

The engine, which sums chunks of z at once with numpy, is its own module
(mittleff.engine), imported on ml_quad's first call off those rows: a
call on the rows neither compiles nor loads it, nor numpy, for the
reason the package docstring gives.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from enum import Enum
from typing import Callable, NamedTuple

from .contours import ContourKind, QuadratureRule
from .exceptions import DomainError
from .kernels import (  # noqa: F401  cexp, principal_arg, psi1, psi2: bench/tracing.py rebinds them here
    cexp,
    check_alpha_beta,
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
# _psi_rows drops the terms below this share of the largest at |eps| = EPS_SWITCH
_ROW_TOL = 2.0**-60
# for beta > 1 a pole gamma = z**(1/alpha) nearer the origin than this stays in
# the integrand: on the hyperbolic and parabolic rules with N = 8..14 the split
# column loses to the plain one below |gamma| ~ 0.01-0.06 for beta in [1.5, 3]
_SPLIT_GAMMA_MIN = 0.03
# a residue P e**gamma below e**_LOG_TINY is 0: for alpha != 1 its pole stays in the integrand
_LOG_TINY = math.log(math.ulp(0.0))
_LOG_MAX = math.log(sys.float_info.max)  # e**x overflows above it


class Method(str, Enum):
    SERIES = "series"
    ASYMPTOTIC = "asymp"
    QUAD_PARABOLIC = "quad-par"
    QUAD_HYPERBOLIC = "quad-hyp"


# the tol of ml_series, ml_asymptotic and ml_auto where the caller gives none
DEFAULT_TOL = 1e-14


# the evaluators build it with tuple.__new__, skipping the generated __new__'s Python frame
class EvalResult(NamedTuple):
    """The record every evaluator returns.  nodes_or_terms: the series' terms
    summed, the expansion's m (it summed n = 1..m-1; 0 for a closed form),
    quadrature's 2N+1 nodes.  err_estimate: the series' first omitted term,
    enveloped left of beta + n*alpha = 1/2; the expansion's size proxy of
    term m-1, or a closed form's rounding and drift; quadrature's
    origin_accuracy."""

    value: complex
    method: Method
    nodes_or_terms: int
    err_estimate: float
    converged: bool  # series/expansion: stopping rule met; quadrature: value not NaN


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


def f_one(w: complex, alpha: float, beta: float, gamma: complex) -> complex:
    """The integrand less its simple pole at gamma = z**(1/alpha), in the psi
    form: the two rows of _psi_rows, summed by one Horner loop in floats.
    The rows are cut for a relative offset eps below EPS_SWITCH: the caller
    decides that w lies that near gamma, f_one does not test it."""
    eps = (w - gamma) / gamma
    num = psi1_alpha = 0j
    for a, b in _psi_rows(alpha, beta):
        num = num * eps + a
        psi1_alpha = psi1_alpha * eps + b
    return num / (_cpow(gamma, beta) * psi1_alpha)


@functools.lru_cache(maxsize=64)
def _psi_rows(alpha: float, beta: float) -> tuple[tuple[float, float], ...]:
    """f_one's psi form as two rows of power-series coefficients in eps, as
    (row 0, row 1) pairs from the highest power down: f_one's Horner order.

    Row 0 sums to the numerator psi1(eps, alpha-beta) - psi2(eps, alpha)/alpha,
    row 1 to psi1(eps, alpha) = alpha + eps*psi2(eps, alpha); f_one is their
    quotient over gamma**beta.  The binomial series behind them are cut at
    the first term past which every term at |eps| = EPS_SWITCH is below
    _ROW_TOL of the series' largest, and stop at 400 terms, as kernels.psi1
    and psi2 do.  The pairs are tuples of floats: every caller shares them.
    """
    a = alpha - beta
    b, d = a, 0.5 * (alpha - 1.0)  # binom(a, m+1), binom(alpha, m+2)/alpha
    top_b = top_d = 0.0
    scale = 1.0  # EPS_SWITCH**m
    num, psi1_alpha = [], [alpha]
    for m in range(400):
        num.append(b - d)
        psi1_alpha.append(alpha * d)
        tb, td = abs(b) * scale, abs(d) * scale
        top_b, top_d = max(top_b, tb), max(top_d, td)
        rb, rd = (a - m - 1.0) / (m + 2.0), (alpha - m - 2.0) / (m + 3.0)
        # once the next term at the radius is at most half this one, so is
        # every later one: the rest of the series sums below this term
        settled = max(abs(rb), abs(rd)) * EPS_SWITCH <= 0.5
        if settled and tb <= _ROW_TOL * top_b and td <= _ROW_TOL * top_d:
            break
        b *= rb
        d *= rd
        scale *= EPS_SWITCH
    num.append(0.0)
    return tuple(zip(reversed(num), reversed(psi1_alpha)))


def origin_accuracy(rule: QuadratureRule, beta: float) -> float:
    """Observable error proxy: |Q(w**-beta) - 1/Gamma(beta)|.

    The same rule applied at z = 0 has a known exact answer; its error
    tracks the error at nearby z within about an order of magnitude.
    """
    got = q_sum(rule, lambda w: _cpow(w, -beta), True)
    return abs(got.real - reciprocal_gamma(beta))


@functools.lru_cache(maxsize=64)
def _node_factors(rule: QuadratureRule, alpha: float, beta: float) -> tuple[tuple, float, float, tuple, tuple]:
    """The entry of (rule, alpha, beta), (block, err, x_min, pair, plain):
    every constant of the quadrature route that does not depend on z.

    block: the factors w_n, A*C_n, A*C_n*w_n**(alpha-beta), w_n**alpha of
    the nodes n = 0..N, one tuple of floats per node, (re, im) of each; the
    float rows read it, and the engine reads it with its conjugates
    (_engine_factors).  w_0 and C_0 are real, and node 0 has half its
    weight: the block's sum is then half the sum over n = -N..N of a
    conjugate-symmetric integrand.  Powers are principal-branch
    exp(a*log w), as in cpow_principal, except w_n**1 = w_n: exp(log w)
    rounds.  C_n*w_n**(alpha-beta) is written out in real arithmetic, so
    no CPU fuses it (FMA).  err: the rule's origin_accuracy at beta.
    x_min: the split gate, _SPLIT_GAMMA_MIN**alpha for beta > 1, else 0.0;
    the poles of a z with |z| < x_min stay in the integrand, on the rows as
    in the engine.  pair, for alpha >= 1 (pi/alpha overflows as alpha -> 0):
    1/alpha, (1-beta)/alpha, cos and sin of pi/alpha, the phase
    (1-beta)*pi/alpha and its cos and sin, NaN where the phase overflows.
    At alpha = 2 the cosine is 0.0, not cos(pi/2) = 6e-17: the poles
    +-i*sqrt(x) lie on the imaginary axis, where e**Re(gamma) is 1 for
    every x.  plain: _plain_row's nodes, (re, im) of A*C_n*w_n**(alpha-beta)
    and of w_n**alpha, both conjugated where Im w_n**alpha < 0 (only for
    alpha > 1): the real part of their quotient keeps its bits, and every
    node has Im w**alpha >= 0.  A factor or an origin_accuracy that
    overflows (alpha or beta far from 0) raises DomainError.  A hand-built
    rule needs N + 1 nodes and weights, w_0 and C_0 real (else DomainError);
    a node with Im w < 0 counts as its reflection, its weight conjugated too:
    the sum over n = -N..N is the same, and every block node has Im w >= 0.
    """
    if not (len(rule.nodes) == len(rule.weights) == rule.N + 1 > 0 and rule.nodes[0].imag == rule.weights[0].imag == 0.0):
        raise DomainError(f"a rule with N={rule.N!r} needs N + 1 nodes and weights, with w_0 and C_0 real")
    overflow = DomainError(f"alpha={alpha!r}, beta={beta!r}: the node factors of this rule overflow")
    block, plain = [], []
    try:
        for n, (w, c) in enumerate(zip(rule.nodes, rule.weights)):
            if w.imag < 0.0:
                w, c = w.conjugate(), c.conjugate()
            half = 0.5 if n == 0 else 1.0
            cr, ci = half * (rule.A * c.real), half * (rule.A * c.imag)
            log_w = cmath.log(w)
            e = cmath.exp((alpha - beta) * log_w)
            c_wab = complex(cr * e.real - ci * e.imag, cr * e.imag + ci * e.real)
            wa = w if alpha == 1.0 else cmath.exp(alpha * log_w)
            if not cmath.isfinite(c_wab):
                raise overflow
            block.append((w.real, w.imag, cr, ci, c_wab.real, c_wab.imag, wa.real, wa.imag))
            if wa.imag < 0.0:
                c_wab, wa = c_wab.conjugate(), wa.conjugate()
            plain.append((c_wab.real, c_wab.imag, wa.real, wa.imag))
        err = origin_accuracy(rule, beta)
    except OverflowError:  # cmath.exp, or origin_accuracy's powers
        raise overflow from None
    x_min = _SPLIT_GAMMA_MIN**alpha if beta > 1.0 else 0.0
    pair = ()
    if alpha >= 1.0:
        ang = math.pi / alpha
        phase = (1.0 - beta) * ang
        if math.isinf(phase):  # |beta| near the float limit: the rows give NaN
            phase = math.nan
        cos_a = 0.0 if alpha == 2.0 else math.cos(ang)
        pair = (1.0 / alpha, (1.0 - beta) / alpha, cos_a, math.sin(ang), phase, math.cos(phase), math.sin(phase))
    return tuple(block), err, x_min, pair, tuple(plain)


def _plain_row(x: float, plain: tuple) -> float:
    """E[alpha, beta](-x) for x > 0 from the entry's plain nodes (_node_factors),
    with every pole left in the integrand: alpha < 1, or |z| below the split
    gate x_min.  The summand is conjugate-symmetric, so the row is twice the
    sum of Re[c_wab/(wa + x)], node after node from +0.0.  The real part is
    taken in Smith form: |wa + x|**2 overflows from x ~ 1e154 on.  Every
    plain node has Im wa >= 0, so Smith's test |Re| >= |Im| is taken with
    comparisons whose sign is known, without abs.
    """
    s = 0.0
    for ar, ai, br, bi in plain:
        br += x
        if br >= bi or -br >= bi:
            rat = bi / br
            s += (ar + ai * rat) * (1.0 / (br + bi * rat))
        else:
            rat = br / bi
            s += (ar * rat + ai) * (1.0 / (bi + br * rat))
    return 2.0 * s


def _edge_row(x: float, beta: float, entry: tuple) -> float:
    """E[1, beta](-x) for x > 0 from the entry of the node factors at alpha = 1.

    The pole gamma = -x lies on the branch cut, where its weight P =
    gamma**(1-beta) is read from above.  For any constant Q, Q*e**gamma +
    sum C_n (f(w_n) - Q/(w_n - gamma)) approximates the same integral, and
    Q = Re P makes the summand conjugate-symmetric.  With w**1 = w both
    quotients share w + x: the row is Re P * e**-x plus twice the sum of
    Re[(c_wab - Re P * c)/(w + x)], the real part in Smith form (|w + x|**2
    overflows from x ~ 1e154 on).  Within EPS_SWITCH*x of gamma the term
    is f_one plus i*Im P/(w + x).  Where |P| would overflow, the pole stays
    in the integrand: the value is _plain_row's.  Every node has Im w >= 0,
    so Smith's test is taken without abs, as in _plain_row.
    """
    # P = x**(1-beta) * e**(i*(1-beta)*pi): the phase's cos and sin are cached
    block, _, _, (_, _, _, _, _, cos_p, sin_p), plain = entry
    log_mag = (1.0 - beta) * math.log(x)
    # 709, not _LOG_MAX: with log|P| between them the split row gives NaN, the
    # plain row a finite value (for beta this far below -1 neither is accurate)
    if log_mag >= 709.0:
        return _plain_row(x, plain)
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
        if br >= wi or -br >= wi:
            rat = wi / br
            s += (ar + ai * rat) / (br + wi * rat)
        else:
            rat = br / wi
            s += (ar * rat + ai) / (wi + br * rat)
    return math.exp(log_mag - x) * cos_p + 2.0 * s


def _neg_axis_row(x: float, alpha: float, beta: float, entry: tuple) -> float:
    # E[alpha, beta](-x), x > 0, alpha <= 2: the one sum of each regime of the
    # negative axis, behind one split gate for every alpha: a pole the engine
    # keeps in the integrand (|z| < x_min) stays in it here too
    if alpha < 1.0 or x < entry[2]:
        return _plain_row(x, entry[4])
    if alpha == 1.0:
        return _edge_row(x, beta, entry)
    return _two_pole_sum(x, alpha, beta, entry)


def ml_quad(z: complex, alpha: float, beta: float, rule: QuadratureRule) -> EvalResult:
    """E[alpha, beta](z) by contour quadrature, alpha > 0.

    ml_quad_values's value at z; the rule is reusable across z.  A real
    z < 0 with alpha <= 2 takes _neg_axis_row, every other z the engine as
    a batch of one.
    Quadrature has no stopping rule: converged says that the value is not
    NaN.  A NaN or infinite part of z, a z whose modulus overflows, a beta
    that is not finite, or a beta whose node factors overflow raises
    DomainError.
    """
    z = finite_complex(z)
    check_alpha_beta(alpha, beta)
    return _quad_result(z, alpha, beta, rule, _method_for(rule), _node_factors(rule, alpha, beta))


def _quad_result(z: complex, alpha: float, beta: float, rule: QuadratureRule, method: Method, entry: tuple) -> EvalResult:
    # ml_quad for checked arguments, given the rule's entry at (alpha, beta)
    if z.imag == 0.0 and z.real < 0.0 and alpha <= 2.0:
        value = complex(_neg_axis_row(-z.real, alpha, beta, entry))
    else:
        from .engine import ml_quad_values

        value = complex(ml_quad_values(z, alpha, beta, rule))
    return tuple.__new__(EvalResult, (value, method, 2 * rule.N + 1, entry[1], not cmath.isnan(value)))


def _two_pole_sum(x: float, alpha: float, beta: float, entry: tuple) -> float:
    """E[alpha, beta](-x) for x > 0 and 1 < alpha <= 2, as a loop over floats.

    The entry's block (_node_factors) holds node 0 at half weight, so the
    value is the residue pair plus twice the real part of the block's sum
    of C_n f_2(w_n), f_2 the integrand less both pole terms.  Off the poles
    the term is Re[c_wab/(wa + x)] minus the real part of
    c*(P/(w - gamma_+) + conj(P)/(w - gamma_-)), P = gamma_+**(1-beta)/alpha;
    within EPS_SWITCH*|gamma| of gamma_+ f_one's psi form takes over (a
    block node, Im w >= 0, is never nearer gamma_-).  Where the residues
    underflow, log|P| + Re gamma < _LOG_TINY, the pair stays in the
    integrand, as in the engine: the value is _plain_row's.  A weight that
    overflows while they do not (alpha = 2: |e**gamma| = 1) gives NaN.  The
    trigonometric constants are the entry's pair.
    """
    block, _, _, (inv_alpha, expo, cos_a, sin_a, phase, cos_p, sin_p), plain = entry
    rho = x**inv_alpha
    gr, gi = rho * cos_a, rho * sin_a
    if expo * math.log(x) - math.log(alpha) + gr < _LOG_TINY:  # log|P e**gamma_+|
        return _plain_row(x, plain)
    try:
        # x**((1-beta)/alpha) = |gamma**(1-beta)| overflows for beta < 1 and
        # x large; Re gamma <= 0, so exp(gr) does not
        mag = x**expo
        residue_pair = (2.0 / alpha) * mag * math.exp(gr) * math.cos(phase + gi)
    except OverflowError:  # the pole terms would give inf - inf
        return math.nan
    pr = mag / alpha * cos_p
    pi = mag / alpha * sin_p
    near = _EPS_SWITCH_SQ * rho * rho
    s = 0.0
    for wr, wi, cr, ci, ar, ai, br, bi in block:
        # w - gamma_+ = dr + i*di, w - gamma_- = dr + i*ei
        dr = wr - gr
        di = wi - gi
        ei = wi + gi
        dr2 = dr * dr
        d2 = dr2 + di * di
        e2 = dr2 + ei * ei
        # Im w >= 0 and Im gamma_+ > 0, so e2 >= d2: no node is nearer gamma_-
        if d2 < near:
            # f_one at gamma_+, less gamma_-'s plain term, as in the engine
            w = complex(wr, wi)
            f = f_one(w, alpha, beta, complex(gr, gi)) - complex(pr, -pi) / (w - complex(gr, -gi))
            s += cr * f.real - ci * f.imag
            continue
        br += x
        # P/(w - gamma_+) + conj(P)/(w - gamma_-)
        prd = pr * dr
        pid = pi * dr
        qr = (prd + pi * di) / d2 + (prd - pi * ei) / e2
        qi = (pid - pr * di) / d2 - (pid + pr * ei) / e2
        s += (ar * br + ai * bi) / (br * br + bi * bi) - (cr * qr - ci * qi)
    return residue_pair + 2.0 * s

