"""Large-argument asymptotic evaluation of the Mittag-Leffler function.

The algebraic part is the divergent expansion -sum_n sigma_n*tau_n*z**-n,
summed with a practical stopping rule: stop once the term-size proxy
tau_n*|z|**-n drops below tol (converged), or once n exceeds the optimal
truncation bound |z|**(1/alpha)/alpha or MAX_TERMS (not converged).  Just
above the zero of 1/Gamma at beta - n*alpha = 0 the proxy uses the
reflection envelope of tau_n, so a coefficient that is small there does
not stop the sum.  On top comes the exponential term P_k e**gamma_k of
each pole gamma_k = exp((log z + 2*pi*i*k)/alpha) of the quadrature
integrand on the principal sheet, P_k = gamma_k**(1-beta)/alpha: for
alpha <= 1 the one pole z**(1/alpha) where |Arg z| <= alpha*pi, for
alpha > 1 up to ceil(alpha) of them (kernels.pole_turns).

At alpha 1 or 2 with an integer beta <= alpha every coefficient
1/Gamma(beta - n*alpha) is 0, and E on the real line is the exponential
part alone: x**(1-beta) e**x, or a power of sqrt|x| times cos, sin, cosh
or sinh (Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler Functions,
2014).  A real z there takes that closed form (_closed_form), with no
row and no term.

The coefficients are cached per (alpha, beta) in blocks of TABLE_BLOCK
rows (_sigma_tau_block).  A row also holds the signed coefficient
(-1)**n sigma_n of a real z < 0, so one loop over the rows serves every
z: a real z adds float terms read from one column, a complex z complex
ones, and a term that overflows is set aside in the same loop.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_right

from .exceptions import DomainError
from .kernels import cexp, check_alpha_beta, finite_complex, on_sheet, pole_turns, principal_arg
from .quadrature import _LOG_MAX, DEFAULT_TOL, EvalResult, Method

INF = math.inf
TABLE_BLOCK = 32
FLOOR_TERMS = 8 * TABLE_BLOCK  # log_r_floor scans at most eight coefficient blocks
# the expansion stops unconverged past this many terms: far above every
# converged m seen, 111 on the acceptance grids, 101 on the relaxation curves
# of the benchmark, 690 for E[1, -300](-5000), whose coefficients all vanish
MAX_TERMS = 1000
# log n, n = 1..MAX_TERMS: the floats of the divergence bound and log_r_floor
_LOG_N = tuple(map(math.log, range(1, MAX_TERMS + 1)))
_ASYMPTOTIC = Method.ASYMPTOTIC
_EPS = 2.0**-52
# the relative rounding of a closed form: each libm factor within an ulp, and their products
_ROUNDING = 4.0 * _EPS
# sqrt|x| = s + r misses by at most t*_PHASE, t = sqrt|x|
_PHASE = 2.0**-104
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves of 26 bits
# beyond it the products of Dekker's split of s*s underflow or overflow; r,
# at most half an ulp of s, is dropped
_DEKKER_RANGE = 2.0**900


def asymptotic_sigma_tau(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """Coefficient pieces (sigma_n, log tau_n) of the n-th expansion term.

    While n*alpha < beta the coefficient is the plain 1/Gamma(beta -
    n*alpha); past that point the reflection form kicks in:
    sigma = -sin(pi*(n*alpha - beta)), tau = Gamma(1 + n*alpha - beta)/pi.
    Where n*alpha - beta is a nonnegative integer, 1/Gamma is 0, and so is
    sigma: sin(pi*k) would round to about k*1e-16, noise that swamps a
    small value such as E[1, 1](-x) = e**-x.  tau is returned as a log to
    dodge overflow at large n; where even the log overflows (|beta| beyond
    about 2.6e305) DomainError is raised.
    """
    x = beta - n * alpha
    try:
        if x > 0.0:
            return 1.0, -math.lgamma(x)
        sigma = 0.0 if x == math.floor(x) else -math.sin(math.pi * (n * alpha - beta))
        return sigma, math.lgamma(1.0 - x) - math.log(math.pi)
    except OverflowError:
        raise DomainError(f"beta={beta!r}: the expansion's coefficients overflow") from None


@functools.lru_cache(maxsize=256)
def _sigma_tau_block(alpha: float, beta: float, block: int) -> tuple[tuple[float, float, float, float], ...]:
    """(sigma_n, log tau_n, log size_n, (-1)**n sigma_n) for the TABLE_BLOCK indices n of one block.

    size_n is the magnitude the stopping rule reads.  It is tau_n except
    where 0 < beta - n*alpha < 1/2: there 1/Gamma vanishes towards its zero
    at 0 while the next coefficient does not, so the term is sized by the
    reflection envelope Gamma(1 - x)/pi that the terms past the zero use.
    The last column is the coefficient of |z|**-n at a real z < 0.

    Cached per (alpha, beta) like the series coefficients; a block is
    immutable once cached, so concurrent callers never see part of one.
    """
    rows = []
    for n in range(block * TABLE_BLOCK, (block + 1) * TABLE_BLOCK):
        sigma, log_tau = asymptotic_sigma_tau(n, alpha, beta)
        x = beta - n * alpha
        log_size = math.lgamma(1.0 - x) - math.log(math.pi) if 0.0 < x < 0.5 else log_tau
        rows.append((sigma, log_tau, log_size, -sigma if n % 2 else sigma))
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
    floor = alpha * (_LOG_N[FLOOR_TERMS - 1] + log_alpha)
    for n in range(1, FLOOR_TERMS):
        reach = alpha * (_LOG_N[n - 1] + log_alpha)
        if reach >= floor:
            break
        log_size = _sigma_tau_block(alpha, beta, n // TABLE_BLOCK)[n % TABLE_BLOCK][2]
        floor = min(floor, max(reach, (log_size - log_tol) / n))
    return floor


def elementary(alpha: float, beta: float) -> bool:
    """Whether E[alpha, beta] is elementary on the real line: alpha 1 or 2 and
    beta an integer <= alpha, where every coefficient 1/Gamma(beta - n*alpha),
    n >= 1, of the expansion is 0."""
    return (alpha == 1.0 or alpha == 2.0) and beta <= alpha and beta % 1.0 == 0.0


def _by_logs(log_amp: float, log_f: float, negative: bool) -> tuple[float, float]:
    # e**(log_amp + log_f), negated or not, where a factor is out of range, and
    # the relative error that the rounding of the exponent may put in it
    log_v = log_amp + log_f
    v = math.exp(log_v) if log_v <= _LOG_MAX else INF
    return (-v if negative else v), _EPS * (abs(log_amp) + abs(log_f))


def _closed_form(x: float, alpha: float, beta: float, tol: float) -> EvalResult:
    """E[alpha, beta](x) for real x != 0 where elementary(alpha, beta), m = 1 - beta.

    alpha = 1: x**m e**x.  alpha = 2: the amplitude t**m = |x|**(m/2), t =
    sqrt|x|, times cos t or sin t with the sign of i**m (x < 0), or cosh t or
    sinh t (x > 0), as m is even or odd.  t is held as s + r: s =
    math.sqrt(|x|), and r = (|x| - s*s)/(2s), with s*s split exactly by
    Dekker's two-product (Numer. Math. 18, 1971).  The trigonometric factor
    takes r through the addition formulas, the hyperbolic one to first order;
    what s + r misses of t, at most t*2**-104, is the phase drift.  Where
    the power overflows (but for x > 0 at alpha = 2, where the value does
    too), or e**x does, or falls below the normal floats while a power
    multiplies it, the value is taken in logs, and the rounding of their sum
    adds to the drift.

    err_estimate is |value| times _ROUNDING plus the amplitude (|value| but
    for the trigonometric factor) times the drift; converged says the drift
    is within tol or the value underflowed to 0 or overflowed.
    nodes_or_terms is 0.
    """
    m = 1.0 - beta
    odd = beta % 2.0 == 0.0  # m is odd; read from beta, as 1 - beta rounds past 2**53
    ax = abs(x)
    log_amp = m / alpha * math.log(ax)
    drift = 0.0
    if alpha == 1.0:
        sign = -1.0 if x < 0.0 and odd else 1.0
        if log_amp < 709.0 and (x > -708.0 or not m):
            v = sign * math.pow(ax, m) * math.exp(x) if x <= _LOG_MAX else INF
        else:
            v, drift = _by_logs(log_amp, x, sign < 0.0)
        amp = abs(v)
    else:
        s = math.sqrt(ax)
        r = 0.0
        if 1.0 / _DEKKER_RANGE < ax < _DEKKER_RANGE:
            p = s * s
            c = _SPLIT * s
            hi = c - (c - s)
            lo = s - hi
            r = ((ax - p) - (((hi * hi - p) + 2.0 * hi * lo) + lo * lo)) / (s + s)
        if x < 0.0:
            cs, sn, cr, sr = math.cos(s), math.sin(s), math.cos(r), math.sin(r)
            f = sn * cr + cs * sr if odd else cs * cr - sn * sr
            if beta % 4.0 in (0.0, 3.0):  # the sign of i**(m + odd): m % 4 is 1 or 2
                f = -f
            if log_amp < 709.0:
                amp = math.pow(ax, 0.5 * m)
                v = amp * f
            else:
                v, drift = _by_logs(log_amp, math.log(abs(f)), f < 0.0)
                amp = abs(v / f)
        else:
            try:
                amp = math.pow(ax, 0.5 * m)
            except OverflowError:  # and so does the value: t > 1, where sinh t and cosh t pass 1
                amp = INF
            if s <= 709.0:
                ch, sh = math.cosh(s), math.sinh(s)
                v = amp * (sh + r * ch if odd else ch + r * sh)
            else:
                # cosh t = sinh t = e**t/2 to rounding: e**(s/2) twice, as e**s overflows first
                h = math.exp(0.5 * s) if s <= 2.0 * _LOG_MAX else INF
                v = amp * h * (0.5 * h * (1.0 + r))
            amp = v
        drift += s * _PHASE
    converged = drift <= tol or not 0.0 < abs(v) < INF
    err = abs(v) * _ROUNDING + (amp * drift if drift else 0.0)  # inf * 0 is NaN
    return tuple.__new__(EvalResult, (complex(v), _ASYMPTOTIC, 0, err, converged))


def ml_asymptotic(z: complex, alpha: float, beta: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Asymptotic value of E[alpha, beta](z) for large |z|, alpha > 0; real for real z.

    At alpha 1 or 2 with an integer beta <= alpha it is exact to rounding
    for every real z != 0: E is elementary there (_closed_form).  A sum
    that overflows comes back as the signed infinity of its largest term,
    and a NaN value is never converged.
    """
    check_alpha_beta(alpha, beta)
    if not 0.0 < tol < INF:
        raise DomainError(f"tol={tol!r} must be positive and finite")
    z = finite_complex(z)
    if z == 0:
        raise DomainError("z = 0 is not in the asymptotic regime")
    if z.imag == 0.0 and elementary(alpha, beta):
        return _closed_form(z.real, alpha, beta, tol)
    return _expansion_sum(z, alpha, beta, tol)


def _expansion_sum(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    """ml_asymptotic for checked arguments, z != 0, but for a real z where E
    is elementary, which takes _closed_form.

    One loop sums the terms sigma_n*t_n*e**(-i*n*theta), t_n = e**(log
    tau_n - n*ln|z|), over the rows of _sigma_tau_block.  A real z adds
    floats: e**(-i*n*theta) is (+-1)**n, so the term is column 0 of the row
    (z > 0) or column 3 (z < 0) times t_n, and (-sigma)*t == -(sigma*t).
    A part that overflows is not added, as inf - inf is NaN: a term whose
    log t_n passes _LOG_MAX = log(max float), a pole's exponential term, or
    a pole gamma that overflows with Re gamma > 0.  The largest of those,
    if any, is the value.
    """
    r = abs(z)
    real = z.imag == 0.0
    # principal_arg's value: atan2(+0.0, x) is 0 or pi
    theta = (0.0 if z.real > 0.0 else math.pi) if real else principal_arg(z)
    ln_r = math.log(r)
    # divergence bound: the last term n has log n <= log(|z|**(1/alpha)/alpha)
    n_last = bisect_right(_LOG_N, ln_r / alpha - math.log(alpha))
    log_tol = math.log(tol)

    exp, log_max = math.exp, _LOG_MAX
    col = 3 if theta else 0
    acc = 0.0 if real else 0.0j
    # the largest of the parts that overflow, and its log magnitude
    big = None
    log_big = -INF
    log_s = INF  # log size of the last term summed
    n = 1.0  # a float n gives n*ln_r and -n*theta the products of an int n
    for block in range(n_last // TABLE_BLOCK + 1):
        # the rows n <= n_last of the block, less row n = 0 of block 0
        for row in _sigma_tau_block(alpha, beta, block)[not block : n_last + 1 - block * TABLE_BLOCK]:
            n_ln_r = n * ln_r
            log_t = row[1] - n_ln_r
            if log_t <= log_max:
                acc += row[col] * exp(log_t) if real else row[0] * exp(log_t) * cmath.rect(1.0, -n * theta)
            elif row[0] != 0.0 and log_t + math.log(abs(row[0])) > log_big:
                # an infinite term: -(the product above), inf for e**log_t
                # (a zero sigma, 0*inf = NaN, adds nothing)
                log_big = log_t + math.log(abs(row[0]))
                big = -(row[col] * INF if real else row[0] * INF * cmath.rect(1.0, -n * theta))
            log_s = row[2] - n_ln_r
            if log_s < log_tol:
                break
            n += 1.0
        if log_s < log_tol:
            break
    converged = log_s < log_tol
    # n is the first term not summed, or the term that met the stopping rule
    m = int(n) + converged
    t_last = exp(log_s) if log_s <= log_max else INF

    value = complex(-acc)
    if abs(theta) <= alpha * math.pi:
        # each pole gamma_k on the principal sheet adds P_k e**gamma_k =
        # e**((1-beta)/alpha * l + gamma_k)/alpha, l = log z + 2*pi*i*k (a
        # real z read from above, as theta is)
        lnz = cmath.log(complex(z.real) if real else z)
        turns = theta / math.pi
        for k in (0, *pole_turns(alpha)):
            if k and not on_sheet(turns, k, alpha):
                continue
            lz = lnz + 2j * math.pi * k if k else lnz
            g = cexp(lz / alpha)  # gamma_k
            if alpha == 2.0 and real and theta:
                # z < 0: gamma_k = +-i*sqrt(-z), but cos(pi/2) rounds to 6e-17,
                # and e**Re(gamma) would drift off 1 as |z| grows
                g = complex(0.0, g.imag)
            if cmath.isfinite(g):
                log_e = ((1.0 - beta) / alpha) * lz + g
                e = cexp(log_e)
                # part by part: a complex quotient inf/alpha would put NaN in a zero part
                if not cmath.isinf(e):
                    value += complex(e.real / alpha, e.imag / alpha)
                elif log_e.real - math.log(alpha) > log_big:
                    big, log_big = complex(e.real / alpha, e.imag / alpha), log_e.real - math.log(alpha)
            elif g.real > 0.0:
                big, log_big = complex(INF, INF), INF
            # g overflowed with Re g < 0: exp factor underflows to 0
    if big is not None:
        value = complex(big)
    # on the cut (alpha = 1, z < 0) the exponential part rounds to a complex value
    value = complex(value.real) if real else value
    # a NaN value is never converged
    return tuple.__new__(EvalResult, (value, _ASYMPTOTIC, m, t_last, converged and not cmath.isnan(value)))
