"""E[alpha, beta](z) in mpmath: the one high-precision reference of the tests.

`ml_reference` uses a closed form where one serves: e**(z**2) erfc(-z) at
(1/2, 1), and at alpha = 1 z**m e**z for beta = 1 - m (m = 0, 1, 2, ...),
else 1F1(1; beta; z)/Gamma(beta).  Everywhere else it sums the power series
sum z**n / Gamma(beta + n*alpha) (`_series`).
"""

import math

import mpmath as mp

# digits carried beyond the largest series term, and the closed forms' precision
_MARGIN = 30
_CLOSED_DPS = 40


def ml_reference(z: complex, alpha: float, beta: float):
    """E[alpha, beta](z) to at least 25 significant digits: an mpf for a
    float z, else an mpc, carrying the precision it was computed at."""
    zz = mp.mpmathify(z)
    if alpha == 1.0:
        with mp.workdps(_CLOSED_DPS):
            if beta <= 1.0 and beta == int(beta):
                return zz ** int(1 - beta) * mp.exp(zz)
            return mp.hyp1f1(1, beta, zz) / mp.gamma(beta)
    if alpha == 0.5 and beta == 1.0:
        with mp.workdps(_CLOSED_DPS):
            return mp.exp(zz**2) * mp.erfc(-zz)
    return _series(z, alpha, beta)


def _series(z: complex, alpha: float, beta: float):
    """sum z**n / Gamma(beta + n*alpha) with digits for its largest term and
    _MARGIN more, summed again with more where the sum cancels below that."""
    z = mp.mpmathify(z)
    rho = float(abs(z)) ** (1.0 / alpha)  # the largest term is about e**rho
    # stop only past the peak of the terms and the negative arguments of
    # 1/Gamma(beta + n*alpha), where a term may vanish or still grow
    last = 2.0 * rho + 20.0 - min(beta, 0.0)
    dps = _MARGIN + int(rho / math.log(10.0))
    while True:
        with mp.workdps(dps):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            total, peak, zn, n = mp.mpf(0), mp.mpf(0), mp.mpf(1), 0
            while True:
                term = zn * mp.rgamma(b + n * a)
                total += term
                peak = max(peak, abs(term))
                n += 1
                if n * alpha > last and abs(term) <= mp.eps * abs(total):
                    break
                zn *= z
            lost = int(mp.log10(peak / abs(total))) if total else 0
        if lost <= dps - _MARGIN:
            return total
        dps = lost + _MARGIN
