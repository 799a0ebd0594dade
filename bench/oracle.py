"""High-precision reference values for the benchmark, computed with mpmath.

Runs as a child process of ``run.py``: it reads one JSON request on stdin
and writes the references as JSON on stdout, so mpmath never loads into the
process whose time and memory are measured.  Every value is returned as a
double-double ``hi + lo`` (``lo`` is the rounding error of ``hi``), so the
benchmark can measure errors well below one ulp of the reference.

Request kinds:

* ``negaxis``: ``points`` is a list of ``[x, alpha, beta]`` with real ``x``;
  reply ``[hi, lo]`` per point for E[alpha, beta](x).
* ``half``: ``points`` is a list of ``[re, im]``; reply
  ``[re_hi, re_lo, im_hi, im_lo]`` per point for E[1/2, 1](re + i*im).
* ``pade``: ``jobs`` is a list of ``{"alpha", "beta", "r", "x": [...]}``;
  reply one list of ``[hi, lo]`` per job for the (r+1, r) two-point Pade
  approximant p(x)/q(x) of E[alpha, beta](-x) at each ``x``, fitted here in
  high precision from exact series coefficients (``pade_coefficients``).
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp

# Absolute size below which the series is cut off.  Every value the
# benchmark asks for is above 1e-12, so this leaves more than 20 digits.
_SERIES_CUTOFF = mp.mpf(10) ** -35


def closed_form(x: float, alpha: float, beta: float):
    """E[alpha, beta](x) from a closed form, or None if there is none here.

    exp(x) for alpha = 1, exp(x^2) erfc(-x) for alpha = 1/2 (and the shift
    E[a, a] = 1/Gamma(a) + x E[a, 2a] for beta = 1/2), cosh(sqrt x) and
    sinh(sqrt x)/sqrt x for alpha = 2.  Evaluated at the current precision.
    """
    X = mp.mpf(x)
    if alpha == 1.0 and beta == 1.0:
        return mp.exp(X)
    if alpha == 0.5 and beta in (0.5, 1.0):
        e = mp.exp(X * X) * mp.erfc(-X)
        return e if beta == 1.0 else 1 / mp.sqrt(mp.pi) + X * e
    if alpha == 2.0 and beta in (1.0, 2.0) and x < 0.0:
        s = mp.sqrt(-X)  # sqrt(x) = i*s, so cosh -> cos and sinh/sqrt -> sin/s
        return mp.cos(s) if beta == 1.0 else mp.sin(s) / s
    return None


def _precision(x: float, alpha: float) -> int:
    # The largest series term is about exp(|x|**(1/alpha)); the sum cancels
    # down to a value above 1e-12, so carry that many digits plus 40.
    return 40 + int(abs(x) ** (1.0 / alpha) / math.log(10.0))


class SeriesOracle:
    """Power series sum_n x^n / Gamma(beta + n*alpha) at high precision.

    The coefficients 1/Gamma(beta + n*alpha) depend only on (alpha, beta),
    so they are computed once per pair, at the precision of the largest
    argument, and shared by every point of that pair.
    """

    def __init__(self, alpha: float, beta: float, max_abs_x: float) -> None:
        self.alpha = alpha
        self.beta = beta
        self.dps = _precision(max_abs_x, alpha)
        self._coeffs: list = []

    def _coeff(self, n: int):
        while len(self._coeffs) <= n:
            k = len(self._coeffs)
            self._coeffs.append(mp.rgamma(mp.mpf(self.beta) + k * mp.mpf(self.alpha)))
        return self._coeffs[n]

    def __call__(self, x: float):
        with mp.workdps(self.dps):
            X = mp.mpf(x)
            peak = abs(x) ** (1.0 / self.alpha)
            acc = mp.mpf(0)
            xp = mp.mpf(1)
            n = 0
            while True:
                term = xp * self._coeff(n)
                acc += term
                # terms fall super-geometrically once n*alpha passes the peak
                if n * self.alpha > peak and abs(term) < _SERIES_CUTOFF:
                    return +acc
                xp *= X
                n += 1


def _split(v) -> list[float]:
    hi = float(v)
    return [hi, float(v - hi)] if math.isfinite(hi) else [hi, 0.0]


def negaxis_refs(points: list) -> list[list[float]]:
    groups: dict[tuple[float, float], list[int]] = {}
    for i, (x, alpha, beta) in enumerate(points):
        groups.setdefault((alpha, beta), []).append(i)
    out: list = [None] * len(points)
    for (alpha, beta), idx in groups.items():
        oracle = None
        for i in idx:
            x = points[i][0]
            with mp.workdps(50):
                v = closed_form(x, alpha, beta)
                if v is not None:
                    out[i] = _split(v)
                    continue
            if oracle is None:
                oracle = SeriesOracle(alpha, beta, max(abs(points[j][0]) for j in idx))
            with mp.workdps(oracle.dps):
                out[i] = _split(oracle(x))
    return out


def half_refs(points: list) -> list[list[float]]:
    out = []
    with mp.workdps(30):
        for re, im in points:
            z = mp.mpc(re, im)
            v = mp.exp(z * z) * mp.erfc(-z)
            out.append(_split(v.real) + _split(v.imag))
    return out


def pade_coefficients(alpha: float, beta: float, r: int) -> tuple[list, list]:
    """Coefficients (ascending) of the (r+1, r) two-point Pade approximant of E[alpha, beta](-x).

    The same matching conditions the library states (``mittleff.pade``): deg
    p = r - 1, deg q = r, the Maclaurin series a_k = (-1)^k / Gamma(beta +
    k alpha) matched to order r + 1 at x = 0 and the decay series b_k =
    (-1)^(k-1) / Gamma(beta - k alpha) to order r at infinity.  Built from
    mpmath's ``rgamma`` and solved with q_0 = 1 at the current precision; the
    rational function does not depend on that normalisation.
    """
    A, B = mp.mpf(alpha), mp.mpf(beta)
    m, n = r + 1, r
    # unknowns [p_0..p_{r-1}, q_1..q_r]; q_0 = 1 moves to the right-hand side
    M = mp.zeros(2 * r, 2 * r)
    rhs = mp.zeros(2 * r, 1)

    def put(row: int, col: int, value) -> None:
        if col == r:
            rhs[row] -= value
        else:
            M[row, col if col < r else col - 1] += value

    row = 0
    for k in range(m):  # x^k coefficient of p - (series at 0) * q
        if k < r:
            put(row, k, 1)
        for j in range(min(k, r) + 1):
            put(row, r + j, -((-1) ** (k - j)) * mp.rgamma(B + (k - j) * A))
        row += 1
    for k in range(r - n + 1, r):  # x^k coefficient of p - (series at infinity) * q
        if k >= 0:
            put(row, k, 1)
        for j in range(max(k + 1, 0), r + 1):
            put(row, r + j, -((-1) ** (j - k - 1)) * mp.rgamma(B - (j - k) * A))
        row += 1
    sol = mp.lu_solve(M, rhs)
    return [sol[i] for i in range(r)], [mp.mpf(1)] + [sol[i] for i in range(r, 2 * r)]


def pade_refs(jobs: list) -> list[list[list[float]]]:
    fits: dict = {}
    out = []
    with mp.workdps(60):
        for job in jobs:
            key = (job["alpha"], job["beta"], job["r"])
            if key not in fits:
                p, q = pade_coefficients(*key)
                fits[key] = (p[::-1], q[::-1])
            p_desc, q_desc = fits[key]
            out.append([_split(mp.polyval(p_desc, mp.mpf(x)) / mp.polyval(q_desc, mp.mpf(x))) for x in job["x"]])
    return out


def main() -> int:
    request = json.load(sys.stdin)
    kind = request["kind"]
    if kind == "negaxis":
        refs = negaxis_refs(request["points"])
    elif kind == "half":
        refs = half_refs(request["points"])
    elif kind == "pade":
        refs = pade_refs(request["jobs"])
    else:
        print(f"oracle: unknown request kind {kind!r}", file=sys.stderr)
        return 2
    json.dump({"refs": refs}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
