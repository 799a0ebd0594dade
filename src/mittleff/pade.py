"""Two-point rational (Pade-type) approximation of E[alpha, beta](-x).

A rational function p(x)/q(x), deg p = deg q = r, is fitted so that its
expansion matches the function's Maclaurin series to order m at x = 0
and its algebraic decay series to order n at x = infinity, with
m + n = 2r + 1.  The matching conditions form a homogeneous linear
system C x = 0 for x = [p_0..p_{r-1}, q_0..q_r] (the leading
coefficient p_r is forced to zero by the decay at infinity).  Three
interchangeable solvers return x from C alone; their coefficient vectors differ
noticeably in ill-conditioned cases, but the rational function values
they produce agree to near machine precision.  The partial-fraction
form takes its poles from the eigenvalues of the companion matrix of q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import (
    ClusteredRootsError,
    ConvergenceError,
    DomainError,
    PoleError,
    SingularSystemError,
)
from .kernels import check_alpha_beta, gamma_real, reciprocal_gamma

_EPS = float(np.finfo(float).eps)


class PadeSolver(str, Enum):
    FIXED_Q0 = "fixed"
    SVD_NULL = "svd"
    LU_HOMOGENEOUS = "lu"


@dataclass(frozen=True)
class PadeApproximant:
    alpha: float
    beta: float
    m: int
    n: int
    r: int
    p: tuple[float, ...]  # length r+1, p[r] == 0.0
    q: tuple[float, ...]  # length r+1
    solver: PadeSolver
    # (p_k, q_k) from k = r down to 0: pade_eval's single Horner pass
    _pq: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pq", tuple(zip(reversed(self.p), reversed(self.q))))


@dataclass(frozen=True)
class PartialFractionForm:
    """sum_j residues[j] / (poles[j] - x), evaluated in real arithmetic.

    Non-real poles come in exact conjugate pairs with exactly conjugate
    residues (as partial_fractions gives them), or DomainError is raised.
    At real x a pair a +- ib with residues c, conj(c) adds 2 Re[c/(a + ib
    - x)]: evaluate_at pays one real division per real pole and per pair,
    from float tables built once per form.
    """

    poles: tuple[complex, ...]
    residues: tuple[complex, ...]
    # (a, Re res) per real pole; (a, b, 2 Re c, 2 Im c) per pole a + ib, b > 0
    _real: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    _pairs: tuple[tuple[float, float, float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        residue_of = dict(zip(self.poles, self.residues))
        real, pairs = [], []
        for pole, res in zip(self.poles, self.residues):
            if pole.imag == 0.0:
                real.append((pole.real, res.real))
                continue
            if pole.conjugate() not in residue_of:
                raise DomainError(f"pole {pole!r} has no exact conjugate")
            if residue_of[pole.conjugate()] != res.conjugate():
                raise DomainError(f"the residues at {pole!r} and its conjugate are not conjugates")
            if pole.imag > 0.0:
                pairs.append((pole.real, pole.imag, 2.0 * res.real, 2.0 * res.imag))
        object.__setattr__(self, "_real", tuple(real))
        object.__setattr__(self, "_pairs", tuple(pairs))

    def evaluate_at(self, x: float) -> float:
        """The sum at a finite real x; a NaN or infinite x raises DomainError,
        and a real pole PoleError.

        The real part of c/(d + ib), d = a - x, is taken in Smith form:
        d**2 + b**2 overflows from |x| ~ 1e154 on.  The sum is accurate
        relative to the sum of its terms' magnitudes, not to its value:
        where p/q decays faster than its terms, they cancel.  At alpha = 1
        every decay coefficient 1/Gamma(1 - k) is 0, and on x in [1, 1000]
        the relative error against pade_eval grows with r, to 3e-8 at
        r = 4, 1e-3 at r = 6 and 6e1 (fixed) to 2e3 (lu) at r = 7-8 for
        build_pade(1, 1, r + 1, r).  pade_eval keeps its digits there.
        """
        if not -math.inf < x < math.inf:  # complex x: TypeError
            raise DomainError(f"x={x!r} is not a finite real number")
        s = 0.0
        try:  # a pair's denominator has b > 0 and cannot vanish
            for a, res in self._real:
                s += res / (a - x)
        except ZeroDivisionError:
            raise PoleError(f"x={x!r} is a pole") from None
        for a, b, u, v in self._pairs:
            d = a - x
            if d >= b or -d >= b:  # abs(d) >= abs(b), as b > 0
                rat = b / d
                s += (u + v * rat) / (d + b * rat)
            else:
                rat = d / b
                s += (u * rat + v) / (b + d * rat)
        return s


def series_coeff_a(k: int, alpha: float, beta: float) -> float:
    """Maclaurin coefficient a_k = (-1)**k / Gamma(beta + k*alpha)."""
    if k < 0:
        raise DomainError(f"k={k!r} must be >= 0")
    return (-1.0) ** k * reciprocal_gamma(beta + k * alpha)


def series_coeff_b(k: int, alpha: float, beta: float) -> float:
    """Decay coefficient b_k = (-1)**(k-1) / Gamma(beta - k*alpha).

    For beta - k*alpha <= 1/2 the reflection form
    (-1)**k sin(pi*(k*alpha-beta)) Gamma(1+k*alpha-beta) / pi
    is used so gamma is never evaluated left of 1/2.
    """
    if k < 1:
        raise DomainError(f"k={k!r} must be >= 1")
    y = beta - k * alpha
    if y > 0.5:
        return (-1.0) ** (k - 1) * reciprocal_gamma(y)
    t = math.pi * (k * alpha - beta)  # inf past 5.7e307, where Gamma(1 - y) is inf too
    return (-1.0) ** k / math.pi * (math.sin(t) if t < math.inf else math.nan) * gamma_real(1.0 - y)


def assemble_pade_matrix(alpha: float, beta: float, m: int, n: int) -> np.ndarray:
    """Matching-condition matrix C, shape (2r, 2r+1), r = (m+n-1)/2.

    Unknown ordering is [p_0..p_{r-1}, q_0..q_r].  The first m rows make
    the series coefficients of p - a*q vanish at orders 0..m-1 (rows
    with k >= r carry no p term); the remaining n-1 rows do the same for
    the decay series at orders k = r-n+1..r-1 (negative k rows, present
    when m <= r, also carry no p term).  A coefficient that is not finite
    (Gamma overflows for beta below about -170) raises DomainError.
    """
    if m < 1 or n < 1:
        raise DomainError(f"orders m={m!r}, n={n!r} must be >= 1")
    if (m + n) % 2 == 0 or m + n < 3:
        raise DomainError(f"m+n={m + n!r} must be odd and >= 3")
    r = (m + n - 1) // 2
    neg_a = [-series_coeff_a(k, alpha, beta) for k in range(m)]
    neg_b = [-series_coeff_b(k, alpha, beta) for k in range(1, n)]
    C = np.zeros((2 * r, 2 * r + 1))
    for k in range(m):  # q_j takes -a_{k-j}, j = 0..min(k, r)
        if k < r:
            C[k, k] = 1.0
        j = min(k, r)
        C[k, r : r + j + 1] = neg_a[k - j : k + 1][::-1]
    for row, k in enumerate(range(r - n + 1, r), m):  # q_j takes -b_{j-k}, j = max(k+1, 0)..r
        if k >= 0:
            C[row, k] = 1.0
        j = max(k + 1, 0)
        C[row, r + j :] = neg_b[j - k - 1 : r - k]
    if not np.isfinite(C).all():
        raise DomainError(f"beta={beta!r}: the coefficients of the matching conditions are not finite")
    return C


def solve_fixed_q0(C: np.ndarray) -> np.ndarray:
    """C's null vector x, r = len(C) // 2: pin q_0 = 1 and solve the square system for the rest."""
    r = len(C) // 2
    reduced = np.delete(C, r, axis=1)
    rhs = -C[:, r]
    try:
        sol = np.linalg.solve(reduced, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"pinned system is singular: {exc}") from exc
    return np.concatenate([sol[:r], [1.0], sol[r:]])


def solve_svd_null(C: np.ndarray) -> np.ndarray:
    """C's null vector x: the right singular vector of the smallest singular value."""
    _, s, vt = np.linalg.svd(C)
    if s[-1] <= (len(C) + 1) * _EPS * s[0]:
        raise SingularSystemError("null space is not one-dimensional at working precision")
    return vt[-1]


def solve_lu_homogeneous(C: np.ndarray) -> np.ndarray:
    """C's null vector x with q_r = 1: row-pivoted elimination of C, then back substitution.

    Outer-product Gaussian elimination with partial pivoting (Golub & Van
    Loan, Matrix Computations, 3.4): step i swaps the row of the largest
    |U[k, i]|, k >= i, into row i, then subtracts (U[k, i] / U[i, i]) U[i, i:]
    from every row k > i in one broadcast update.  A pivot |U[i, i]| at or
    below 2r * eps * sigma1(C), sigma1 the largest singular value, raises
    SingularSystemError for the bottom-most such row.
    """
    U = np.array(C, dtype=float, copy=True)
    rows = len(C)
    for i in range(rows):
        piv = i + int(abs(U[i:, i]).argmax())
        if piv != i:
            U[i], U[piv] = U[piv], U[i].copy()
        d = U[i, i]
        if d != 0.0:
            U[i + 1 :, i:] -= (U[i + 1 :, i] / d)[:, None] * U[i, i:]
    pivot_tol = rows * _EPS * np.linalg.svd(C, compute_uv=False)[0]
    pivots = abs(U.diagonal())
    small = (pivots <= pivot_tol).nonzero()[0]
    if small.size:
        i = int(small[-1])
        raise SingularSystemError(f"pivot {pivots[i]:.3e} at row {i} below tolerance {pivot_tol:.3e}")
    x = np.zeros(rows + 1)
    x[rows] = 1.0
    for i in range(rows - 1, -1, -1):
        x[i] = -float(U[i, i + 1 :].dot(x[i + 1 :])) / U[i, i]
    return x


def build_pade(
    alpha: float,
    beta: float,
    m: int,
    n: int,
    solver: PadeSolver | str = PadeSolver.FIXED_Q0,
) -> PadeApproximant:
    """Assemble C and take its null vector x, scaled to q_0 = 1 unless q_0 is numerically zero."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1]")
    check_alpha_beta(alpha, beta)
    try:
        solver = PadeSolver(solver)
    except ValueError:
        raise DomainError(f"solver={solver!r} is not one of 'fixed', 'svd', 'lu'") from None
    C = assemble_pade_matrix(alpha, beta, m, n)
    if solver is PadeSolver.FIXED_Q0:
        x = solve_fixed_q0(C)
    elif solver is PadeSolver.SVD_NULL:
        x = solve_svd_null(C)
    else:
        x = solve_lu_homogeneous(C)
    r = len(C) // 2
    if abs(x[r]) > 1e-13:
        x = x / x[r]
    p = tuple(float(v) for v in x[:r]) + (0.0,)
    q = tuple(float(v) for v in x[r:])
    return PadeApproximant(alpha, beta, m, n, r, p, q, solver)


def _horner(coeffs: tuple[float, ...], x: complex) -> complex:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def pade_eval(approx: PadeApproximant, x: float) -> float:
    """p(x)/q(x) at a point of [0, inf), both sums in one Horner pass.

    Where a sum overflows (from x ~ 1e45 on at r = 8) the same quotient is
    summed in y = 1/x with the coefficients reversed; wherever both sums
    are finite the value is _horner(p, x) / _horner(q, x) to the bit.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x={x!r} outside [0, inf)")
    num = den = 0.0
    for pk, qk in approx._pq:
        num = num * x + pk
        den = den * x + qk
    if not (math.isfinite(num) and math.isfinite(den)):
        y = 1.0 / x
        num = den = 0.0
        for pk, qk in reversed(approx._pq):
            num = num * y + pk
            den = den * y + qk
    if den == 0.0:
        raise PoleError(f"q({x!r}) = 0")
    return num / den


def partial_fractions(approx: PadeApproximant) -> PartialFractionForm:
    """Poles of p/q and residues -p(chi_i)/(q_r prod_{j != i} (chi_i - chi_j)),
    so that p(x)/q(x) = sum_j residue_j / (chi_j - x).

    The poles are the eigenvalues of the companion matrix of q
    (numpy.roots, backward stable; complex ones in exact conjugate pairs),
    each polished by one complex Newton step on q, which keeps pairs exact.
    The residues are those of p over the polynomial with exactly these
    poles, computed for the real and upper-half poles only: a lower pole
    takes the exact conjugate of its partner's residue, so each pair's
    residues are conjugate bit for bit (a product over the other poles in
    sorted order would make them so only to rounding).  Against p/q on
    [0, 50] the fractions are good to 2e-11 relative
    for alpha >= 0.5 up to r = 12, and to 3e-10 at alpha = 0.2 for r = 10
    and 12.
    """
    r = approx.r
    q = approx.q
    scale = max(abs(c) for c in q)
    if abs(q[r]) <= 1e-13 * scale:
        raise DomainError("leading denominator coefficient is numerically zero")
    try:
        # complex before tolist: an all-real root array would give floats
        roots = np.roots(q[::-1]).astype(complex).tolist()
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"companion-matrix eigenvalues did not converge: {exc}") from exc
    dq = tuple((k + 1) * q[k + 1] for k in range(r))
    # q' is exactly 0 at an exact double root; the cluster check below reports it
    polished = []
    for chi in roots:
        slope = _horner(dq, chi)
        polished.append(chi - _horner(q, chi) / slope if slope else chi)
    poles = tuple(sorted(polished, key=lambda c: (c.real, c.imag)))

    for i in range(r):
        for j in range(i + 1, r):
            if abs(poles[i] - poles[j]) < 1e-8 * (1.0 + abs(poles[i])):
                raise ClusteredRootsError(
                    f"poles {poles[i]!r} and {poles[j]!r} are too close to separate"
                )

    # sorted order puts a pair's upper pole after its partner: walking
    # backwards, each lower pole finds the upper one's residue
    residue_of: dict[complex, complex] = {}
    for i in reversed(range(r)):
        chi = poles[i]
        if chi.imag < 0.0 and chi.conjugate() in residue_of:
            residue_of[chi] = residue_of[chi.conjugate()].conjugate()
        else:
            others = math.prod(chi - poles[j] for j in range(r) if j != i)
            residue_of[chi] = -_horner(approx.p, chi) / (q[r] * others)
    return PartialFractionForm(poles, tuple(residue_of[chi] for chi in poles))


def coefficients_csv(approx: PadeApproximant) -> str:
    lines = ["index,p,q"]
    for j in range(approx.r + 1):
        lines.append(f"{j},{approx.p[j]!r},{approx.q[j]!r}")
    return "\n".join(lines) + "\n"


def partial_fractions_csv(pf: PartialFractionForm) -> str:
    lines = ["re_pole,im_pole,re_residue,im_residue"]
    for pole, res in zip(pf.poles, pf.residues):
        lines.append(f"{pole.real!r},{pole.imag!r},{res.real!r},{res.imag!r}")
    return "\n".join(lines) + "\n"
