"""The per-entry assembly loop of the matching-condition matrix, kept as a
reference for tests/test_pade_bits.py.

assemble_pade_matrix computes each distinct coefficient once and fills each
row's run of denominator entries with one slice assignment; this loop calls
series_coeff_a or series_coeff_b once per entry.  Both must give the same
matrix bit for bit, and raise the same DomainError where a coefficient is not
finite.
"""

import numpy as np

from mittleff.exceptions import DomainError
from mittleff.pade import series_coeff_a, series_coeff_b


def assemble_by_entry(alpha: float, beta: float, m: int, n: int) -> np.ndarray:
    if m < 1 or n < 1:
        raise DomainError(f"orders m={m!r}, n={n!r} must be >= 1")
    if (m + n) % 2 == 0 or m + n < 3:
        raise DomainError(f"m+n={m + n!r} must be odd and >= 3")
    r = (m + n - 1) // 2
    C = np.zeros((2 * r, 2 * r + 1))
    row = 0
    for k in range(m):
        if k <= r - 1:
            C[row, k] = 1.0
        for j in range(0, min(k, r) + 1):
            C[row, r + j] = -series_coeff_a(k - j, alpha, beta)
        row += 1
    for k in range(r - n + 1, r):
        if k >= 0:
            C[row, k] = 1.0
        for j in range(max(k + 1, 0), r + 1):
            C[row, r + j] = -series_coeff_b(j - k, alpha, beta)
        row += 1
    if not np.isfinite(C).all():
        raise DomainError(f"beta={beta!r}: the coefficients of the matching conditions are not finite")
    return C
