"""Whole Pade fits at fixed orders against a committed snapshot, and the
matching-condition matrix against its per-entry reference loop.

The snapshot covers the pade_fit benchmark's 126 fits (alpha in ALPHAS,
beta = 1, orders (r+1, r) for r = 2..8, every solver), then the same alphas
and solvers at beta in {1, alpha, 0.5, 2, -1.5} and the orders (r+1, r) and
(r, r+1) for r = 1..8, (2r, 1) and (1, 2r) for r = 2..5.  For each fit it
holds p and q as float.hex, then pade_eval at POINTS, then the poles, the
residues and evaluate_at at POINTS, each value as float.hex or as the class
of the exception it raised.  A fit or a partial-fraction step that raises is
held as its exception's class and message, which pins the LU pivot check.
A speed-up of the fit must keep every one of them.

Every fit runs through numpy's LAPACK and BLAS, whose last bits may depend on
the numpy build and on the CPU features OpenBLAS dispatches to.  The snapshot
records the numpy version that wrote it, and the bit test runs only under
that version; to check a change on another build, rewrite the snapshot at the
parent commit first.

To rewrite the snapshot from the code on the path, run
``PYTHONPATH=src python tests/test_pade_bits.py --write``; it prints how
many fits each solver completed and how many raised.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mittleff.exceptions import DomainError, MittleffError
from mittleff.pade import (
    assemble_pade_matrix,
    build_pade,
    pade_eval,
    partial_fractions,
    solve_fixed_q0,
    solve_lu_homogeneous,
    solve_svd_null,
)
from pade_reference import assemble_by_entry

SNAPSHOT = Path(__file__).parent / "pade_bits.json"
ALPHAS = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
SOLVERS = ("fixed", "svd", "lu")
POINTS = (0.0, 0.3, 1.0, 4.5, 20.0, 100.0, 1e50, 1e200)


def fits() -> list[tuple[float, float, int, int, str]]:
    """(alpha, beta, m, n, solver), the pade_fit benchmark's fits first."""
    cases = [(alpha, 1.0, r + 1, r, solver) for alpha in ALPHAS for r in range(2, 9) for solver in SOLVERS]
    orders = [(r + 1, r) for r in range(1, 9)] + [(r, r + 1) for r in range(1, 9)]
    orders += [(2 * r, 1) for r in range(2, 6)] + [(1, 2 * r) for r in range(2, 6)]
    for alpha in ALPHAS:
        for beta in dict.fromkeys((1.0, alpha, 0.5, 2.0, -1.5)):
            for m, n in orders:
                cases += [(alpha, beta, m, n, solver) for solver in SOLVERS]
    return list(dict.fromkeys(cases))


def _raised(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _hex(value: complex | float) -> str:
    if isinstance(value, complex):
        return f"{value.real.hex()} {value.imag.hex()}"
    return value.hex()


def _values(f) -> list[str]:
    out = []
    for x in POINTS:
        try:
            out.append(_hex(f(x)))
        except MittleffError as exc:
            out.append(type(exc).__name__)
    return out


def record(alpha: float, beta: float, m: int, n: int, solver: str) -> list:
    rec: list = [alpha, beta, m, n, solver]
    try:
        ap = build_pade(alpha, beta, m, n, solver)
    except MittleffError as exc:
        return rec + [_raised(exc)]
    rec += [[_hex(c) for c in ap.p], [_hex(c) for c in ap.q], _values(lambda x: pade_eval(ap, x))]
    try:
        pf = partial_fractions(ap)
    except MittleffError as exc:
        return rec + [_raised(exc)]
    return rec + [[_hex(c) for c in pf.poles], [_hex(c) for c in pf.residues], _values(pf.evaluate_at)]


def test_pade_fits_keep_their_bits() -> None:
    snapshot = json.loads(SNAPSHOT.read_text())
    if snapshot["numpy"] != np.__version__:
        pytest.skip(f"the snapshot holds the bits of numpy {snapshot['numpy']}, not {np.__version__}")
    cases = snapshot["cases"]
    assert [tuple(c[:5]) for c in cases] == fits()
    for want in cases:
        assert record(*want[:5]) == want


@pytest.mark.parametrize(
    "solver,solve",
    [("fixed", solve_fixed_q0), ("svd", solve_svd_null), ("lu", solve_lu_homogeneous)],
    ids=["fixed", "svd", "lu"],
)
def test_solvers_return_a_null_vector(solver: str, solve) -> None:
    # the backward error |C x| / (|C|_2 |x|) over the snapshot's fits is at
    # most 1.3e-16 (fixed), 3.9e-16 (svd) and 9.1e-17 (lu) under numpy 2.4.6;
    # the bound, 4.5 ulps, leaves room for another LAPACK build
    worst = 0.0
    for alpha, beta, m, n, name in fits():
        if name != solver:
            continue
        try:
            C = assemble_pade_matrix(alpha, beta, m, n)
            x = solve(C)
        except MittleffError:  # the snapshot pins which fits raise
            continue
        assert x.shape == (m + n,)  # 2r + 1
        worst = max(worst, np.linalg.norm(C @ x) / (np.linalg.norm(C, 2) * np.linalg.norm(x)))
    assert 0.0 < worst <= 1e-15


@settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    beta=st.floats(-5.0, 10.0),
    m=st.integers(1, 13),
    n=st.integers(1, 13),
)
@example(alpha=0.5, beta=1.0, m=2, n=5)  # m <= r: decay rows with negative k
@example(alpha=0.3, beta=-2.5, m=1, n=12)
@example(alpha=0.7, beta=2.0, m=12, n=1)  # n = 1: no decay rows
@example(alpha=1.0, beta=1.0, m=3, n=2)  # every decay coefficient 1/Gamma(1 - k) is 0
def test_assembly_matches_the_entry_loop(alpha: float, beta: float, m: int, n: int) -> None:
    if (m + n) % 2 == 0:
        n += 1 if n < 13 else -1
    got = assemble_pade_matrix(alpha, beta, m, n)
    want = assemble_by_entry(alpha, beta, m, n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta", [-200.0, -171.7, -250.3])
@pytest.mark.parametrize("alpha, m, n", [(0.5, 3, 2), (0.9, 2, 5), (0.2, 6, 1), (1.0, 1, 4)])
def test_assembly_rejects_what_the_entry_loop_rejects(alpha: float, beta: float, m: int, n: int) -> None:
    with pytest.raises(DomainError) as want:
        assemble_by_entry(alpha, beta, m, n)
    with pytest.raises(DomainError) as got:
        assemble_pade_matrix(alpha, beta, m, n)
    assert str(got.value) == str(want.value)


def _write() -> None:
    rows = [record(*case) for case in fits()]
    outcomes = Counter((row[4], "raised" if isinstance(row[5], str) else "fitted") for row in rows)
    for key, count in sorted(outcomes.items()):
        print(*key, count)
    about = (
        "build_pade, pade_eval and partial_fractions at the fits of tests/test_pade_bits.py: [alpha, beta, m, n,"
        " solver, p, q, pade_eval at POINTS, poles, residues, evaluate_at at POINTS], float.hex (a complex as"
        " 'real imag') or the exception's class; a step that raises ends its record as 'class: message'"
    )
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in rows)
    head = f'"about": {json.dumps(about)},\n"numpy": {json.dumps(np.__version__)}'
    SNAPSHOT.write_text(f'{{\n{head},\n"cases": [\n{lines}\n]\n}}\n')


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write()
