"""Real arguments: exactly real values on every route, the float loops of the
series and the expansion, the expansion that routing skips where it could
only fail, and ml_auto giving the public evaluators' bits.

To rewrite the outputs in real_axis_bits.json from the code on the path,
run ``PYTHONPATH=src python tests/test_real_axis.py --write``: it
recomputes them at the 200 stored inputs, which it never redraws, and
prints how many records each method has."""

import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mittleff import dispatch
from mittleff.asymptotic import _expansion_sum, elementary, log_r_floor, ml_asymptotic
from mittleff.cli import main
from mittleff.dispatch import ml_auto, run_method
from mittleff.quadrature import EvalResult, Method
from mittleff.series import ml_series

SNAPSHOT = Path(__file__).parent / "real_axis_bits.json"
BITS = json.loads(SNAPSHOT.read_text())["cases"]


def _evaluate(method: str, z_hex: str, alpha: float, beta: float, tol: float) -> EvalResult:
    # one stored input, by the evaluator its record names
    evaluator = ml_series if method == "series" else ml_asymptotic
    return evaluator(complex(float.fromhex(z_hex)), alpha, beta, tol)


def test_series_and_expansion_keep_their_real_part_bits() -> None:
    # both signs of z, the x < 1/2 envelope of the series, alpha = 1, and
    # expansions that miss their stopping rule
    assert len(BITS) == 200
    assert {c[0] for c in BITS} == {"series", "asymp"}
    assert any(c[0] == "asymp" and c[2] == 1.0 and float.fromhex(c[1]) < 0 for c in BITS)
    assert any(c[0] == "series" and c[3] + c[2] < 0.5 for c in BITS)
    assert not all(c[7] for c in BITS)
    for method, z_hex, alpha, beta, tol, want, count, converged in BITS:
        z = complex(float.fromhex(z_hex))
        res = _evaluate(method, z_hex, alpha, beta, tol)
        got = (res.value, res.nodes_or_terms, res.converged)
        assert (got[0].real.hex(), got[1], got[2]) == (want, count, converged), (method, z, alpha, beta, tol)
        # every value is exactly real, the expansion's on the cut (alpha = 1,
        # z < 0) included, whose exponential part rounds to a complex value;
        # run_method hands it back as it is
        assert got[0].imag == 0.0 and math.copysign(1.0, got[0].imag) == 1.0
        routed = run_method(Method(method), z, alpha, beta, tol)
        assert routed.value.real.hex() == got[0].real.hex()
        assert routed.value.imag.hex() == got[0].imag.hex()


ROUTES = [
    # (z, alpha, beta, tol, method, note)
    (0.5, 0.5, 1.0, 1e-14, Method.SERIES, "series"),
    (-0.8, 1.5, 1.3, 1e-14, Method.SERIES, "series, alpha > 1"),
    (-15.0, 0.7, 1.0, 1e-12, Method.ASYMPTOTIC, "expansion"),
    (-45.0, 1.0, 1.5, 1e-14, Method.ASYMPTOTIC, "expansion on the cut"),
    (3.0, 0.5, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature, pole split"),
    (-3.0, 0.5, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature, plain"),
    # beta = 2 > alpha = 1 and beta = 0.5 at alpha = 2, as an integer beta <= alpha
    # at alpha 1 or 2 takes the closed form
    (-5.0, 1.0, 2.0, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature on the cut"),
    (-5.0, 1.0, 0.6, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature on the cut, beta 0.6"),
    (-4.2, 1.5, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "two-pole row"),
    (-3000.0, 2.0, 0.5, 1e-14, Method.QUAD_HYPERBOLIC, "two-pole row, alpha 2"),
    (-5.0, 1.0, 1.0, 1e-14, Method.ASYMPTOTIC, "closed form, alpha 1"),
    (-3000.0, 2.0, 1.0, 1e-14, Method.ASYMPTOTIC, "closed form, alpha 2"),
    (37.5, 2.0, -1.0, 1e-14, Method.ASYMPTOTIC, "closed form, z > 0"),
    (-1e4, 2.0, 1.0, 1e-14, Method.ASYMPTOTIC, "pair by expansion"),
    (-1e4, 1.3, 1.3, 1e-14, Method.ASYMPTOTIC, "pair by expansion, beta = alpha"),
    # the names of the last two are those of the reduction's sub-points; the
    # engine now splits every pole at z: a real one and a pair, and a pair and
    # one on the cut
    (4.2, 1.5, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "real sub-points"),
    (-37.5, 2.5, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "pair and real sub-point"),
    (37.5, 2.0, 0.6, 1e-14, Method.QUAD_HYPERBOLIC, "engine, a pole on the cut"),
    (1e4, 1.7, 1.7, 1e-14, Method.ASYMPTOTIC, "expansion, z > 0"),
]


@pytest.mark.parametrize("z, alpha, beta, tol, method", [r[:5] for r in ROUTES], ids=[r[5] for r in ROUTES])
def test_every_route_gives_an_exactly_real_value(z: float, alpha: float, beta: float, tol: float, method) -> None:
    res = ml_auto(z, alpha, beta, tol)
    assert res.method is method
    assert res.converged
    assert math.isfinite(res.value.real)
    assert res.value.imag == 0.0 and math.copysign(1.0, res.value.imag) == 1.0
    assert ml_auto(complex(z, -0.0), alpha, beta, tol) == res


@pytest.mark.parametrize("method", ["quad-hyp", "quad-par", "asymp"])
def test_forced_method_on_the_cut_is_exactly_real(capsys, method: str) -> None:
    # alpha = 1, z < 0: the pole sits on the branch cut, where the
    # expansion's exponential part rounds to a complex value; quadrature's
    # edge row is exactly real
    z = "-45" if method == "asymp" else "-5"
    code = main(["eval", "--alpha", "1", "--beta", "0.6", "--z", z, "--method", method])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].split()[1] == "0.0000000000000000e+00"


def test_futile_expansion_is_not_run(monkeypatch) -> None:
    # alpha = 0.3, z = -2.7 passes the size gate, but the expansion runs to
    # its divergence bound without meeting tol
    z, alpha, beta, tol = -2.7, 0.3, 1.0, 1e-14
    assert math.log(2.7) / alpha - math.log(alpha) > math.log(dispatch.ASYMP_GATE)
    assert not ml_asymptotic(z, alpha, beta, tol).converged
    assert math.log(2.7) < log_r_floor(alpha, beta, tol)
    # the spy sits on the unchecked sum that the router calls
    calls = []
    monkeypatch.setattr(dispatch, "_expansion_sum", lambda *a: calls.append(a) or _expansion_sum(*a))
    res = ml_auto(z, alpha, beta, tol)
    assert res.method is Method.QUAD_HYPERBOLIC
    assert calls == []
    # one step further out the bound lets the expansion run, through the spy
    assert ml_auto(-15.0, 0.7, 1.0, 1e-12).method is Method.ASYMPTOTIC
    assert len(calls) == 1


@st.composite
def _around_the_floor(draw) -> tuple:
    alpha = draw(st.sampled_from([1.0, 0.5, 0.1]) | st.floats(0.02, 1.0))
    beta = draw(st.sampled_from([1.0, alpha, 0.0]) | st.floats(-3.0, 6.0))
    tol = draw(st.sampled_from([dispatch.TOL_MIN, 1e-14, dispatch.TOL_MAX]) | st.floats(1e-15, 1e-2))
    # log|z| within a narrow or a wide band around the bound
    width = draw(st.sampled_from([1e-8, 1e-3, 0.5]))
    log_r = log_r_floor(alpha, beta, tol) + draw(st.floats(-width, width))
    sign = draw(st.sampled_from([1.0, -1.0, 1j]))
    return alpha, beta, tol, sign * math.exp(log_r)


@settings(
    derandomize=True,
    max_examples=600,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(case=_around_the_floor())
@example(case=(0.3, 1.0, 1e-14, -2.7))
@example(case=(1.0, 1.0, 1e-14, -30.3))
def test_floor_skips_only_expansions_that_fail(case: tuple) -> None:
    # routing skips the expansion below the bound minus 1e-9: it must have
    # missed its stopping rule
    # there, except at a real z where E is elementary: routing takes the
    # closed form there first and never reads the bound
    alpha, beta, tol, z = case
    if math.log(abs(z)) < log_r_floor(alpha, beta, tol) - 1e-9:
        res = ml_asymptotic(z, alpha, beta, tol)
        assert not res.converged or (complex(z).imag == 0.0 and elementary(alpha, beta))


def _fields(res: EvalResult) -> tuple:
    # every field, the value by the bits of both parts (the sign of zero too)
    return (res.value.real.hex(), res.value.imag.hex(), res.method, res.nodes_or_terms, res.err_estimate.hex(), res.converged)


@st.composite
def _real_line(draw) -> tuple:
    alpha = draw(st.sampled_from([1.0, 0.5, 2.0, 1.5, 3.0]) | st.floats(0.05, 3.5))
    beta = draw(st.sampled_from([1.0, alpha, 0.0, -1.5, 2.5]) | st.floats(-3.0, 6.0))
    tol = draw(st.sampled_from([dispatch.TOL_MIN, 1e-14, dispatch.TOL_MAX]) | st.floats(1e-15, 1e-2))
    # log|z| next to R_SERIES, the size gate or the floor, or anywhere
    gate = alpha * (math.log(dispatch.ASYMP_GATE) + math.log(alpha))
    centre = draw(st.sampled_from([0.0, gate, log_r_floor(alpha, beta, tol), 2.0]))
    width = draw(st.sampled_from([1e-9, 1e-3, 0.5, 4.0]))
    log_r = centre + draw(st.floats(-width, width))
    return alpha, beta, tol, draw(st.sampled_from([1.0, -1.0])) * math.exp(log_r)


@settings(
    derandomize=True,
    max_examples=500,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(case=_real_line())
@example(case=(0.7, 1.0, 1e-14, -0.37))
@example(case=(0.3, 1.0, 1e-14, -2.7))
@example(case=(1.3, 1.0, 1e-14, -9.0))
@example(case=(2.0, 1.0, 1e-14, -3000.0))
@example(case=(1.3, 1.3, 1e-14, -112.0))
def test_auto_gives_the_bits_of_the_public_evaluators(case: tuple) -> None:
    # ml_auto runs the same sums as ml_series, ml_asymptotic and ml_quad
    alpha, beta, tol, z = case
    res = ml_auto(z, alpha, beta, tol)
    assert _fields(res) == _fields(run_method(res.method, complex(z), alpha, beta, tol))


def _snapshot_text() -> str:
    # real_axis_bits.json as the code on the path writes it
    snapshot = json.loads(SNAPSHOT.read_text())
    rows = []
    for method, z_hex, alpha, beta, tol, *_ in snapshot["cases"]:
        res = _evaluate(method, z_hex, alpha, beta, tol)
        rows.append([method, z_hex, alpha, beta, tol, res.value.real.hex(), res.nodes_or_terms, res.converged])
    lines = ",\n".join(json.dumps(r) for r in rows)
    return f'{{\n"about": {json.dumps(snapshot["about"])},\n"cases": [\n{lines}\n]\n}}\n'


def test_writer_reproduces_the_snapshot() -> None:
    assert _snapshot_text() == SNAPSHOT.read_text()


def _write() -> None:
    SNAPSHOT.write_text(_snapshot_text())
    for method, count in sorted(Counter(case[0] for case in BITS).items()):
        print(method, count)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write()
