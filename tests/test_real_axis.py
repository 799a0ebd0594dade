"""Real arguments: exactly real values on every route, the float loops of the
series and the expansion, and the expansion that routing skips where it
could only fail."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mittleff import dispatch
from mittleff.asymptotic import log_r_floor, ml_asymptotic
from mittleff.cli import main
from mittleff.dispatch import ml_auto, run_method
from mittleff.quadrature import Method
from mittleff.series import ml_series

BITS = json.loads((Path(__file__).parent / "real_axis_bits.json").read_text())["cases"]


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
        if method == "series":
            res = ml_series(z, alpha, beta, tol)
            got = (res.value, res.terms_used, res.converged)
        else:
            res = ml_asymptotic(z, alpha, beta, tol)
            got = (res.value, res.m, res.converged)
        assert (got[0].real.hex(), got[1], got[2]) == (want, count, converged), (method, z, alpha, beta, tol)
        # the sums are real; only the exponential part of the expansion on
        # the cut (alpha = 1, z < 0) is complex, and run_method drops that
        if method == "series" or z.real > 0 or alpha < 1.0:
            assert got[0].imag == 0.0 and math.copysign(1.0, got[0].imag) == 1.0
        routed = run_method(Method(method), z, alpha, beta, tol)
        assert routed.value == complex(got[0].real, 0.0)


ROUTES = [
    # (z, alpha, beta, tol, method, note)
    (0.5, 0.5, 1.0, 1e-14, Method.SERIES, "series"),
    (-0.8, 1.5, 1.3, 1e-14, Method.SERIES, "series, alpha > 1"),
    (-15.0, 0.7, 1.0, 1e-12, Method.ASYMPTOTIC, "expansion"),
    (-45.0, 1.0, 1.5, 1e-14, Method.ASYMPTOTIC, "expansion on the cut"),
    (3.0, 0.5, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature, pole split"),
    (-3.0, 0.5, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature, plain"),
    (-5.0, 1.0, 1.0, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature on the cut"),
    (-5.0, 1.0, 0.6, 1e-14, Method.QUAD_HYPERBOLIC, "quadrature on the cut, beta 0.6"),
    (-4.2, 1.5, 1.0, 1e-14, Method.REDUCTION, "two-pole row"),
    (-3000.0, 2.0, 1.0, 1e-14, Method.REDUCTION, "pair by expansion"),
    (4.2, 1.5, 1.0, 1e-14, Method.REDUCTION, "real sub-points"),
    (-37.5, 2.5, 1.0, 1e-14, Method.REDUCTION, "pair and real sub-point"),
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
    # alpha = 1, z < 0: the pole sits on the branch cut, where quadrature
    # and the expansion's exponential part round to a complex value
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
    calls = []
    monkeypatch.setattr(dispatch, "ml_asymptotic", lambda *a: calls.append(a) or ml_asymptotic(*a))
    res = ml_auto(z, alpha, beta, tol)
    assert res.method is Method.QUAD_HYPERBOLIC
    assert calls == []
    # one step further out the bound lets the expansion run
    assert ml_auto(-15.0, 0.7, 1.0, 1e-12).method is Method.ASYMPTOTIC


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
    # missed its stopping rule there
    alpha, beta, tol, z = case
    if math.log(abs(z)) < log_r_floor(alpha, beta, tol) - 1e-9:
        assert not ml_asymptotic(z, alpha, beta, tol).converged
