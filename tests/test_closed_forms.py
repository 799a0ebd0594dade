"""E[alpha, beta] on the real line where it is elementary: alpha 1 or 2 and an
integer beta <= alpha, where every coefficient 1/Gamma(beta - n*alpha) of the
expansion is 0.  There ml_auto and ml_asymptotic return x**(1-beta) e**x, or
|x|**((1-beta)/2) times cos, sin, cosh or sinh of sqrt|x|, each checked here
against mpmath."""

import math
import sys

import mpmath as mp
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from mp_reference import ml_reference

from mittleff import Method, ml_asymptotic, ml_auto
from mittleff.asymptotic import elementary

# relative to the value, or at alpha = 2, z < 0 to the amplitude |z|**((1-beta)/2)
BOUND = 1e-15


def _trig_reference(x: float, beta: float):
    """E[2, beta](x) = Re (t**m (e**t + (-1)**m e**-t))/2, t = sqrt(x), m = 1 - beta,
    with digits for the integer part of |x| and 30 more."""
    m = int(1.0 - beta)
    with mp.workdps(30 + int(math.log10(1.0 + abs(x)))):
        t = mp.sqrt(mp.mpc(x))
        return mp.re(t**m * (mp.exp(t) + (-1) ** m * mp.exp(-t)) / 2)


def _check(x: float, alpha: float, beta: float) -> None:
    res = ml_auto(x, alpha, beta)
    assert res.method is Method.ASYMPTOTIC and res.nodes_or_terms == 0 and res.converged
    assert res.value.imag == 0.0 and math.copysign(1.0, res.value.imag) == 1.0
    # the forced expansion gives the same bits
    assert ml_asymptotic(x, alpha, beta) == res
    got = res.value.real
    assert not math.isnan(got)
    # ml_reference sums the series at alpha = 2, too slow past |x| ~ 1e4
    want = ml_reference(x, alpha, beta) if alpha == 1.0 or abs(x) <= 1e4 else _trig_reference(x, beta)
    if abs(want) > sys.float_info.max:
        assert got == math.copysign(math.inf, want), (x, alpha, beta)
        return
    scale = abs(x) ** ((1.0 - beta) / 2.0) if alpha == 2.0 and x < 0.0 else abs(want)
    assert abs(got - want) <= BOUND * scale, (x, alpha, beta, float(abs(got - want) / scale))


@st.composite
def _elementary_case(draw) -> tuple:
    alpha = draw(st.sampled_from([1.0, 2.0]))
    beta = float(draw(st.integers(-6, int(alpha))))
    # |x| log-uniform from 1e-8 to 700 (alpha = 1) or 1e30 (alpha = 2), both signs
    log_x = draw(st.floats(math.log(1e-8), math.log(700.0 if alpha == 1.0 else 1e30)))
    return alpha, beta, draw(st.sampled_from([1.0, -1.0])) * math.exp(log_x)


@settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(case=_elementary_case())
@example(case=(1.0, 1.0, -30.0))
@example(case=(1.0, -6.0, -700.0))
@example(case=(1.0, -6.0, 700.0))
@example(case=(2.0, 1.0, -30.0))
# x > 0 at alpha = 2 where cosh sqrt(x) overflows, and the value with it or not
@example(case=(2.0, 2.0, 717.0**2))
@example(case=(2.0, 1.0, 712.0**2))
@example(case=(2.0, -6.0, 1e30))
def test_closed_forms_meet_mpmath(case: tuple) -> None:
    alpha, beta, x = case
    assert elementary(alpha, beta)
    _check(x, alpha, beta)


@pytest.mark.parametrize(
    "x, alpha, beta",
    [
        (-50.0, 1.0, -180.0),  # NaN on the edge row; -6.29e285
        (700.0, 1.0, 1.0),  # e**700, off by 2.3e-13 by the expansion
        (-30.0, 1.0, 0.0),  # 0.12 off on the edge row
        (-20.0, 1.0, -1.0),  # 4.4e-6 off on the edge row
    ],
)
def test_mended_alpha_one_values(x: float, alpha: float, beta: float) -> None:
    _check(x, alpha, beta)


@pytest.mark.parametrize("x", [3e8, 2e16, 3e20, 5e32])
def test_cosine_of_a_large_square_root(x: float) -> None:
    # E[2, 1](-x) = cos(sqrt(x)): the expansion's rounded sqrt cost 4.8e-12 at
    # 3e8 and every digit at 5e32; sqrt(x) = s + r keeps them
    res = ml_auto(-x, 2.0, 1.0)
    with mp.workdps(450):
        want = mp.cos(mp.sqrt(mp.mpf(x)))
    assert res.converged
    assert abs(res.value.real - want) <= 1.3e-16 * abs(want)


def test_past_the_phase_bound_it_says_so() -> None:
    # at x = 1e300 the double x has cos(sqrt(x)) = 0.8517, and s + r misses
    # sqrt(x) by up to 2**-104 * 1e150: no digit is left, and converged says so
    res = ml_auto(-1e300, 2.0, 1.0)
    assert res.method is Method.ASYMPTOTIC
    assert not res.converged
    assert res.err_estimate >= 1.0
    # to rounding up to x ~ 1e35 at the default tol
    assert ml_auto(-1e34, 2.0, 1.0).converged and not ml_auto(-1e36, 2.0, 1.0).converged
