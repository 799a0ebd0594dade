"""The reference against itself: its power series meets its closed forms."""

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mp_reference import _series, ml_reference

# (alpha, beta) where ml_reference takes a closed form: e**(z**2) erfc(-z),
# 1F1(1; beta; z)/Gamma(beta), and z**m e**z at beta = 0 and -1, whose first
# coefficients 1/Gamma(beta + n) are exactly 0
CLOSED = st.one_of(
    st.just((0.5, 1.0)),
    st.tuples(st.just(1.0), st.floats(0.5, 3.0)),
    st.sampled_from([(1.0, 0.0), (1.0, -1.0)]),
)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(
    pair=CLOSED,
    rho=st.floats(0.0, 200.0),
    arg=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(-math.pi, math.pi)),
)
def test_series_meets_the_closed_forms(pair, rho: float, arg: float) -> None:
    # |z|**(1/alpha) = rho: the largest term is about e**rho, far above |E|
    # where the sum cancels; arg 0 and pi are the real axis
    alpha, beta = pair
    r = rho**alpha
    z = {0.0: r, math.pi: -r}.get(arg, cmath.rect(r, arg))
    want = ml_reference(z, alpha, beta)
    assert abs(_series(z, alpha, beta) - want) <= 1e-25 * abs(want)


@pytest.mark.parametrize("z, beta", [(0.9, -1.5 + 2.2e-16), (0.5, 150.0)])
def test_half_alpha_meets_its_even_and_odd_terms(z: float, beta: float) -> None:
    # E[1/2, beta](z) = E[1, beta](z**2) + z E[1, beta + 1/2](z**2), both in
    # closed form.  At beta = -1.5 + 2.2e-16 the coefficient 1/Gamma(beta + 1/2)
    # is about 2e-16, and E[1/2, 150](1/2) = 2.7e-261, where a stopping rule
    # with an absolute floor keeps only the first term
    with mp.workdps(40):
        z2 = mp.mpf(z) ** 2  # exact
        want = ml_reference(z2, 1.0, beta) + z * ml_reference(z2, 1.0, beta + 0.5)
    assert abs(ml_reference(z, 0.5, beta) - want) <= 1e-25 * abs(want)
