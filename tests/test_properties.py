"""Identities checked on derandomized hypothesis examples: the example set is
fixed, so these tests are as deterministic as the rest of the suite."""

import cmath
import math

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from mittleff.dispatch import ml_auto
from mittleff.kernels import reciprocal_gamma

# no explain phase: it writes patch files and imports modules that warn
PROPERTY = settings(
    derandomize=True,
    max_examples=150,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)

moduli = st.floats(0.05, 50.0)
angles = st.floats(-math.pi, math.pi)
betas = st.floats(0.5, 2.0)


@PROPERTY
@given(alpha=st.one_of(st.just(1.0), st.floats(1.0, 3.5)), beta=betas, r=moduli, theta=angles)
def test_conjugate_symmetry(alpha: float, beta: float, r: float, theta: float) -> None:
    # E(conj z) = conj E(z), at alpha = 1 and across the alpha > 1 reduction;
    # relative above |E| = 1, absolute below, where quadrature keeps absolute
    # accuracy only
    z = cmath.rect(r, theta)
    up = ml_auto(z, alpha, beta).value
    down = ml_auto(z.conjugate(), alpha, beta).value
    assert abs(down - up.conjugate()) <= 1e-13 * max(1.0, abs(up))


@PROPERTY
@given(
    alpha=st.floats(0.2, 3.0),
    beta=betas,
    r=moduli,
    theta=st.one_of(st.just(0.0), st.just(math.pi), angles),
)
def test_beta_recurrence(alpha: float, beta: float, r: float, theta: float) -> None:
    # E[a,b](z) = 1/Gamma(b) + z E[a,a+b](z), to 1e-12 of the larger side plus
    # the error each evaluation reports: contour quadrature loses digits as
    # a + b grows (4e-11 relative near a + b = 5), and says so
    z = cmath.rect(r, theta)
    left = ml_auto(z, alpha, beta)
    shifted = ml_auto(z, alpha, alpha + beta)
    # past the overflow of exp(z**(1/a)) both sides are inf and nothing is checked
    assume(cmath.isfinite(left.value) and cmath.isfinite(shifted.value))
    head, tail = reciprocal_gamma(beta), z * shifted.value
    scale = max(abs(left.value), abs(head), abs(tail))
    allowed = 1e-12 * scale + left.err_estimate + abs(z) * shifted.err_estimate
    assert abs(left.value - (head + tail)) <= allowed
