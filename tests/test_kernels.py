import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mittleff import ml_asymptotic, ml_auto
from mittleff.contours import build_parabolic_rule
from mittleff.exceptions import DomainError
from mittleff.kernels import (
    cexp,
    cpow_principal,
    gamma_real,
    on_sheet,
    pole_turns,
    principal_arg,
    psi1,
    psi2,
    reciprocal_gamma,
)
from mittleff.engine import _psi_form
from mittleff.quadrature import EPS_SWITCH, _node_factors, _psi_rows, f_one


class TestGammaReal:
    def test_known_values(self) -> None:
        assert gamma_real(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_real(2.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-14)
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        # reflection region
        assert gamma_real(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
        assert gamma_real(-1.5) == pytest.approx(4.0 / 3.0 * math.sqrt(math.pi), rel=1e-13)

    def test_against_stdlib_grid(self) -> None:
        # mpmath is an independent reference; 13 digits everywhere tested,
        # up to x = 170 where Gamma is within a factor 1e2 of overflow
        xs = [0.5 + i * 0.1 for i in range(0, 1696)]
        xs += [-0.05 - i * 0.1 for i in range(1, 200)]  # negative, never integral
        with mp.workdps(30):
            for x in xs:
                assert gamma_real(x) == pytest.approx(float(mp.gamma(x)), rel=1e-13, abs=0.0)

    def test_overflow_is_inf(self) -> None:
        assert gamma_real(200.0) == math.inf
        assert gamma_real(171.7) == math.inf

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -10.0])
    def test_pole_raises(self, x: float) -> None:
        with pytest.raises(DomainError):
            gamma_real(x)

    def test_recurrence(self) -> None:
        x = 0.5
        while x < 20.0:
            assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-13)
            x += 0.25


class TestReciprocalGamma:
    @pytest.mark.parametrize("x", [0.0, -1.0, -3.0, -17.0])
    def test_exact_zero_at_poles(self, x: float) -> None:
        assert reciprocal_gamma(x) == 0.0

    def test_simple_values(self) -> None:
        assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-14)
        assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_large_argument_keeps_relative_accuracy(self) -> None:
        # 2.6e-261, far above the underflow threshold: no reason to lose digits
        with mp.workdps(30):
            assert reciprocal_gamma(150.0) == pytest.approx(float(mp.rgamma(150)), rel=1e-14, abs=0.0)
            # past Gamma's overflow at 171.6 the value is subnormal, not 0
            assert reciprocal_gamma(175.0) == pytest.approx(float(mp.rgamma(175)), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("x", [2.6e305, 1e306, 1.7976931348623157e308])
    def test_past_the_overflow_of_lgamma_is_zero(self, x: float) -> None:
        # math.lgamma overflows from x ~ 2.6e305 on, where 1/Gamma is 0.0: this
        # raised a bare OverflowError
        assert reciprocal_gamma(x) == 0.0

    def test_product_identity(self) -> None:
        xs = [0.5 + 0.3 * i for i in range(40)] + [-0.25 - 0.5 * i for i in range(20)]
        for x in xs:
            assert reciprocal_gamma(x) * gamma_real(x) == pytest.approx(1.0, rel=1e-13)


class TestCpowPrincipal:
    def test_examples(self) -> None:
        assert cpow_principal(4.0 + 0.0j, 0.5) == pytest.approx(2.0 + 0.0j, abs=1e-15)
        assert cpow_principal(-1.0 + 0.0j, 0.5) == pytest.approx(1.0j, abs=1e-15)
        assert cpow_principal(1.0j, 2.0) == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    def test_zero_base(self) -> None:
        assert cpow_principal(0.0j, 0.5) == 0.0j
        assert cpow_principal(0.0j, 3.0) == 0.0j
        with pytest.raises(DomainError):
            cpow_principal(0.0j, 0.0)
        with pytest.raises(DomainError):
            cpow_principal(0.0j, -1.0)

    def test_negative_axis_uses_upper_branch(self) -> None:
        # Arg(-1) = +pi regardless of the sign of a zero imaginary part
        up = cpow_principal(complex(-1.0, 0.0), 0.5)
        dn = cpow_principal(complex(-1.0, -0.0), 0.5)
        assert up == dn
        assert up.imag == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("a", [0.5, -0.3, 2.0, 1.7, -2.25])
    @pytest.mark.parametrize(
        "w",
        [complex(2, 3), complex(-1.5, 0.7), complex(0.01, -4), complex(-3, -0.2)],
    )
    def test_conjugate_symmetry(self, w: complex, a: float) -> None:
        assert cpow_principal(w.conjugate(), a) == cpow_principal(w, a).conjugate()


class TestCexp:
    def test_real_overflow_keeps_zero_imaginary_part(self) -> None:
        got = cexp(800.0 + 0.0j)
        assert got == complex(math.inf, 0.0)
        assert got.imag == 0.0

    def test_complex_overflow_saturates_both_parts(self) -> None:
        got = cexp(complex(800.0, 3.0))
        assert got.real == -math.inf and got.imag == math.inf


class TestPrincipalArg:
    def test_values(self) -> None:
        assert principal_arg(1.0 + 0.0j) == 0.0
        assert principal_arg(1.0j) == pytest.approx(math.pi / 2)
        assert principal_arg(-1.0j) == pytest.approx(-math.pi / 2)
        assert principal_arg(complex(-1.0, 0.0)) == math.pi
        assert principal_arg(complex(-1.0, -0.0)) == math.pi

    def test_underflowing_argument_is_zero(self) -> None:
        # |Im z| tiny against |Re z|: atan2 underflows, where cmath.phase
        # raised OverflowError
        for z in (1e153 + 2.4e-273j, 1.7e308 - 5e-324j, 2 + 5e-324j):
            with pytest.raises(OverflowError):
                cmath.phase(z)
        assert principal_arg(1e153 + 2.4e-273j).hex() == (0.0).hex()
        assert principal_arg(1.7e308 - 5e-324j).hex() == (-0.0).hex()
        assert principal_arg(-1.7e308 - 5e-324j) == -math.pi

    @pytest.mark.parametrize("z", [3 + 4j, -3 + 4j, -3 - 4j, 1e-300 - 1e300j, 1e-310j, -1e300 + 1e-10j])
    def test_same_bits_as_phase(self, z: complex) -> None:
        assert principal_arg(z).hex() == cmath.phase(z).hex()

    def test_underflowing_argument_does_not_raise(self) -> None:
        # each input raised a bare OverflowError from principal_arg
        for z, alpha, beta in [(1e153 + 2.4e-273j, 0.0057, -0.94), (1.7e308 - 5e-324j, 0.001, 0.0)]:
            res = ml_auto(z, alpha, beta)
            assert cmath.isinf(res.value) and not cmath.isnan(res.value)
        got = ml_asymptotic(2 + 5e-324j, 1.5, 2.0, 1e-14)
        real = ml_asymptotic(2.0, 1.5, 2.0, 1e-14)
        assert abs(got.value - real.value) <= 1e-15 * abs(real.value)
        assert (got.nodes_or_terms, got.converged) == (real.nodes_or_terms, real.converged)


class TestPsiKernels:
    def test_psi1_at_zero_is_exact(self) -> None:
        assert psi1(0.0j, 0.7) == complex(0.7)
        assert psi1(0.0j, -1.3) == complex(-1.3)

    def test_psi1_half_step(self) -> None:
        assert psi1(0.5 + 0.0j, 1.0) == 1.0 + 0.0j

    def test_psi1_tiny_eps(self) -> None:
        # oracle: 3-term binomial series a + a(a-1)/2 e + a(a-1)(a-2)/6 e^2
        # evaluated at double precision, frozen
        got = psi1(1e-8 + 0.0j, 0.5)
        assert abs(got - 0.49999999875) <= 1e-16 * 0.49999999875
        assert got.imag == 0.0

    def test_psi2_at_zero_is_exact(self) -> None:
        for a in (0.3, 0.7, 2.0, -0.5):
            assert psi2(0.0j, a) == complex(0.5 * a * (a - 1.0))

    def test_psi2_tiny_eps(self) -> None:
        # oracle: 3-term binomial series at double precision, frozen
        got = psi2(1e-6 + 0.0j, 0.7)
        assert abs(got - (-0.10499995450002617)) <= 1e-14 * 0.10499995450002617

    def test_identity_psi1_psi2(self) -> None:
        # psi1(e, a) = a + e*psi2(e, a)
        eps_values = [1e-12, 1e-6, 1e-3, 0.1, -0.4, 0.3 + 0.2j, 0.49j]
        for a in (0.3, 0.5, 0.7, 1.0, 1.5, -0.25):
            for e in eps_values:
                lhs = psi1(e, a)
                rhs = a + e * psi2(e, a)
                assert abs(lhs - rhs) <= 1e-15 * max(1.0, abs(lhs))

    # the kernels serve |eps| < EPS_SWITCH = 0.1 only: outside |eps| <= 1/2
    # the series would converge slowly, or not at all
    @pytest.mark.parametrize(
        "eps", [1.5 + 0.0j, -1.0 + 0.0j, 1.2j, complex(0.9, 0.9), 0.6 + 0.0j, 0.8j, 1.0 + 0.0j, 1j]
    )
    def test_domain_errors(self, eps: complex) -> None:
        with pytest.raises(DomainError):
            psi1(eps, 0.5)
        with pytest.raises(DomainError):
            psi2(eps, 0.5)


_HALF_DISK = st.one_of(
    st.builds(cmath.rect, st.floats(0.0, 0.5), st.floats(-math.pi, math.pi)),
    st.floats(-0.5, 0.5).map(complex),
)


@settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(eps=_HALF_DISK, a=st.floats(-3.0, 3.0))
def test_psi_kernels_against_mpmath(eps: complex, a: float) -> None:
    # the binomial series on the whole disk |eps| <= 1/2, complex and real eps,
    # against the direct formulas with 50 digits to spare after their
    # cancellation, which costs psi2 twice the digits of eps (limits at eps = 0)
    if abs(eps) > 0.5:  # rect rounds |eps| up past 1/2 at the rim
        eps /= 1.0 + 1e-15
    with mp.workdps(50 + 2 * max(0, -math.floor(math.log10(abs(eps) or 1.0)))):
        e, am = mp.mpc(eps), mp.mpf(a)
        if e == 0:
            refs = (am, am * (am - 1) / 2)
        else:
            refs = (((1 + e) ** am - 1) / e, ((1 + e) ** am - (1 + am * e)) / e**2)
        refs = tuple(complex(r) for r in refs)
    for got, ref in zip((psi1(eps, a), psi2(eps, a)), refs):
        assert abs(got - ref) <= 4e-15 * max(1.0, abs(ref)), (eps, a)


_U = 2.0**-53
# the node factors carry w**(alpha - beta); on the parabolic rule with N = 4,
# the smallest the quadrature tests sum with, they overflow past
# alpha - beta = 302.25
_WIDEST_A = 302.0
_PAR4 = build_parabolic_rule(4)

_SWITCH_DISK = st.one_of(
    st.builds(cmath.rect, st.floats(0.0, EPS_SWITCH), st.floats(-math.pi, math.pi)),
    st.floats(-EPS_SWITCH, EPS_SWITCH).map(complex),
)


def _horner(row: list, eps: complex) -> complex:
    acc = 0j
    for coeff in reversed(row):
        acc = acc * eps + coeff
    return acc


def _abs_terms(a: float, k0: int, r: float) -> float:
    # sum_m |binom(a, m + k0)| r**m over the first 400 terms
    coeff = 1.0
    for k in range(k0):
        coeff *= (a - k) / (k + 1.0)
    total, rm = 0.0, 1.0
    for m in range(400):
        total += abs(coeff) * rm
        coeff *= (a - m - k0) / (m + k0 + 1.0)
        rm *= r
    return total


def test_widest_beta_of_the_node_factors() -> None:
    # the sweep below reaches the widest beta that _node_factors accepts
    alpha = 4.0
    _node_factors(_PAR4, alpha, alpha - _WIDEST_A)
    with pytest.raises(DomainError):
        _node_factors(_PAR4, alpha, alpha - _WIDEST_A - 0.5)


@settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(
    eps=_SWITCH_DISK,
    # below about 1e-300 psi2(eps, alpha) is subnormal, and the reference
    # psi2/alpha has lost its digits
    alpha=st.floats(1e-300, 4.0),
    beta=st.floats(-3.0, 6.0) | st.floats(-_WIDEST_A, -3.0),
    gamma=st.builds(cmath.rect, st.floats(0.1, 10.0), st.floats(-3.0, 3.0)),
)
def test_psi_rows_against_kernels(eps: complex, alpha: float, beta: float, gamma: complex) -> None:
    # quadrature's psi form sums two cached rows; the adaptive psi1 and psi2
    # are their reference on the switch disk |eps| < EPS_SWITCH, to a few
    # ulps of the sum of |terms| of the binomial series behind them
    if abs(eps) >= EPS_SWITCH:  # rect rounds |eps| up at the rim
        eps *= 1.0 - 1e-15
    beta = max(beta, alpha - _WIDEST_A)
    a = alpha - beta
    pairs = _psi_rows(alpha, beta)
    assert len(pairs) <= 400  # the loop stopped before its 400-term cap
    num_row, psi1_row = zip(*reversed(pairs))  # each row from the lowest power up
    psi2_scale = _abs_terms(alpha, 2, abs(eps))
    num_scale = _abs_terms(a, 1, abs(eps)) + psi2_scale / alpha
    num = psi1(eps, a) - psi2(eps, alpha) / alpha
    psi1_alpha = psi1(eps, alpha)
    assert abs(_horner(num_row, eps) - num) <= 16 * _U * num_scale, (eps, alpha, beta)
    assert abs(_horner(psi1_row, eps) - psi1_alpha) <= 16 * _U * (alpha + abs(eps) * psi2_scale)
    # the engine sums the same rows in numpy; gamma**beta adds |beta log gamma|
    # ulps.  f_one divides by gamma**beta * psi1 ~ alpha, which may underflow
    # for tiny alpha, and takes its offset from w = gamma*(1 + eps), which may
    # round out of the disk at the rim
    w = gamma * (1.0 + eps)
    eps_w = (w - gamma) / gamma
    if alpha < 0.01 or abs(eps_w) >= EPS_SWITCH:
        return
    log_gamma = cmath.log(gamma)
    with np.errstate(over="ignore"):
        engine = _psi_form(np.array([eps_w]), np.array([log_gamma]), alpha, beta)[0]
    floats = f_one(w, alpha, beta, gamma)
    if cmath.isinf(floats):
        # beta far below 0 at |gamma| > 1: the quotient overflows in both forms
        assert cmath.isinf(engine), (eps, alpha, beta, gamma)
        return
    den = abs(cmath.exp(beta * log_gamma) * psi1_alpha)
    assert abs(engine - floats) <= 16 * _U * num_scale / den * (1.0 + abs(beta * log_gamma))


class TestPrincipalSheetPoles:
    """gamma_k = exp((log z + 2 pi i k)/alpha), k != 0, on the sheet where
    -alpha < Arg(z)/pi + 2k <= alpha."""

    @staticmethod
    def poles(z: complex, alpha: float) -> list[int]:
        turns = principal_arg(z) / math.pi
        first = [0] if abs(principal_arg(z)) <= alpha * math.pi else []
        return first + [k for k in pole_turns(alpha) if on_sheet(turns, k, alpha)]

    @pytest.mark.parametrize(
        "z, alpha, want",
        [
            (3.0, 0.7, [0]),
            (-3.0, 0.7, []),
            (-3.0, 1.0, [0]),
            (-3.0 - 1e-300j, 1.0, [0]),
            (-3.0, 1.5, [0, -1]),
            (3.0, 1.5, [0]),
            (3.0, 2.0, [0, 1]),
            (-3.0, 2.0, [0, -1]),
            (-3.0, 3.0, [0, -1, 1]),
            (3.0, 3.0, [0, -1, 1]),
            (3.0, 4.0, [0, -1, 1, 2]),
            (3.0j, 3.7, [0, -2, -1, 1]),
        ],
    )
    def test_pole_sets(self, z: complex, alpha: float, want: list) -> None:
        # integer alpha: w**alpha = z has alpha roots, one on the cut counted once
        assert self.poles(complex(z), alpha) == want

    def test_arrays(self) -> None:
        turns = np.array([0.0, 1.0, 0.5, -0.5])
        assert on_sheet(turns, -1, 1.5).tolist() == [False, True, False, False]
        assert on_sheet(turns, 1, 1.5).tolist() == [False, False, False, True]
