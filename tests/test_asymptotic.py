import cmath
import math

import pytest

from mittleff import asymptotic
from mittleff.asymptotic import TABLE_BLOCK, AsymptoticResult, asymptotic_sigma_tau, ml_asymptotic
from mittleff.exceptions import DomainError

# sign/magnitude factors of the large-|z| expansion terms, alpha=0.7, beta=1
def test_sigma_tau_small_index() -> None:
    sigma, log_tau = asymptotic_sigma_tau(1, 0.7, 1.0)
    assert sigma == 1.0
    assert math.exp(log_tau) == pytest.approx(1.0 / math.gamma(0.3), rel=1e-13)
    sigma, log_tau = asymptotic_sigma_tau(2, 0.7, 1.0)
    # beta - 2 alpha < 0: reflected form
    assert sigma == pytest.approx(-math.sin(math.pi * 0.4), rel=1e-14)
    assert math.exp(log_tau) == pytest.approx(math.gamma(1.4) / math.pi, rel=1e-13)


class TestNegativeAxisTable:
    # estimates frozen from a run whose first four digits were checked
    # against independently computed tau_(m-1) x**-(m-1) values

    @pytest.mark.parametrize(
        "x,m,est,converged",
        [
            (5.0, 15, 1.2088385030645122e-05, False),
            (15.0, 16, 8.237925281101509e-13, True),
            (25.0, 12, 3.6979684666488996e-13, True),
            (35.0, 10, 8.150560185380889e-13, True),
            (45.0, 10, 8.489600108648577e-14, True),
            (55.0, 9, 2.3399376851727326e-13, True),
        ],
    )
    def test_stopping_rule(self, x: float, m: int, est: float, converged: bool) -> None:
        res = ml_asymptotic(complex(-x), 0.7, 1.0, 1e-12)
        assert res.m == m
        assert res.err_estimate == pytest.approx(est, rel=1e-9)
        assert res.converged is converged

    def test_error_within_estimate_when_converged(self) -> None:
        # 250-digit series references
        refs = {15.0: 0.023501440278040012771, 55.0: 0.0061670627218159616104}
        for x, want in refs.items():
            res = ml_asymptotic(complex(-x), 0.7, 1.0, 1e-12)
            assert abs(res.value - want) <= res.err_estimate

    def test_documented_failure_at_small_x(self) -> None:
        want = 0.077569357764769801692
        res = ml_asymptotic(complex(-5.0), 0.7, 1.0, 1e-12)
        assert not res.converged
        assert 1e-6 <= abs(res.value - want) <= 1e-4


class TestNearGammaZero:
    # E[0.3, 0.3](-5), an 80-digit series sum
    WANT = 0.0072751008031549118806

    def test_exact_zero(self) -> None:
        # at beta - alpha = 0 the reflection form gives sigma = 0, tau = 1/pi
        res = ml_asymptotic(complex(-5.0), 0.3, 0.3, 1e-14)
        assert res.converged and res.m == 26
        assert abs(res.value - self.WANT) <= res.err_estimate

    @pytest.mark.parametrize("beta", [0.1 * 3, 0.3 + 1e-15])
    def test_small_coefficient_does_not_stop_the_sum(self, beta: float) -> None:
        # beta - alpha is just above 0, so 1/Gamma(beta - alpha) ~ 5e-17 makes
        # the first term tiny and the second is not; a proxy sized by 1/Gamma
        # stopped there, converged, with 1.1e-17 for 7.3e-3
        res = ml_asymptotic(complex(-5.0), 0.3, beta, 1e-14)
        assert res.converged and res.m == 26
        assert abs(res.value - self.WANT) <= res.err_estimate


class TestExponentialTerm:
    def test_positive_axis_includes_growth(self) -> None:
        want = 8.8671406614324431567e20
        res = ml_asymptotic(complex(15.0), 0.7, 1.0, 1e-12)
        assert res.converged
        assert res.value.real == pytest.approx(want, rel=1e-12)
        assert res.value.imag == 0.0

    def test_beyond_transition_ray_stays_algebraic(self) -> None:
        # |Arg z| > alpha*pi: no exponential contribution, value is O(1/|z|)
        z = 40.0 * cmath.exp(1j * 0.75 * math.pi)  # 0.75 pi > 0.7 pi
        res = ml_asymptotic(z, 0.7, 1.0, 1e-12)
        assert abs(res.value) < 0.1

    def test_alpha_one_recovers_exponential(self) -> None:
        res = ml_asymptotic(complex(5.0), 1.0, 1.0, 1e-12)
        assert res.value.real == pytest.approx(math.exp(5.0), rel=1e-12)


def test_leading_term_far_out() -> None:
    res = ml_asymptotic(complex(-1e6), 0.5, 1.0, 1e-10)
    one_term = 1e-6 / math.gamma(0.5)
    assert res.converged
    assert res.value.real == pytest.approx(one_term, rel=1e-5)
    # 40-digit erfcx reference
    assert res.value.real == pytest.approx(5.64189583547474192156e-7, rel=1e-5)


def test_conjugate_symmetry() -> None:
    z = 20.0 * cmath.exp(0.4j)
    up = ml_asymptotic(z, 0.7, 1.2, 1e-12)
    dn = ml_asymptotic(z.conjugate(), 0.7, 1.2, 1e-12)
    assert dn.value == up.value.conjugate()


def test_result_fields() -> None:
    res = ml_asymptotic(complex(-30.0), 0.5, 1.0, 1e-12)
    assert isinstance(res, AsymptoticResult)
    assert res.m >= 1
    assert res.err_estimate >= 0.0


class TestCoefficientTable:
    # at alpha 0.3, |z| = 3 the expansion runs past 32 terms, across a block boundary
    POINTS = [complex(-3.0), 3.0 * cmath.exp(2.0j), complex(-15.0), complex(20.0, 5.0)]

    def evaluate(self, alpha: float, beta: float, tol: float) -> list:
        return [ml_asymptotic(z, alpha, beta, tol) for z in self.POINTS]

    def test_blocks_hold_the_coefficients(self) -> None:
        for block in (0, 1):
            rows = asymptotic._sigma_tau_block(0.3, 1.1, block)
            assert len(rows) == TABLE_BLOCK
            for n, (sigma, log_tau, log_size) in enumerate(rows, block * TABLE_BLOCK):
                assert (sigma, log_tau) == asymptotic_sigma_tau(n, 0.3, 1.1)
                x = 1.1 - n * 0.3
                assert log_size == (math.lgamma(1.0 - x) - math.log(math.pi) if 0.0 < x < 0.5 else log_tau)

    def test_cold_and_warm_calls_agree(self) -> None:
        asymptotic._sigma_tau_block.cache_clear()
        cold = self.evaluate(0.3, 1.0, 1e-14)
        assert max(r.m for r in cold) > TABLE_BLOCK
        assert cold == self.evaluate(0.3, 1.0, 1e-14)

    def test_call_order_does_not_matter(self) -> None:
        asymptotic._sigma_tau_block.cache_clear()
        first = self.evaluate(0.3, 1.0, 1e-14), self.evaluate(0.3, 1.0, 1e-6)
        asymptotic._sigma_tau_block.cache_clear()
        second_loose = self.evaluate(0.3, 1.0, 1e-6)
        assert (self.evaluate(0.3, 1.0, 1e-14), second_loose) == first

    def test_threads_match_serial(self, in_threads) -> None:
        serial = self.evaluate(0.31, 1.07, 1e-14)
        asymptotic._sigma_tau_block.cache_clear()
        for got in in_threads(lambda: self.evaluate(0.31, 1.07, 1e-14)):
            assert got == serial


class TestValidation:
    def test_zero_z(self) -> None:
        with pytest.raises(DomainError):
            ml_asymptotic(0j, 0.7, 1.0, 1e-12)

    @pytest.mark.parametrize("alpha", [1.2, 0.0, -0.3])
    def test_alpha_out_of_range(self, alpha: float) -> None:
        with pytest.raises(DomainError):
            ml_asymptotic(complex(-30.0), alpha, 1.0, 1e-12)

    def test_bad_tol(self) -> None:
        with pytest.raises(DomainError):
            ml_asymptotic(complex(-30.0), 0.7, 1.0, 0.0)
