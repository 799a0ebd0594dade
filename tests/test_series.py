import cmath
import math

import pytest

from mittleff import series
from mittleff.exceptions import DomainError
from mittleff.kernels import reciprocal_gamma
from mittleff.series import TABLE_BLOCK, SeriesResult, ml_derivative, ml_series


class TestKnownValues:
    def test_zero_argument_one_term(self) -> None:
        res = ml_series(0.0, 0.7, 1.3, tol=1e-15)
        assert res.value == complex(reciprocal_gamma(1.3))
        assert res.terms_used == 1
        assert res.converged

    def test_exponential(self) -> None:
        res = ml_series(1.0, 1.0, 1.0, tol=1e-15)
        assert res.value.real == pytest.approx(math.e, rel=1e-13)
        assert res.value.imag == 0.0
        assert res.converged

    def test_cosh_sqrt(self) -> None:
        res = ml_series(4.0, 2.0, 1.0, tol=1e-15)
        assert res.value.real == pytest.approx(math.cosh(2.0), rel=1e-13)

    def test_frozen_reference_point(self) -> None:
        # series of Gamma ratios summed at 60 digits, rounded once
        want = complex(1.9754425197534896307, 0.45471166241726755775)
        got = ml_series(complex(0.6, 0.2), 0.7, 1.3, tol=1e-15).value
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_gamma_pole_terms_are_skipped(self) -> None:
        # beta = -1 kills the n = 0, 1 terms, leaving z**2 * e**z
        z = complex(0.7, 0.3)
        want = z * z * cmath.exp(z)
        got = ml_series(z, 1.0, -1.0, tol=1e-15).value
        assert abs(got - want) <= 1e-12 * abs(want)


class TestProperties:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("beta", [0.8, 1.0, 1.5])
    def test_beta_shift_identity(self, alpha: float, beta: float) -> None:
        # E[a, b-a](z) = 1/Gamma(b-a) + z E[a, b](z)
        for z in [complex(0.3, 0.4), complex(-0.8), complex(1.0), complex(0.5, -0.5), 1.0j]:
            left = ml_series(z, alpha, beta - alpha, tol=1e-15).value
            right = reciprocal_gamma(beta - alpha) + z * ml_series(z, alpha, beta, tol=1e-15).value
            assert abs(left - right) <= 1e-12

    @pytest.mark.parametrize("z", [complex(0.3, 0.8), complex(-0.5, 0.2), complex(0.9, -0.1)])
    def test_conjugate_symmetry_exact(self, z: complex) -> None:
        assert ml_series(z.conjugate(), 0.7, 1.2, tol=1e-15).value == ml_series(
            z, 0.7, 1.2, tol=1e-15
        ).value.conjugate()

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.8), (0.7, 1.5), (0.5, 1.0)])
    def test_error_estimate_decays_while_unconverged(self, alpha: float, beta: float) -> None:
        # strict decay needs |z| bounded away from 1
        z = 0.9
        prev = math.inf
        for cap in range(1, 13):
            res = ml_series(z, alpha, beta, tol=1e-200, max_terms=cap)
            assert not res.converged
            assert res.err_estimate < prev
            prev = res.err_estimate

    def test_unconverged_flag(self) -> None:
        res = ml_series(5.0, 0.2, 1.0, tol=1e-15, max_terms=10)
        assert not res.converged
        assert res.terms_used == 10
        assert res.err_estimate >= 1e-15

    def test_result_is_frozen(self) -> None:
        res = ml_series(0.5, 0.5, 1.0)
        assert isinstance(res, SeriesResult)
        with pytest.raises(Exception):
            res.value = 0.0  # type: ignore[misc]


class TestCoefficientTable:
    # 0.95+0.2j needs 54 terms at alpha 0.3, so the sums cross a block boundary
    POINTS = [complex(0.3, 0.4), complex(-0.9), complex(0.95, 0.2), complex(0.5, -0.7)]

    def evaluate(self, alpha: float, beta: float, **kw) -> list:
        return [ml_series(z, alpha, beta, **kw) for z in self.POINTS]

    def test_blocks_hold_the_reciprocal_gammas(self) -> None:
        block = series._rgamma_block(0.3, 1.1, 1)
        assert len(block) == TABLE_BLOCK
        assert block == tuple(reciprocal_gamma(1.1 + n * 0.3) for n in range(TABLE_BLOCK, 2 * TABLE_BLOCK))

    def test_cold_and_warm_calls_agree(self) -> None:
        series._rgamma_block.cache_clear()
        cold = self.evaluate(0.3, 1.1, tol=1e-15)
        assert max(r.terms_used for r in cold) > TABLE_BLOCK
        assert cold == self.evaluate(0.3, 1.1, tol=1e-15)

    def test_call_order_does_not_matter(self) -> None:
        loose = {"tol": 1e-6, "max_terms": 5}
        series._rgamma_block.cache_clear()
        first = self.evaluate(0.3, 1.1, tol=1e-15), self.evaluate(0.3, 1.1, **loose)
        series._rgamma_block.cache_clear()
        second_loose = self.evaluate(0.3, 1.1, **loose)
        assert (self.evaluate(0.3, 1.1, tol=1e-15), second_loose) == first

    def test_threads_match_serial(self, in_threads) -> None:
        serial = self.evaluate(0.29, 1.13, tol=1e-15)
        series._rgamma_block.cache_clear()
        for got in in_threads(lambda: self.evaluate(0.29, 1.13, tol=1e-15)):
            assert got == serial


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_bad_alpha(self, alpha: float) -> None:
        with pytest.raises(DomainError):
            ml_series(1.0, alpha, 1.0)

    def test_bad_tol(self) -> None:
        with pytest.raises(DomainError):
            ml_series(1.0, 1.0, 1.0, tol=0.0)

    def test_bad_max_terms(self) -> None:
        with pytest.raises(DomainError):
            ml_series(1.0, 1.0, 1.0, max_terms=0)


class TestDerivative:
    def test_at_zero(self) -> None:
        assert ml_derivative(0.0, 0.5, 1.0) == complex(reciprocal_gamma(1.5))

    def test_exponential(self) -> None:
        got = ml_derivative(1.0, 1.0, 1.0)
        assert abs(got - math.e) <= 1e-12 * math.e

    def test_against_finite_difference(self) -> None:
        from mittleff.dispatch import ml_auto

        z, h = -2.0, 1e-5
        fd = (ml_auto(complex(z + h), 0.5, 1.0).value - ml_auto(complex(z - h), 0.5, 1.0).value) / (
            2.0 * h
        )
        got = ml_derivative(complex(z), 0.5, 1.0)
        assert abs(got - fd) <= 1e-6
