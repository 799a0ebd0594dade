import cmath
import math

import pytest

from mp_reference import ml_reference

from mittleff import series
from mittleff.dispatch import ml_auto
from mittleff.exceptions import DomainError
from mittleff.kernels import reciprocal_gamma
from mittleff.quadrature import EvalResult, Method
from mittleff.series import DEFAULT_MAX_TERMS, TABLE_BLOCK, ml_series


class TestKnownValues:
    def test_zero_argument_one_term(self) -> None:
        res = ml_series(0.0, 0.7, 1.3, tol=1e-15)
        assert res.value == complex(reciprocal_gamma(1.3))
        assert res.nodes_or_terms == 1
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


class TestNearGammaPole:
    # beta + alpha = -1 + 2.2e-16 sits next to the pole of Gamma at -1, so
    # 1/Gamma there is about 2e-16 while the next coefficient is not; a test
    # sized by 1/Gamma stopped after 1 term, converged, with 0.4231 for 2.9500
    BETA = -1.5 + 2.2e-16

    def test_small_coefficient_does_not_stop_the_sum(self) -> None:
        want = ml_reference(0.9, 0.5, self.BETA)
        for res in (ml_series(0.9, 0.5, self.BETA, tol=1e-14), ml_auto(0.9, 0.5, self.BETA)):
            assert res.converged
            assert abs(res.value - want) <= 1e-12 * abs(want)
            assert res.err_estimate <= 1e-13

    def test_envelope_sizes_the_estimate(self) -> None:
        # alpha = 0.01 at z = 0.99 needs more than the 250 terms of the cap, and
        # term 250 sits next to the pole at -1, where 1/Gamma is -4e-16: the
        # estimate is |z|**250 * Gamma(2)/pi, not that coefficient's size
        beta = math.nextafter(-3.5, 0.0)
        assert abs(reciprocal_gamma(beta + DEFAULT_MAX_TERMS * 0.01)) < 1e-15
        res = ml_series(0.99, 0.01, beta)
        assert not res.converged and res.nodes_or_terms == DEFAULT_MAX_TERMS
        assert res.err_estimate == pytest.approx(0.99**DEFAULT_MAX_TERMS / math.pi, rel=1e-12)


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
    def test_error_estimate_decays_while_unconverged(self, monkeypatch, alpha: float, beta: float) -> None:
        # strict decay needs |z| bounded away from 1; the cap is read at each call
        z = 0.9
        prev = math.inf
        for cap in range(1, 13):
            monkeypatch.setattr(series, "DEFAULT_MAX_TERMS", cap)
            res = ml_series(z, alpha, beta, tol=1e-200)
            assert not res.converged
            assert res.err_estimate < prev
            prev = res.err_estimate

    def test_unconverged_flag(self) -> None:
        # alpha = 0.01 at z = 0.99 needs more terms than the cap
        res = ml_series(0.99, 0.01, 1.0, tol=1e-15)
        assert not res.converged
        assert res.nodes_or_terms == DEFAULT_MAX_TERMS
        assert res.err_estimate >= 1e-15

    @pytest.mark.parametrize("z, alpha, beta", [(-1j, 0.3, -200.0), (-1e-8 + 1.7e308j, 0.05, 0.0)])
    def test_nan_value_is_not_converged(self, z: complex, alpha: float, beta: float) -> None:
        # an infinite term met an infinite |sum|, inf <= tol*inf: the NaN
        # value was reported converged
        res = ml_series(z, alpha, beta)
        assert cmath.isnan(res.value)
        assert not res.converged

    def test_nan_series_falls_through_to_quadrature(self) -> None:
        # 1/Gamma(-199.7) is inf: ml_auto returned nan-infj from the series;
        # quadrature's node factors overflow at beta = -200 and say so
        with pytest.raises(DomainError, match="overflow"):
            ml_auto(-1j, 0.3, -200.0)

    def test_result_is_frozen(self) -> None:
        res = ml_series(0.5, 0.5, 1.0)
        assert isinstance(res, EvalResult)
        assert res._fields == ("value", "method", "nodes_or_terms", "err_estimate", "converged")
        assert res.method is Method.SERIES
        assert hash(res) == hash(ml_series(0.5, 0.5, 1.0))
        with pytest.raises(AttributeError):
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
        assert max(r.nodes_or_terms for r in cold) > TABLE_BLOCK
        assert cold == self.evaluate(0.3, 1.1, tol=1e-15)

    def test_call_order_does_not_matter(self) -> None:
        loose = {"tol": 1e-6}
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

    @pytest.mark.parametrize("alpha, beta", [(0.5, math.nan), (math.inf, 1.0), (math.nan, 1.0), (0.5, -math.inf)])
    def test_nonfinite_alpha_or_beta(self, alpha: float, beta: float) -> None:
        # a NaN beta and an infinite alpha returned NaN
        with pytest.raises(DomainError, match="finite"):
            ml_series(0.5, alpha, beta)

    def test_bad_tol(self) -> None:
        with pytest.raises(DomainError):
            ml_series(1.0, 1.0, 1.0, tol=0.0)

    def test_nan_tol(self) -> None:
        with pytest.raises(DomainError):
            ml_series(1.0, 1.0, 1.0, tol=math.nan)

    def test_infinite_tol(self) -> None:
        # passed the old tol > 0 test: ml_series(0.5, 0.5, 1, tol=inf) returned 1.0
        # after one term, converged, where E[1/2, 1](0.5) = 1.952
        with pytest.raises(DomainError, match="finite"):
            ml_series(0.5, 0.5, 1.0, tol=math.inf)

    @pytest.mark.parametrize(
        "z",
        # the last is finite, but |z| overflows: abs(z) raised a bare OverflowError
        [complex("nan"), complex(1.0, math.nan), complex(-math.inf), complex(0.0, math.inf), complex(1.5e308, 1.5e308)],
    )
    def test_nonfinite_z(self, z: complex) -> None:
        with pytest.raises(DomainError):
            ml_series(z, 0.5, 1.0)
