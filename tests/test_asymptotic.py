import cmath
import math
import sys
from bisect import bisect_right

import mpmath as mp
import pytest

from mp_reference import ml_reference

from mittleff import asymptotic, dispatch, quadrature
from mittleff.asymptotic import TABLE_BLOCK, asymptotic_sigma_tau, ml_asymptotic
from mittleff.dispatch import ml_auto
from mittleff.exceptions import DomainError
from mittleff.quadrature import EvalResult, Method

# sign/magnitude factors of the large-|z| expansion terms, alpha=0.7, beta=1
def test_sigma_tau_small_index() -> None:
    sigma, log_tau = asymptotic_sigma_tau(1, 0.7, 1.0)
    assert sigma == 1.0
    assert math.exp(log_tau) == pytest.approx(1.0 / math.gamma(0.3), rel=1e-13)
    sigma, log_tau = asymptotic_sigma_tau(2, 0.7, 1.0)
    # beta - 2 alpha < 0: reflected form
    assert sigma == pytest.approx(-math.sin(math.pi * 0.4), rel=1e-14)
    assert math.exp(log_tau) == pytest.approx(math.gamma(1.4) / math.pi, rel=1e-13)


class TestExactZeroCoefficients:
    """Where n*alpha - beta is a nonnegative integer, 1/Gamma(beta - n*alpha) is 0."""

    @pytest.mark.parametrize("n, alpha, beta", [(1, 1.0, 1.0), (3, 1.0, 0.0), (4, 0.5, 1.0), (2, 1.0, -1)])
    def test_sigma_is_exactly_zero(self, n: int, alpha: float, beta: float) -> None:
        # -sin(pi*k) rounds to about k*1e-16; an int beta takes the same path
        assert asymptotic_sigma_tau(n, alpha, beta)[0] == 0.0

    @pytest.mark.parametrize("x", [50.0, 100.0, 300.0, 700.0])
    @pytest.mark.parametrize("beta", [1.0, 0.0, -1.0])
    def test_alpha_one_is_the_closed_form(self, beta: float, x: float) -> None:
        # E[1, beta](-x) = x**(1-beta) * e**-x * (-1)**(1-beta) for beta in
        # {1, 0, -1}; the rounding noise of sigma_n gave ml_auto(-100, 1, 1)
        # = 4.06e-21 against e**-100 = 3.72e-44, with converged True.  The
        # bound is e**-x's own conditioning: x * eps from the rounding of the
        # exponent
        want = ml_reference(-x, 1.0, beta)
        res = ml_auto(-x, 1.0, beta)
        assert res.method is Method.ASYMPTOTIC and res.converged
        assert res.value.imag == 0.0
        assert abs(res.value.real - want) <= 1e-15 * x * abs(want)


class TestOverflow:
    """A sum whose terms overflow is the signed infinity of its largest term, never NaN."""

    @pytest.mark.parametrize("x, beta", [(500.0, -300.0), (500.0, -200.0), (200.0, -300.0), (1000.0, -300.0), (5000.0, -300.0)])
    def test_overflowing_terms_give_inf(self, x: float, beta: float) -> None:
        # term 1, (1/x)/Gamma(beta - 1/2), is about -1e612 at (500, -300) and
        # far larger than the rest; the alternating infinite terms gave inf -
        # inf = NaN, with converged True
        first = mp.rgamma(beta - 0.5) / x
        assert first < -sys.float_info.max
        res = ml_asymptotic(complex(-x), 0.5, beta, 1e-14)
        assert res.value == complex(-math.inf) and res.converged
        routed = ml_auto(-x, 0.5, beta)
        assert routed.method is Method.ASYMPTOTIC and routed.value == complex(-math.inf)

    @pytest.mark.parametrize(
        "evaluate, x, beta",
        [(ml_auto, 268910.2644835836, -172.7), (ml_asymptotic, 118.2299932081627, -171.2)],
    )
    def test_a_term_below_the_float_limit_is_summed(self, evaluate, x: float, beta: float) -> None:
        # the largest term's log lies between 709 and log(max float): counted
        # as infinite from 709 on, it made the value inf.  A z < 0 with
        # alpha < 1 has no pole on the sheet, so E is the algebraic sum alone
        with mp.workdps(50):
            want, n = mp.mpf(0), 1
            while True:
                term = -mp.power(-x, -n) * mp.rgamma(beta - n * 0.5)
                want += term
                if n > 10 and abs(term) < mp.mpf(10) ** -40 * abs(want):
                    break
                n += 1
        assert mp.mpf("7e307") < abs(want) < sys.float_info.max
        res = evaluate(-x, 0.5, beta)
        assert res.method is Method.ASYMPTOTIC and res.converged
        assert res.value.imag == 0.0 and abs(res.value.real - want) <= 1e-12 * abs(want)

    def test_complex_overflow_has_no_nan_part(self) -> None:
        res = ml_asymptotic(-500j, 0.5, -300.0, 1e-14)
        assert cmath.isinf(res.value) and not cmath.isnan(res.value)

    def test_vanishing_coefficient_of_an_infinite_term_adds_zero(self) -> None:
        # alpha = 1, integer beta: every sigma_n is 0, so E[1, -300](-5000) is
        # the exponential part (-5000)**301 e**-5000 = -e**-2436, which
        # underflows; 0 * inf made it NaN
        assert ml_reference(-5000.0, 1.0, -300.0) > -1e-320
        res = ml_asymptotic(complex(-5000.0), 1.0, -300.0, 1e-14)
        assert res.value == 0.0 and res.converged

    # an infinite term meets an infinite pole part, and the larger is the
    # value: the reference's sign, where inf - inf gave NaN
    @pytest.mark.parametrize(
        "z,alpha,beta,terms",
        [(5000.0, 1.0, -300.5, 12000), (3.0, 0.5, -400.5, 1200)],
    )
    def test_overflow_collision_has_the_series_sign(self, z: float, alpha: float, beta: float, terms: int) -> None:
        # the Maclaurin series in mpmath: -3.99e869 at 3, 5.15e3286 at 5000
        with mp.workdps(40):
            want = mp.fsum(mp.power(z, k) * mp.rgamma(alpha * k + beta) for k in range(terms))
        assert abs(want) > sys.float_info.max
        res = ml_asymptotic(complex(z), alpha, beta, 1e-14)
        assert res.value == complex(math.copysign(math.inf, want))

    @pytest.mark.parametrize("z,alpha,beta", [(10000.0, 0.5, -2000.5), (3.0, 0.01, -175.0)])
    def test_overflow_collision_takes_the_pole_part(self, z: float, alpha: float, beta: float) -> None:
        # too far out for the series: the pole part z**((1-beta)/alpha) *
        # e**(z**(1/alpha)) / alpha > 0 outgrows the expansion's every term
        # (|sigma_n| <= 1) by more than the 1000 terms the sum may add
        with mp.workdps(30):
            log_pole = (1 - beta) / alpha * mp.log(z) + mp.power(z, 1 / alpha) - mp.log(alpha)
            log_terms = max(mp.loggamma(1 + n * alpha - beta) - mp.log(mp.pi) - n * mp.log(z) for n in range(1, 1001))
        assert log_pole - log_terms > 10.0 and log_terms > 709.0
        res = ml_asymptotic(complex(z), alpha, beta, 1e-14)
        assert res.value == complex(math.inf)

    def test_collision_routes_to_the_expansion(self) -> None:
        # both took quadrature (inf) or raised DomainError while the expansion was NaN
        for z, alpha, beta in [(5000.0, 1.0, -300.5), (3.0, 0.01, -175.0)]:
            routed = ml_auto(z, alpha, beta)
            assert routed.method is Method.ASYMPTOTIC and routed.value == complex(math.inf) and routed.converged


@pytest.mark.parametrize("k", [1, 2, 3, 7, 100, 1234, 10**6, 10**12])
def test_integer_bound_stops_where_the_log_test_does(k: int) -> None:
    # the largest n <= MAX_TERMS with n = 0 or log(n) <= L, at L on and next to log(k)
    for log_n_max in (math.log(k), math.nextafter(math.log(k), -math.inf), math.nextafter(math.log(k), math.inf), -0.5):
        n = bisect_right(asymptotic._LOG_N, log_n_max)
        assert n == 0 or math.log(n) <= log_n_max
        assert n == asymptotic.MAX_TERMS or math.log(n + 1) > log_n_max
    assert bisect_right(asymptotic._LOG_N, 30.5) == asymptotic.MAX_TERMS


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
        assert res.nodes_or_terms == m
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
        assert res.converged and res.nodes_or_terms == 26
        assert abs(res.value - self.WANT) <= res.err_estimate

    @pytest.mark.parametrize("beta", [0.1 * 3, 0.3 + 1e-15])
    def test_small_coefficient_does_not_stop_the_sum(self, beta: float) -> None:
        # beta - alpha is just above 0, so 1/Gamma(beta - alpha) ~ 5e-17 makes
        # the first term tiny and the second is not; a proxy sized by 1/Gamma
        # stopped there, converged, with 1.1e-17 for 7.3e-3
        res = ml_asymptotic(complex(-5.0), 0.3, beta, 1e-14)
        assert res.converged and res.nodes_or_terms == 26
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


class TestWideAlpha:
    """alpha > 1 adds the exponential term of every pole on the principal sheet."""

    @pytest.mark.parametrize("z", [1e4, -1e4, cmath.rect(1e4, 2.5), cmath.rect(1e4, -3.0)])
    def test_alpha_two_is_cosh_sqrt(self, z: complex) -> None:
        # poles +-sqrt(z); every algebraic coefficient 1/Gamma(1 - 2n) is 0
        res = ml_asymptotic(complex(z), 2.0, 1.0, 1e-14)
        want = cmath.cosh(cmath.sqrt(complex(z)))
        assert res.converged
        assert abs(res.value - want) <= 1e-13 * abs(want)

    def test_three_poles_against_series(self) -> None:
        # alpha = 3, z < 0: a conjugate pair and a pole on the cut
        z, alpha, beta = -2e6, 3.0, 1.3
        want = ml_reference(z, alpha, beta)
        res = ml_asymptotic(complex(z), alpha, beta, 1e-14)
        assert res.converged and res.value.imag == 0.0
        assert abs(res.value.real - want) <= 1e-13 * abs(want)


class TestTermCap:
    def test_a_sum_that_cannot_converge_stops_at_the_cap(self) -> None:
        # every term overflows and the divergence bound is e**114 terms away:
        # the sum never returned
        res = ml_asymptotic(complex(3.0), 0.01, -1e300, 1e-14)
        assert res.nodes_or_terms == asymptotic.MAX_TERMS + 1 and not res.converged


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
    assert isinstance(res, EvalResult)
    assert res._fields == ("value", "method", "nodes_or_terms", "err_estimate", "converged")
    assert res.method is Method.ASYMPTOTIC
    assert res.nodes_or_terms >= 1
    assert res.err_estimate >= 0.0
    assert hash(res) == hash(ml_asymptotic(complex(-30.0), 0.5, 1.0, 1e-12))
    with pytest.raises(AttributeError):
        res.value = 0j  # type: ignore[misc]


class TestCoefficientTable:
    # at alpha 0.3, |z| = 3 the expansion runs past 32 terms, across a block boundary
    POINTS = [complex(-3.0), 3.0 * cmath.exp(2.0j), complex(-15.0), complex(20.0, 5.0)]

    def evaluate(self, alpha: float, beta: float, tol: float) -> list:
        return [ml_asymptotic(z, alpha, beta, tol) for z in self.POINTS]

    def test_blocks_hold_the_coefficients(self) -> None:
        for block in (0, 1):
            rows = asymptotic._sigma_tau_block(0.3, 1.1, block)
            assert len(rows) == TABLE_BLOCK
            for n, (sigma, log_tau, log_size, signed) in enumerate(rows, block * TABLE_BLOCK):
                assert (sigma, log_tau) == asymptotic_sigma_tau(n, 0.3, 1.1)
                x = 1.1 - n * 0.3
                assert log_size == (math.lgamma(1.0 - x) - math.log(math.pi) if 0.0 < x < 0.5 else log_tau)
                # the coefficient of a real z < 0, whose z**-n has the sign (-1)**n
                assert signed.hex() == (-sigma if n % 2 else sigma).hex()

    @staticmethod
    def bits(results: list) -> list:
        return [
            (r.value.real.hex(), r.value.imag.hex(), r.nodes_or_terms, r.err_estimate.hex(), r.converged) for r in results
        ]

    @staticmethod
    def assert_immutable_rows(table: tuple) -> None:
        assert type(table) is tuple
        for row in table:
            assert type(row) is tuple and all(type(v) is float for v in row)

    def test_cold_and_warm_calls_agree(self) -> None:
        # the expansion's blocks, their signed column read by the float loop of a real z
        asymptotic._sigma_tau_block.cache_clear()
        cold = self.evaluate(0.3, 1.0, 1e-14)
        assert max(r.nodes_or_terms for r in cold) > TABLE_BLOCK
        assert self.bits(cold) == self.bits(self.evaluate(0.3, 1.0, 1e-14))
        for block in range(max(r.nodes_or_terms for r in cold) // TABLE_BLOCK + 1):
            self.assert_immutable_rows(asymptotic._sigma_tau_block(0.3, 1.0, block))
        # the two-pole row's entry and f_one's coefficient pairs: at alpha 1.3,
        # x = 140 a node of the N = 14 rule lies within EPS_SWITCH of a pole.
        # The entry, with the pair's constants, is built once per (rule, alpha, beta)
        rule = dispatch.quad_rule(Method.QUAD_HYPERBOLIC, 14)
        quadrature._node_factors.cache_clear()
        quadrature._psi_rows.cache_clear()
        cold = quadrature.ml_quad(-140.0, 1.3, 1.0, rule).value
        assert quadrature._psi_rows.cache_info().currsize == 1
        assert cold == quadrature.ml_quad(-140.0, 1.3, 1.0, rule).value and cold.imag == 0.0
        entry = quadrature._node_factors(rule, 1.3, 1.0)
        assert quadrature._node_factors.cache_info().misses == 1
        assert cold.real.hex() == quadrature._two_pole_sum(140.0, 1.3, 1.0, entry).hex()
        pair = entry[3]
        assert type(pair) is tuple and len(pair) == 7 and all(type(v) is float for v in pair)
        self.assert_immutable_rows(quadrature._psi_rows(1.3, 1.0))

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

    @pytest.mark.parametrize("alpha", [math.inf, 0.0, -0.3])
    def test_alpha_out_of_range(self, alpha: float) -> None:
        with pytest.raises(DomainError):
            ml_asymptotic(complex(-30.0), alpha, 1.0, 1e-12)

    @pytest.mark.parametrize("alpha, beta", [(0.5, math.nan), (0.5, math.inf), (math.nan, 1.0)])
    def test_nonfinite_alpha_or_beta(self, alpha: float, beta: float) -> None:
        # a NaN beta ran 5000 terms and returned nan+nanj
        with pytest.raises(DomainError):
            ml_asymptotic(complex(50.0), alpha, beta, 1e-14)

    def test_bad_tol(self) -> None:
        with pytest.raises(DomainError):
            ml_asymptotic(complex(-30.0), 0.7, 1.0, 0.0)

    def test_nan_tol(self) -> None:
        # a NaN tol passed the old tol <= 0 test, and the sum at -1e6 never stopped
        with pytest.raises(DomainError):
            ml_asymptotic(complex(-1e6), 0.7, 1.0, math.nan)

    def test_infinite_tol(self) -> None:
        # an infinite tol passed the old tol > 0 test, and the first term stopped the sum
        with pytest.raises(DomainError, match="finite"):
            ml_asymptotic(complex(-30.0), 0.7, 1.0, math.inf)

    @pytest.mark.parametrize(
        "z",
        # the last is finite, but |z| overflows: abs(z) raised a bare OverflowError
        [complex("nan"), complex(1.0, math.nan), complex(-math.inf), complex(0.0, math.inf), complex(1.5e308, 1.5e308)],
    )
    def test_nonfinite_z(self, z: complex) -> None:
        # a NaN z made both loop exits compare against NaN, so the sum never ended
        with pytest.raises(DomainError):
            ml_asymptotic(z, 0.5, 1.0, 1e-14)
