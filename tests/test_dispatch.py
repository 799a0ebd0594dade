import cmath
import dataclasses
import math
from itertools import combinations

import mpmath as mp
import pytest

from mittleff.asymptotic import ml_asymptotic
from mittleff import dispatch
from mittleff.contours import build_hyperbolic_rule, build_parabolic_rule
from mittleff.dispatch import (
    DEFAULT_TOL,
    ml_auto,
    mittag_leffler,
    quad_rule,
    quadrature_n_for_tol,
    run_method,
)
from mittleff.exceptions import DomainError
from mittleff.kernels import reciprocal_gamma
from mittleff.quadrature import Method, ml_quad, ml_quad_neg_axis_wide_alpha, origin_accuracy
from mittleff.series import ml_series

HYP14 = build_hyperbolic_rule(14)


class TestRouting:
    def test_origin_uses_series(self) -> None:
        res = ml_auto(0j, 0.7, 1.3)
        assert res.method is Method.SERIES
        assert res.value == complex(reciprocal_gamma(1.3))

    def test_unit_disk_uses_series(self) -> None:
        assert ml_auto(complex(0.9), 0.5, 1.0).method is Method.SERIES
        assert ml_auto(complex(0.0, -1.0), 3.2, 1.0).method is Method.SERIES

    def test_large_negative_uses_asymptotic(self) -> None:
        res = ml_auto(complex(-15.0), 0.7, 1.0, 1e-12)
        assert res.method is Method.ASYMPTOTIC

    def test_moderate_uses_quadrature(self) -> None:
        res = ml_auto(complex(3.0), 0.5, 1.0)
        assert res.method is Method.QUAD_HYPERBOLIC

    def test_unconverged_asymptotic_falls_back(self) -> None:
        # x=5 at alpha=0.7 passes the size gate but the expansion cannot
        # reach 1e-12, so quadrature must take over
        res = ml_auto(complex(-5.0), 0.7, 1.0, 1e-12)
        assert res.method is Method.QUAD_HYPERBOLIC

    def test_unconverged_series_falls_back(self) -> None:
        # alpha = 0.01 at |z| = 0.99: the series hits its 250-term cap with
        # relative error 1.2e-2, so quadrature must take over
        assert not run_method(Method.SERIES, 0.99 + 0j, 0.01, 1.0, DEFAULT_TOL).converged
        with mp.workdps(30):
            want = float(mp.fsum(mp.mpf(0.99) ** n * mp.rgamma(1 + n * mp.mpf(0.01)) for n in range(2000)))
        res = ml_auto(0.99, 0.01, 1.0)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.converged
        assert res.value.imag == 0.0
        assert abs(res.value.real - want) <= 1e-12 * want

    def test_wide_alpha_uses_reduction(self) -> None:
        res = ml_auto(complex(4.0, 3.0), 1.8, 0.9)
        assert res.method is Method.REDUCTION

    def test_tol_controls_node_count(self) -> None:
        res = ml_auto(complex(-3.0), 0.5, 1.0, tol=1e-2)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.nodes_or_terms == 7  # N=3


class TestAgreement:
    def test_matches_asymptotic_table_reference(self) -> None:
        got = ml_auto(complex(-15.0), 0.7, 1.0, 1e-12).value
        ref = ml_quad(complex(-15.0), 0.7, 1.0, HYP14).value
        assert abs(got - ref) <= 1e-12

    def test_reduction_matches_two_pole_method(self) -> None:
        got = ml_auto(complex(-4.0), 1.5, 1.0, 1e-12).value
        ref = ml_quad_neg_axis_wide_alpha(4.0, 1.5, 1.0, HYP14).value
        assert abs(got - ref) <= 1e-11

    def test_reduction_frozen_value(self) -> None:
        # 60-digit series reference
        want = complex(3.8122934868870646712, 4.6382700690688549749)
        got = ml_auto(complex(4.0, 3.0), 1.8, 0.9).value
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_small_alpha_frozen_value(self) -> None:
        # 60-digit series reference; exp part alone is ~79486/3.3
        want = 79485.907625183497177
        got = ml_auto(complex(2.0), 0.3, 1.0).value
        assert got.imag == 0.0
        assert got.real == pytest.approx(want, rel=1e-11)

    def test_methods_agree_where_they_claim_validity(self) -> None:
        # series claims |z| <= 1 (its routing region) and convergence;
        # the expansion claims its stopping test; quadrature claims z != 0
        tol = 1e-12
        for alpha in (0.25, 0.5, 0.75, 1.0):
            for i in range(21):
                z = complex(-5.0 + 6.0 * i / 20.0)
                vals = []
                if abs(z) <= 1.0:
                    sr = ml_series(z, alpha, 1.0, tol=tol)
                    if sr.converged:
                        vals.append(sr.value)
                if z != 0:
                    ar = ml_asymptotic(z, alpha, 1.0, tol)
                    if ar.converged:
                        vals.append(ar.value)
                    vals.append(ml_quad(z, alpha, 1.0, HYP14).value)
                for a, b in combinations(vals, 2):
                    assert abs(a - b) <= 10.0 * tol * max(1.0, abs(a))


class TestConverged:
    @pytest.mark.parametrize(
        "z, alpha, beta, tol, method",
        [
            (0.9, 0.5, 1.0, DEFAULT_TOL, Method.SERIES),
            (-15.0, 0.7, 1.0, 1e-12, Method.ASYMPTOTIC),
            (3.0, 0.5, 1.0, DEFAULT_TOL, Method.QUAD_HYPERBOLIC),
            (4.0 + 3.0j, 1.8, 0.9, DEFAULT_TOL, Method.REDUCTION),
        ],
        ids=["series", "asymp", "quad-hyp", "reduction"],
    )
    def test_auto_results_converged(self, z, alpha: float, beta: float, tol: float, method: Method) -> None:
        res = ml_auto(z, alpha, beta, tol)
        assert res.method is method
        assert res.converged is True

    @pytest.mark.parametrize(
        "method, z, alpha, tol, converged",
        [
            (Method.SERIES, 0.5, 0.5, DEFAULT_TOL, True),
            (Method.SERIES, 0.99, 0.01, DEFAULT_TOL, False),
            (Method.ASYMPTOTIC, -15.0, 0.7, 1e-12, True),
            (Method.ASYMPTOTIC, -5.0, 0.7, 1e-12, False),
            (Method.QUAD_PARABOLIC, 3.0, 0.5, DEFAULT_TOL, True),
            (Method.QUAD_HYPERBOLIC, 3.0, 0.5, DEFAULT_TOL, True),
            # quadrature is NaN at the origin, so it must not claim convergence
            (Method.QUAD_HYPERBOLIC, 0.0, 0.5, DEFAULT_TOL, False),
        ],
    )
    def test_forced_method_reports_its_stopping_rule(
        self, method: Method, z: float, alpha: float, tol: float, converged: bool
    ) -> None:
        res = run_method(method, complex(z), alpha, 1.0, tol)
        assert res.method is method
        assert res.converged is converged

    def test_reduction_with_an_unconverged_step(self, monkeypatch) -> None:
        # every routed step converges, so mark one sub-evaluation as missed
        want = ml_auto(complex(4.0, 3.0), 1.8, 0.9)
        low = dispatch._ml_auto_low
        calls = []

        def first_unconverged(*args):
            res = low(*args)
            calls.append(res)
            return dataclasses.replace(res, converged=len(calls) > 1)

        monkeypatch.setattr(dispatch, "_ml_auto_low", first_unconverged)
        res = ml_auto(complex(4.0, 3.0), 1.8, 0.9)
        assert res.method is Method.REDUCTION
        assert len(calls) == 2
        assert res.converged is False
        assert res.value == want.value and want.converged is True


class TestConjugatePairs:
    """For real z the reduction evaluates one sub-point per conjugate pair."""

    @pytest.mark.parametrize("alpha", [1.3, 1.7, 2.0, 2.5, 3.7])
    @pytest.mark.parametrize("x", [-37.5, -4.2, 4.2, 37.5])
    def test_real_argument_gives_real_value(self, x: float, alpha: float) -> None:
        res = ml_auto(x, alpha, 1.0)
        assert res.method is Method.REDUCTION
        assert res.value.imag == 0.0
        # the reference sums all m rotated sub-points, as a complex z does
        m = math.ceil(alpha)
        root = cmath.rect(abs(x) ** (1.0 / m), 0.0 if x > 0 else math.pi / m)
        want = sum(
            dispatch._ml_auto_low(root * cmath.rect(1.0, 2.0 * math.pi * k / m), alpha / m, 1.0, DEFAULT_TOL).value
            for k in range(m)
        ) / m
        assert abs(res.value - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "z, alpha, calls, real_points",
        [
            (-4.2, 2.5, 2, 1),
            (4.2, 1.5, 2, 2),
            (4.2, 2.5, 2, 1),
            (4.2 + 1.0j, 1.5, 2, None),
            (-4.2 - 1.0j, 2.5, 3, None),
        ],
    )
    def test_one_evaluation_per_conjugate_pair(
        self, monkeypatch, z: complex, alpha: float, calls: int, real_points: int | None
    ) -> None:
        low = dispatch._ml_auto_low
        made = []

        def counted(*args):
            made.append((args[0], low(*args)))
            return made[-1][1]

        monkeypatch.setattr(dispatch, "_ml_auto_low", counted)
        res = ml_auto(z, alpha, 1.0)
        assert res.method is Method.REDUCTION
        assert len(made) == calls
        assert res.nodes_or_terms == sum(sub.nodes_or_terms for _, sub in made)
        if real_points is not None:
            # the self-conjugate sub-points +-|z|**(1/m) are built exactly real
            assert sum(w.imag == 0.0 for w, _ in made) == real_points

    def test_negative_axis_pair_takes_the_two_pole_row(self, monkeypatch) -> None:
        # 1 < alpha <= 2, z < 0: the one pair at i*sqrt(4.2) would go to
        # quadrature, so E(-4.2) is summed with both poles split off instead
        low = dispatch._ml_auto_low
        pair = low(cmath.rect(4.2**0.5, math.pi / 2), 0.75, 1.0, DEFAULT_TOL)
        assert pair.method is Method.QUAD_HYPERBOLIC
        made = []
        monkeypatch.setattr(dispatch, "_ml_auto_low", lambda *args: made.append(args) or low(*args))
        res = ml_auto(-4.2, 1.5, 1.0)
        assert made == []
        assert res.method is Method.REDUCTION
        assert res.nodes_or_terms == 29
        assert res.err_estimate == origin_accuracy(HYP14, 1.0)
        assert res.value.imag == 0.0
        assert abs(res.value.real - pair.value.real) <= 1e-13


class TestClosedForms:
    def test_alpha_one_is_exp(self) -> None:
        for re in (-5.0, -2.5, 0.0, 2.5, 5.0):
            for im in (-5.0, -1.0, 0.0, 1.0, 5.0):
                z = complex(re, im)
                want = cmath.exp(z)
                got = ml_auto(z, 1.0, 1.0).value
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_alpha_two_is_cosh_sqrt(self) -> None:
        for i in range(30):
            x = -25.0 + 29.0 * i / 29.0
            want = cmath.cosh(cmath.sqrt(complex(x)))
            got = ml_auto(complex(x), 2.0, 1.0).value
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_reduction_is_single_level(self) -> None:
        # ceil(alpha) rotations always land in the alpha <= 1 range
        for alpha in (1.2, 1.8, 2.0, 3.7, 6.5):
            m = math.ceil(alpha)
            assert alpha / m <= 1.0
        res = ml_auto(complex(8.0, 1.0), 3.7, 1.0)
        assert res.method is Method.REDUCTION
        assert cmath.isfinite(res.value)


class TestOverflow:
    def test_real_overflow_is_inf_not_nan(self) -> None:
        res = ml_auto(1e6, 0.5, 1.0)
        assert res.method is Method.ASYMPTOTIC
        assert res.value == complex(math.inf, 0.0)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_reduction_overflow_is_inf_not_nan(self, alpha: float) -> None:
        res = ml_auto(1e6, alpha, 1.0)
        assert res.method is Method.REDUCTION
        assert res.value.real == math.inf and math.isfinite(res.value.imag)

    def test_tiny_value_keeps_relative_accuracy(self) -> None:
        # E[1/2, 150](1/2) = 2.7e-261: every series term is below tol, so a
        # stopping rule with an absolute floor keeps only the first, 4% low
        with mp.workdps(30):
            want = float(mp.fsum(mp.mpf(0.5) ** n * mp.rgamma(150 + mp.mpf(n) / 2) for n in range(40)))
        got = ml_auto(0.5, 0.5, 150.0).value
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-14 * want


class TestInterface:
    def test_wrapper_returns_value(self) -> None:
        assert mittag_leffler(complex(-1.0), 0.5) == ml_auto(complex(-1.0), 0.5, 1.0).value

    def test_node_count_for_tolerance(self) -> None:
        assert quadrature_n_for_tol(1e-14) == 14
        assert quadrature_n_for_tol(1e-2) == 3
        assert quadrature_n_for_tol(1e-6) == 7

    @pytest.mark.parametrize(
        "z, alpha",
        [
            (1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
            (math.nan, 0.5), (complex(1.0, math.nan), 0.5),
            (-math.inf, 1.0), (-math.inf, 1.5), (complex(0.0, math.inf), 0.5),
        ],
        ids=["0.0", "-1.0", "nan", "inf", "z=nan", "z=1+nanj", "z=-inf", "z=-inf,alpha=1.5", "z=infj"],
    )
    def test_alpha_validation(self, z: complex, alpha: float) -> None:
        with pytest.raises(DomainError):
            ml_auto(z, alpha, 1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_beta_validation(self, beta: float) -> None:
        with pytest.raises(DomainError):
            ml_auto(2.0, 0.5, beta)

    def test_rule_cache_is_shared(self) -> None:
        assert quad_rule(Method.QUAD_PARABOLIC, 8) is quad_rule(Method.QUAD_PARABOLIC, 8)
        assert quad_rule(Method.QUAD_PARABOLIC, 8) == build_parabolic_rule(8)
        assert quad_rule(Method.QUAD_HYPERBOLIC, 14) == HYP14

    @pytest.mark.parametrize("tol", [1e-16, 0.5, 0.0])
    def test_tol_validation(self, tol: float) -> None:
        with pytest.raises(DomainError):
            ml_auto(1.0, 0.5, 1.0, tol)

    def test_default_tol(self) -> None:
        assert DEFAULT_TOL == 1e-14
