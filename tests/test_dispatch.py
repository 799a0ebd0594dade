import cmath
import math
import time
import warnings
from itertools import combinations

import pytest

from mp_reference import ml_reference
from real_axis_reference import ml_quad_neg_axis_wide_alpha

from mittleff.asymptotic import log_r_floor, ml_asymptotic
from mittleff import dispatch, quadrature
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
from mittleff.kernels import cpow_principal, reciprocal_gamma
from mittleff.quadrature import Method, ml_quad, origin_accuracy
from mittleff.series import ml_series

HYP14 = build_hyperbolic_rule(14)


def _reduction(z: complex, alpha: float, beta: float, tol: float = DEFAULT_TOL) -> complex:
    # E[a,b](z) = (1/m) sum_k E[a/m,b](z**(1/m) e**(2 pi i k/m)), m = ceil(a),
    # each term evaluated through the router at a/m <= 1: the reference for
    # alpha > 1, whose poles the router splits off at z itself
    m = math.ceil(alpha)
    root = cpow_principal(complex(z), 1.0 / m)
    subs = [dispatch._ml_auto_low(root * cmath.rect(1.0, 2.0 * math.pi * k / m), alpha / m, beta, tol) for k in range(m)]
    return sum(sub.value for sub in subs) / m


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
        want = ml_reference(0.99, 0.01, 1.0)
        res = ml_auto(0.99, 0.01, 1.0)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.converged
        assert res.value.imag == 0.0
        assert abs(res.value.real - want) <= 1e-12 * want

    def test_wide_alpha_uses_reduction(self) -> None:
        # alpha > 1 takes the routes of alpha <= 1: here quadrature, with both
        # poles on the principal sheet split off
        res = ml_auto(complex(4.0, 3.0), 1.8, 0.9)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.nodes_or_terms == 29
        want = _reduction(complex(4.0, 3.0), 1.8, 0.9)
        assert abs(res.value - want) <= 1e-13 * max(1.0, abs(want))

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
            (4.0 + 3.0j, 1.8, 0.9, DEFAULT_TOL, Method.QUAD_HYPERBOLIC),
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
        ],
    )
    def test_forced_method_reports_its_stopping_rule(
        self, method: Method, z: float, alpha: float, tol: float, converged: bool
    ) -> None:
        res = run_method(method, complex(z), alpha, 1.0, tol)
        assert res.method is method
        assert res.converged is converged

    @pytest.mark.parametrize("method", [Method.QUAD_PARABOLIC, Method.QUAD_HYPERBOLIC])
    def test_forced_quadrature_with_a_nan_value_is_not_converged(self, method: Method) -> None:
        # E[2,-1](-1e300) comes back NaN, so quadrature must not claim convergence
        res = run_method(method, complex(-1e300), 2.0, -1.0, DEFAULT_TOL)
        assert res.method is method
        assert math.isnan(res.value.real) and res.converged is False

    def test_reduction_with_an_unconverged_step(self, monkeypatch) -> None:
        # alpha > 1 is one evaluation at z, whose flag ml_auto passes on: mark
        # it as missed
        want = ml_auto(complex(4.0, 3.0), 1.8, 0.9)
        low = dispatch._ml_auto_low
        calls = []

        def unconverged(*args):
            res = low(*args)
            calls.append(args)
            return res._replace(converged=False)

        monkeypatch.setattr(dispatch, "_ml_auto_low", unconverged)
        res = ml_auto(complex(4.0, 3.0), 1.8, 0.9)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert calls == [(complex(4.0, 3.0), 1.8, 0.9, DEFAULT_TOL)]
        assert res.converged is False
        assert res.value == want.value and want.converged is True


class TestConjugatePairs:
    """For alpha > 1 the poles off the real axis come in conjugate pairs; a
    real z still gets an exactly real value, and the reduction identity, with
    its conjugate sub-points, is the reference."""

    @pytest.mark.parametrize("alpha", [1.3, 1.7, 2.0, 2.5, 3.7])
    @pytest.mark.parametrize("x", [-37.5, -4.2, 4.2, 37.5])
    def test_real_argument_gives_real_value(self, x: float, alpha: float) -> None:
        res = ml_auto(x, alpha, 1.0)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.value.imag == 0.0
        # the reference sums all m rotated sub-points, as for a complex z
        want = _reduction(x, alpha, 1.0)
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
        # the reduction evaluated `calls` sub-points, one per conjugate pair,
        # `real_points` of them real; the router now makes one evaluation, at z
        want = _reduction(z, alpha, 1.0)
        low = dispatch._ml_auto_low
        made = []

        def counted(*args):
            made.append(args)
            return low(*args)

        monkeypatch.setattr(dispatch, "_ml_auto_low", counted)
        res = ml_auto(z, alpha, 1.0)
        assert made == [(complex(z), alpha, 1.0, DEFAULT_TOL)]
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.nodes_or_terms == 29
        assert abs(res.value - want) <= 1e-13 * max(1.0, abs(want))
        # the reduction's sub-points: conjugate pairs with conjugate values, and
        # for a real z the self-conjugate ones +-|z|**(1/m)
        m = math.ceil(alpha)
        root = cpow_principal(complex(z), 1.0 / m)
        subs = [root * cmath.rect(1.0, 2.0 * math.pi * k / m) for k in range(m)]
        if real_points is not None:
            assert res.value.imag == 0.0
            real = [w for w in subs if abs(w.imag) <= 1e-12 * abs(w)]
            upper = [w for w in subs if w.imag > 1e-12 * abs(w)]
            assert (len(real), len(real) + len(upper)) == (real_points, calls)
        else:
            assert len(subs) == calls

    def test_negative_axis_pair_takes_the_two_pole_row(self, monkeypatch) -> None:
        # 1 < alpha <= 2, z < 0, past the series and short of the expansion:
        # E(-4.2) is summed with both poles split off, where the reduction
        # summed its one pair at i*sqrt(4.2) by quadrature
        low = dispatch._ml_auto_low
        pair = low(cmath.rect(4.2**0.5, math.pi / 2), 0.75, 1.0, DEFAULT_TOL)
        assert pair.method is Method.QUAD_HYPERBOLIC
        two_pole_sum = quadrature._two_pole_sum
        made = []
        monkeypatch.setattr(quadrature, "_two_pole_sum", lambda *args: made.append(args) or two_pole_sum(*args))
        res = ml_auto(-4.2, 1.5, 1.0)
        assert [args[:3] for args in made] == [(4.2, 1.5, 1.0)]
        assert res.method is Method.QUAD_HYPERBOLIC
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
        # ceil(alpha) rotations always land in the alpha <= 1 range, so the
        # reference is one level deep; the router splits the four poles of
        # alpha = 3.7 at z itself
        for alpha in (1.2, 1.8, 2.0, 3.7, 6.5):
            m = math.ceil(alpha)
            assert alpha / m <= 1.0
        res = ml_auto(complex(8.0, 1.0), 3.7, 1.0)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert cmath.isfinite(res.value)
        want = _reduction(complex(8.0, 1.0), 3.7, 1.0)
        assert abs(res.value - want) <= 1e-13 * max(1.0, abs(want))


class TestOverflow:
    def test_real_overflow_is_inf_not_nan(self) -> None:
        res = ml_auto(1e6, 0.5, 1.0)
        assert res.method is Method.ASYMPTOTIC
        assert res.value == complex(math.inf, 0.0)

    @pytest.mark.parametrize("z", [cmath.rect(3e10, math.pi - 0.1), -3e10, cmath.rect(3e10, 0.5)])
    def test_several_overflowing_poles_give_inf_not_nan(self, z: complex) -> None:
        # two poles of alpha = 3.4 have Re gamma > 709: the larger term is the
        # value, where inf - inf would be NaN
        res = ml_auto(z, 3.4, 1.0)
        assert res.method is Method.ASYMPTOTIC and res.converged
        assert cmath.isinf(res.value) and not cmath.isnan(res.value)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_reduction_overflow_is_inf_not_nan(self, alpha: float) -> None:
        # the expansion's pole term e**(1e6**(1/alpha)) overflows
        res = ml_auto(1e6, alpha, 1.0)
        assert res.method is Method.ASYMPTOTIC
        assert res.value == complex(math.inf, 0.0)

    def test_tiny_value_keeps_relative_accuracy(self) -> None:
        # E[1/2, 150](1/2) = 2.7e-261: every series term is below tol, so a
        # stopping rule with an absolute floor keeps only the first, 4% low
        want = ml_reference(0.5, 0.5, 150.0)
        got = ml_auto(0.5, 0.5, 150.0).value
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-14 * want

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_node_factor_overflow_is_domain_error(self, alpha: float) -> None:
        # w**(alpha - beta) overflows on the contour: a bare OverflowError
        # after numpy warnings before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                ml_auto(-5.0, alpha, -200.0)

    def test_large_negative_beta_short_of_overflow_still_evaluates(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ml_auto(-5.0, 0.5, -175.0)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.value == complex(5.89021459847562e275)
        assert res.err_estimate == 1.6899345924157823e276


class TestWideAlphaNegativeAxis:
    """E[alpha, alpha](-x) for 1 < alpha <= 2 cancels in Re E[alpha/2, alpha](i*sqrt(x)):
    the reduction lost up to 3e-9 relative there, with converged=True."""

    @pytest.mark.parametrize("x, alpha", [(112.0, 1.3), (1000.0, 1.7), (300.0, 1.3)])
    def test_against_series(self, x: float, alpha: float) -> None:
        want = ml_reference(-x, alpha, alpha)
        res = ml_auto(-x, alpha, alpha)
        assert res.converged and res.value.imag == 0.0
        assert abs(res.value.real - want) <= 1e-10 * abs(want)


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

    @pytest.mark.parametrize(
        "z, alpha, beta, method",
        [
            (0.5, 0.5, 1.0, Method.SERIES),
            (0.9 + 0.3j, 0.7, 1.3, Method.SERIES),
            (-0.8, 1.5, 2.0, Method.SERIES),
            (-5000.0, 0.7, 1.0, Method.ASYMPTOTIC),
            (3000 + 4000j, 0.7, 1.0, Method.ASYMPTOTIC),
            (-1339.1455862477644, 1.7, 1.7, Method.ASYMPTOTIC),
            (-3.0, 0.5, 1.0, Method.QUAD_HYPERBOLIC),
            (2 + 3j, 0.8, 1.0, Method.QUAD_HYPERBOLIC),
            (-30.0, 1.7, 1.0, Method.QUAD_HYPERBOLIC),
        ],
    )
    def test_forced_default_record_is_ml_autos(self, z: complex, alpha: float, beta: float, method: Method) -> None:
        # every evaluator's tol defaults to DEFAULT_TOL: where the route picks a
        # method, that method forced with its defaults gives ml_auto's record
        # (ml_series' default was 1e-15: 23 terms at E[0.5,1](0.5) where ml_auto summed 22)
        want = ml_auto(z, alpha, beta)
        assert want.method is method
        if method is Method.SERIES:
            got = ml_series(z, alpha, beta)
        elif method is Method.ASYMPTOTIC:
            got = ml_asymptotic(z, alpha, beta)
        else:
            got = ml_quad(z, alpha, beta, quad_rule(method, quadrature_n_for_tol(DEFAULT_TOL)))
        assert _fields(got) == _fields(want)


def _fields(res) -> tuple:
    return (res.value.real.hex(), res.value.imag.hex(), res.method, res.nodes_or_terms, res.err_estimate.hex(), res.converged)


class TestPlan:
    """ml_auto checks its arguments, then routes on the tables its route reads:
    the expansion's floor (log_r_floor) and the quadrature block (_quad_block),
    each cached per (alpha, beta, tol)."""

    @pytest.mark.parametrize(
        "z, alpha, beta, tol",
        [
            (math.nan, 0.5, 1.0, 1e-14),
            (-math.inf, 0.5, 1.0, 1e-14),
            (complex(-2.0, math.nan), 1.5, 1.0, 1e-14),
            # finite, but |z| overflows: abs(z) raised a bare OverflowError
            (complex(1.5e308, 1.5e308), 0.5, 1.0, 1e-14),
            (-2.0, 0.0, 1.0, 1e-14),
            (-2.0, -0.5, 1.0, 1e-14),
            (-2.0, math.nan, 1.0, 1e-14),
            (-2.0, 0.5, math.nan, 1e-14),
            (-2.0, 0.5, 1.0, 1e-16),
            (-2.0, 0.5, 1.0, 0.1),
            (-2.0, 1.5, 1.0, math.nan),
        ],
    )
    def test_bad_arguments_are_rejected_before_the_plan(self, z: complex, alpha: float, beta: float, tol: float) -> None:
        dispatch._quad_block.cache_clear()
        log_r_floor.cache_clear()
        with pytest.raises(DomainError):
            ml_auto(z, alpha, beta, tol)
        assert dispatch._quad_block.cache_info().currsize == 0
        assert log_r_floor.cache_info().currsize == 0

    def test_node_factors_are_read_on_the_quadrature_route_only(self) -> None:
        # the node factors overflow at beta = -300, yet the series serves -0.5
        dispatch._quad_block.cache_clear()
        with pytest.raises(DomainError, match="overflow"):
            ml_auto(-5.0, 0.5, -300.0)
        res = ml_auto(-0.5, 0.5, -300.0)
        assert res.method is Method.SERIES and res.value == complex(-math.inf)
        assert dispatch._quad_block.cache_info().currsize == 0
        with pytest.raises(DomainError, match="overflow"):
            ml_auto(-5.0, 0.5, -300.0)

    def test_results_do_not_change_when_a_plan_is_evicted(self) -> None:
        # quadrature, series and expansion at alpha = 0.7, the two-pole row at
        # 1 < alpha <= 2, and the expansion with the pole pair
        points = [(-4.0, 0.7), (-0.37, 0.7), (-100.0, 0.7), (-9.0, 1.3), (-1e4, 2.0)]
        dispatch._quad_block.cache_clear()
        first = [_fields(ml_auto(z, alpha, 1.0)) for z, alpha in points]
        maxsize = dispatch._quad_block.cache_info().maxsize
        for k in range(maxsize):
            ml_auto(-4.0, 0.7, 1.0 + (k + 1) / 256)
        misses = dispatch._quad_block.cache_info().misses
        assert [_fields(ml_auto(z, alpha, 1.0)) for z, alpha in points] == first
        # the quadrature points at alpha 0.7 and 1.3 find their blocks evicted
        # and build them again, once; the alpha = 2 point takes the expansion
        assert dispatch._quad_block.cache_info().misses == misses + 2

    @pytest.mark.parametrize(
        "z, alpha",
        # (0.5j, 0.5): no term is summed (|z|**2/0.5 < 1), yet block 0 is
        # read, as for a real z; it returned -0j unconverged
        [(-0.5, 0.5), (-0.5, 1.5), (0.5, 2.0), (-5.0, 0.5), (-5.0, 1.5), (1e6, 0.5), (-1e6, 1.5), (1000j, 0.5), (0.5j, 0.5)],
    )
    def test_a_beta_whose_coefficients_overflow_raises_domain_error(self, z: complex, alpha: float) -> None:
        # log Gamma(1 - beta) overflows for beta below about -2.6e305: the
        # series misses its stopping rule, and the expansion's floor, the
        # expansion and the node factors each raise DomainError
        with pytest.raises(DomainError, match="overflow"):
            ml_auto(z, alpha, -1e306)
        with pytest.raises(DomainError, match="overflow"):
            ml_asymptotic(z, min(alpha, 1.0), -1e306, 1e-14)

    @pytest.mark.parametrize("beta", [1e306, 1.7976931348623157e308])
    def test_a_beta_past_the_overflow_of_lgamma_gives_zero(self, beta: float) -> None:
        # every 1/Gamma(beta + n/2) is 0.0: this raised a bare OverflowError
        res = ml_auto(-0.5, 0.5, beta)
        assert res.method is Method.SERIES and res.value == 0.0 and res.converged

    @pytest.mark.parametrize("z, alpha", [(3.0, 0.01), (-1000.0, 0.5)])
    def test_an_expansion_that_cannot_converge_stops(self, z: float, alpha: float) -> None:
        # every term overflows, and the divergence bound is e**114 or 2e6
        # terms away: the first ran on for good, the second for seconds.
        # Past MAX_TERMS the expansion gives up, and quadrature's node factors
        # overflow
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="overflow"):
            ml_auto(z, alpha, -1e300)
        assert time.perf_counter() - t0 < 1.0

    def test_a_series_point_does_not_build_the_floor(self, monkeypatch) -> None:
        # the floor's scan runs only where the size gate has passed
        calls = []
        monkeypatch.setattr(dispatch, "log_r_floor", lambda *a: calls.append(a) or log_r_floor(*a))
        ml_auto(-0.37, 0.7, 1.0)
        ml_auto(-4.0, 0.7, 1.0)
        assert calls == []
        ml_auto(-100.0, 0.7, 1.0)
        assert calls == [(0.7, 1.0, DEFAULT_TOL)]


# Known silent wrong answers: the hyperbolic rule returns each of these with
# converged=True, off by the relative error in the comment.  Each turns XPASS
# once its route meets the reference or says that it did not converge.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="quadrature says converged where it is wrong")
@pytest.mark.parametrize(
    "z, alpha, beta",
    [
        (-2.0, 0.5, -20.0),  # 9.4e2
        (-2.0, 0.5, -150.0),  # 1.0
        (-30.0, 1.0, 0.0),  # 0.12
        (-20.0, 1.0, -1.0),  # 4.4e-6
        (-5.0, 1.5, 100.0),  # 1.7e100
        (-20.0, 0.9, -4.1),  # 8.3e-6
    ],
)
def test_no_silent_wrong_answer(z: float, alpha: float, beta: float) -> None:
    res = ml_auto(z, alpha, beta)
    want = ml_reference(z, alpha, beta)
    assert not res.converged or abs(res.value - want) <= 1e-10 * abs(want)
