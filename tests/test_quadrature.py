import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mittleff.contours import build_hyperbolic_rule, build_parabolic_rule
from mittleff.exceptions import DomainError
from mittleff.kernels import cpow_principal, reciprocal_gamma
from mittleff.quadrature import (
    EPS_SWITCH,
    EvalResult,
    Method,
    _f_two,
    f_one,
    f_plain,
    ml_quad,
    ml_quad_neg_axis_wide_alpha,
    ml_quad_values,
    origin_accuracy,
    q_sum,
    two_pole_row,
)

HYP14 = build_hyperbolic_rule(14)
PAR14 = build_parabolic_rule(14)


class TestQSum:
    # 1/Gamma(nu) as a wrapped-contour integral of e**w w**-nu
    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    def test_gamma_integral_nu_one(self, rule) -> None:
        got = q_sum(rule, lambda w: 1.0 / w, False)
        assert abs(got - 1.0) <= 1e-11

    def test_gamma_integral_nu_half(self) -> None:
        got = q_sum(HYP14, lambda w: cpow_principal(w, -0.5), False)
        assert abs(got - 0.5641895835477563) <= 1e-10

    def test_halved_equals_full_for_symmetric_integrand(self) -> None:
        integrand = lambda w: cpow_principal(w, -0.7)  # noqa: E731
        full = q_sum(HYP14, integrand, False)
        half = q_sum(HYP14, integrand, True)
        assert half.imag == 0.0
        assert abs(half - full) <= 1e-15 * abs(full)


class TestIntegrands:
    def test_plain_at_zero_argument(self) -> None:
        w = complex(1.3, 0.4)
        want = cpow_principal(w, -1.2)
        assert abs(f_plain(w, 0j, 0.5, 1.2) - want) <= 1e-15 * abs(want)

    def test_plain_simple_points(self) -> None:
        assert f_plain(complex(1.0), complex(-1.0), 0.5, 1.0) == pytest.approx(0.5)
        assert f_plain(complex(4.0), complex(1.0), 0.5, 1.0) == pytest.approx(0.5)

    def test_pole_removed_value(self) -> None:
        # f_one at w = gamma has the closed form (1+alpha-2*beta)/(2*alpha*gamma**beta)
        alpha, beta = 0.5, 1.0
        z = complex(1.0)
        gamma = cpow_principal(z, 1.0 / alpha)
        got = f_one(gamma, z, alpha, beta, gamma)
        want = (1.0 + alpha - 2.0 * beta) / (2.0 * alpha * gamma**beta)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_pole_removed_zero_numerator(self) -> None:
        alpha = 0.6
        beta = (1.0 + alpha) / 2.0
        z = complex(0.8, 0.3)
        gamma = cpow_principal(z, 1.0 / alpha)
        assert abs(f_one(gamma, z, alpha, beta, gamma)) <= 1e-12

    def test_near_pole_frozen_value(self) -> None:
        # 60-digit evaluation of w**-0.5/(w**0.5 - 1) - 2/(w - 1) at w = 1 + 1e-7
        want = -0.499999962500003125
        got = f_one(complex(1.0 + 1e-7), complex(1.0), 0.5, 1.0, complex(1.0))
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_series_and_direct_forms_meet_at_switch(self) -> None:
        # just inside the switch the series form is used; the plain
        # difference at the same w must agree, so no jump can appear
        alpha, beta = 0.5, 1.3
        z = complex(2.0, 1.0)
        gamma = cpow_principal(z, 1.0 / alpha)
        for eps in (EPS_SWITCH * (1.0 - 1e-7), 0.09, 0.05, -EPS_SWITCH * (1.0 - 1e-7)):
            w = gamma * (1.0 + eps)
            series_form = f_one(w, z, alpha, beta, gamma)
            direct = f_plain(w, z, alpha, beta) - cpow_principal(gamma, 1.0 - beta) / (
                alpha * (w - gamma)
            )
            assert abs(series_form - direct) <= 1e-12 * abs(direct)


class TestMlQuad:
    def test_negative_axis_erfcx(self) -> None:
        res = ml_quad(complex(-1.0), 0.5, 1.0, HYP14)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert res.nodes_or_terms == 29
        assert abs(res.value - 0.4275835761558070) <= 1e-12
        assert res.value.imag == 0.0

    def test_positive_axis_growth(self) -> None:
        # dominated by 2 exp(9)
        res = ml_quad(complex(3.0), 0.5, 1.0, HYP14)
        assert res.value.real == pytest.approx(16205.988853999586, rel=1e-12)

    def test_conjugate_pair(self) -> None:
        up = ml_quad(complex(0.0, 2.0), 0.5, 1.0, HYP14).value
        dn = ml_quad(complex(0.0, -2.0), 0.5, 1.0, HYP14).value
        assert abs(up - dn.conjugate()) <= 1e-14 * abs(up)

    def test_off_axis_frozen_value(self) -> None:
        # 60-digit series reference
        want = complex(-0.43895282712924287597, 2.1098962103309814092)
        got = ml_quad(complex(2.0, 2.0), 0.5, 1.0, HYP14).value
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_algebraic_sector_frozen_value(self) -> None:
        # |Arg z| = pi > 0.75 pi: no pole split, plain integrand
        want = 0.20296681154184295218
        got = ml_quad(complex(-3.0), 0.75, 1.25, HYP14).value
        assert abs(got - want) <= 1e-13
        assert got.imag == 0.0

    def test_zero_is_nan(self) -> None:
        res = ml_quad(0j, 0.5, 1.0, HYP14)
        assert math.isnan(res.value.real) and math.isnan(res.value.imag)

    def test_alpha_validation(self) -> None:
        with pytest.raises(DomainError):
            ml_quad(complex(-1.0), 1.5, 1.0, HYP14)

    @pytest.mark.parametrize(
        "z", [complex("nan"), complex(1.0, math.nan), complex(-math.inf), complex(0.0, math.inf)]
    )
    def test_nonfinite_z(self, z: complex) -> None:
        # a NaN z gave a NaN value with converged True
        with pytest.raises(DomainError):
            ml_quad(z, 0.5, 1.0, HYP14)

    @pytest.mark.parametrize(
        "rule,rate,floor",
        [(build_parabolic_rule, 8.12, 5e-13), (build_hyperbolic_rule, 10.13, 5e-14)],
        ids=["par", "hyp"],
    )
    def test_error_decay_rate(self, rule, rate: float, floor: float) -> None:
        # erfcx(2) at 60 digits
        want = 0.255395676310505743865
        err4 = abs(ml_quad(complex(-2.0), 0.5, 1.0, rule(4)).value - want)
        for n in range(5, 13):
            err = abs(ml_quad(complex(-2.0), 0.5, 1.0, rule(n)).value - want)
            bound = err4 * rate ** (-(n - 4))
            assert err <= max(10.0 * bound, floor)

    def test_origin_proxy_bounds_error(self) -> None:
        # |q_sum(w**-beta) - 1/Gamma(beta)| tracks the true error within 10x
        want = 0.255395676310505743865
        for rule in (HYP14, PAR14, build_hyperbolic_rule(8)):
            res = ml_quad(complex(-2.0), 0.5, 1.0, rule)
            true_err = abs(res.value - want)
            assert true_err <= 10.0 * res.err_estimate

    def test_residue_term_is_explicit_exponential(self) -> None:
        # inside the sector the result equals exp part + remainder integral
        z = complex(2.0, 0.5)
        alpha, beta = 0.6, 1.1
        gamma = cpow_principal(z, 1.0 / alpha)
        residue = cpow_principal(gamma, 1.0 - beta) * cmath.exp(gamma) / alpha
        remainder = q_sum(HYP14, lambda w: f_one(w, z, alpha, beta, gamma), False)
        got = ml_quad(z, alpha, beta, HYP14).value
        assert abs(got - (residue + remainder)) <= 1e-15 * abs(got)

    def test_both_split_branches_agree_off_the_ray(self) -> None:
        # continuity across |Arg z| = alpha*pi: the plain and pole-split
        # assemblies evaluated at the same z must match on either side
        alpha, beta = 0.5, 1.0
        for off in (1e-3, -1e-3):
            z = 2.0 * cmath.exp(1j * (alpha * math.pi + off))
            plain = q_sum(HYP14, lambda w: f_plain(w, z, alpha, beta), False)
            gamma = cpow_principal(z, 1.0 / alpha)
            split = cpow_principal(gamma, 1.0 - beta) * cmath.exp(gamma) / alpha + q_sum(
                HYP14, lambda w: f_one(w, z, alpha, beta, gamma), False
            )
            assert abs(plain - split) <= 1e-8 * abs(plain)

    def test_partial_fraction_view(self) -> None:
        # the quadrature is a rational function of z with poles w_n**alpha
        alpha, beta = 0.5, 1.0
        rule = HYP14
        weights_nodes = list(zip(rule.weights, rule.nodes))
        weights_nodes += [(c.conjugate(), w.conjugate()) for c, w in weights_nodes[1:]]
        for k in range(20):
            z = (0.3 + 0.45 * k) * cmath.exp(1j * math.pi)
            direct = q_sum(rule, lambda w: f_plain(w, z, alpha, beta), False)
            rational = sum(
                -rule.A * c * cpow_principal(w, alpha - beta) / (z - cpow_principal(w, alpha))
                for c, w in weights_nodes
            )
            assert abs(direct - rational) <= 1e-13 * abs(direct)


def _bits(v: complex) -> tuple:
    # each part with its zero sign; every NaN alike
    return tuple(
        "nan" if math.isnan(x) else (x, math.copysign(1.0, x)) for x in (v.real, v.imag)
    )


_RULES = [build(n) for build in (build_hyperbolic_rule, build_parabolic_rule) for n in (4, 8, 14, 20)]


@st.composite
def _quad_cases(draw) -> tuple:
    rule = draw(st.sampled_from(_RULES))
    # hypothesis favours tiny floats, where most values are NaN: half the
    # draws keep to alphas in use
    alpha = draw(st.floats(0.05, 1.0) | st.floats(0.0, 1.0, exclude_min=True))
    beta = draw(st.floats(-1.0, 6.0))
    kind = draw(st.sampled_from(["edge", "axis", "near", "zero", "plane"]))
    if kind == "edge":
        # either side of |Arg z| = alpha*pi, above and below the real axis
        off = draw(st.sampled_from([0.0, 1e-15, -1e-15]) | st.floats(-1e-6, 1e-6))
        sign = draw(st.sampled_from([1.0, -1.0]))
        z = cmath.rect(draw(st.floats(1e-3, 1e2)), sign * (alpha * math.pi + off))
    elif kind == "axis":
        # large positive z overflows to inf
        z = complex(draw(st.floats(-1e3, 1e3)), draw(st.sampled_from([0.0, -0.0])))
    elif kind == "near":
        # gamma = z**(1/alpha) within EPS_SWITCH of a node or a reflected node
        w = draw(st.sampled_from(rule.nodes))
        w = w.conjugate() if draw(st.booleans()) else w
        eps = complex(draw(st.floats(-0.07, 0.07)), draw(st.floats(-0.07, 0.07)))
        z = cpow_principal(w * (1.0 + eps), alpha)
    elif kind == "zero":
        z = complex(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
    else:
        z = complex(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    return rule, alpha, beta, z


@settings(
    derandomize=True,
    max_examples=500,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(case=_quad_cases())
@example(case=(HYP14, 0.5, 1.0, complex(1e3, 0.0)))
@example(case=(PAR14, 0.3, 2.5, complex(1e3, 1.0)))
# w_0**alpha rounds to 1.0 here, so z = 1 divides by zero
@example(case=(_RULES[0], 5e-324, 0.0, complex(1.0)))
def test_scalar_loop_matches_engine_bitwise(case: tuple) -> None:
    # ml_quad's float loop against the numpy engine on a lone column (a batch
    # of one) and on a wider block, with overflow kept silent
    rule, alpha, beta, z = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = ml_quad(z, alpha, beta, rule).value
        lone = complex(ml_quad_values(z, alpha, beta, rule))
        wide = complex(ml_quad_values([z, z], alpha, beta, rule)[0])
    assert _bits(one) == _bits(lone) == _bits(wide)


def _same_bits(a: complex, b: complex) -> bool:
    if math.isnan(a.real) or math.isnan(b.real):
        return math.isnan(a.real) and math.isnan(b.real)
    return a == b and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag)


class TestEngine:
    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.8, 1.3), (1.0, 1.0)])
    def test_batch_matches_batch_of_one_bitwise(self, rule, alpha: float, beta: float) -> None:
        # both sides of the sector edge, the real axis (inside the sector for
        # z > 0, outside for z < 0 unless alpha = 1), z = 0, and points whose
        # pole gamma = z**(1/alpha) sits within EPS_SWITCH of a node
        grid = [complex(re, im) for re in np.linspace(-5, 3, 19) for im in np.linspace(-4, 4, 17)]
        near = [cpow_principal(w * (1.0 + 0.03j), alpha) for w in rule.nodes[:4]]
        for w, z in zip(rule.nodes, near):
            gamma = cpow_principal(z, 1.0 / alpha)
            assert abs((w - gamma) / gamma) < EPS_SWITCH
        z = np.array(grid + near + [0j, 2.5, -2.5]).reshape(2, -1)
        batch = ml_quad_values(z, alpha, beta, rule)
        assert batch.shape == z.shape
        for zk, got in zip(z.ravel(), batch.ravel()):
            one = ml_quad(complex(zk), alpha, beta, rule).value
            assert _same_bits(complex(got), one), zk
            if zk.imag == 0.0 and zk != 0:
                assert got.imag == 0.0 or (alpha == 1.0 and zk.real < 0.0)
        assert math.isnan(batch.ravel()[-3].real)

    def test_negative_zero_imaginary_part_reads_from_above(self) -> None:
        # on the cut with alpha = 1 the pole split takes gamma = z from Arg z = +pi
        up, dn = ml_quad_values([complex(-3.0, 0.0), complex(-3.0, -0.0)], 1.0, 1.0, HYP14)
        assert up == dn
        assert abs(up - math.exp(-3.0)) <= 1e-13

    def test_nonfinite_entries_rejected(self) -> None:
        # NaN, -inf and an infinite imaginary part came back as nan, 0 and nan
        # with no error
        with pytest.raises(DomainError):
            ml_quad_values([math.nan, -math.inf, complex(0.0, math.inf)], 0.5, 1.0, HYP14)
        for bad in (math.nan, -math.inf, complex(0.0, math.inf)):
            with pytest.raises(DomainError):
                ml_quad_values([1.0, bad], 0.5, 1.0, HYP14)

    def test_overflow_is_inf_without_warning(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            real, cplx = ml_quad_values([1e3, complex(1e3, 1.0)], 0.5, 1.0, HYP14)
            assert ml_quad(1e3, 0.5, 1.0, HYP14).value == real
        assert real == complex(math.inf, 0.0) and real.imag == 0.0
        assert math.isinf(cplx.real) and math.isinf(cplx.imag)


class TestTwoPole:
    def test_agrees_with_reduction(self) -> None:
        from mittleff.dispatch import ml_auto

        for x in (0.5, 1.0, 5.0):
            red = ml_auto(complex(-x), 1.5, 1.0).value
            two = ml_quad_neg_axis_wide_alpha(x, 1.5, 1.0, HYP14).value
            assert abs(two - red) <= 1e-11 * max(1.0, abs(red))

    def test_frozen_value(self) -> None:
        # 60-digit series reference
        want = -0.10971305425274014669
        got = ml_quad_neg_axis_wide_alpha(10.0, 1.5, 1.0, HYP14).value
        assert abs(got - want) <= 1e-13

    def test_small_x_limit_matches_series(self) -> None:
        from mittleff.series import ml_series

        want = ml_series(complex(-1e-8), 1.5, 1.0, tol=1e-15).value
        got = ml_quad_neg_axis_wide_alpha(1e-8, 1.5, 1.0, HYP14).value
        assert abs(got - want) <= 1e-12

    def test_near_pole_integrand_closed_form(self) -> None:
        alpha, beta, x = 1.5, 1.5, 2.0
        rho = x ** (1.0 / alpha)
        ang = math.pi / alpha
        gp = rho * cmath.exp(1j * ang)
        gm = gp.conjugate()
        # value of the analytic remainder at the upper pole itself
        at_pole = ((1.0 + alpha - 2.0 * beta) * (gp - gm) - 2.0 * gp) / (
            2.0 * alpha * gp**beta * (gp - gm)
        )
        partner = (
            x ** (-beta / alpha)
            * math.sin(math.pi * (1.0 - beta) / alpha)
            / (alpha * math.sin(math.pi / alpha))
        )
        want = at_pole + partner
        got = _f_two(gp * (1.0 + 1e-12), x, alpha, beta, gp, gm)
        assert abs(got - want) <= 1e-10 * abs(want)

    @settings(
        derandomize=True,
        max_examples=300,
        database=None,
        deadline=None,
        phases=[Phase.explicit, Phase.generate, Phase.shrink],
    )
    @given(
        x=st.floats(1.0, 1e3),
        alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
        beta=st.floats(0.2, 2.0),
    )
    def test_float_row_matches_reference(self, x: float, alpha: float, beta: float) -> None:
        # the q_sum version is the independent reference for the float loop
        ref = ml_quad_neg_axis_wide_alpha(x, alpha, beta, HYP14).value
        assert ref.imag == 0.0
        assert abs(two_pole_row(x, alpha, beta, HYP14) - ref.real) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("x", [1.0, 2.0, 17.3, 250.0, 1e3])
    def test_float_row_at_alpha_two_is_cos_sqrt(self, x: float) -> None:
        assert abs(two_pole_row(x, 2.0, 1.0, HYP14) - math.cos(math.sqrt(x))) <= 1e-13

    @pytest.mark.parametrize("offset", [1e-6, 0.03 + 0.04j, -0.09, 0.099])
    @pytest.mark.parametrize("k", [6, 9, 14])
    def test_float_row_near_a_node(self, k: int, offset: complex) -> None:
        # gamma_+ within EPS_SWITCH of node k, where the psi form takes over
        gp = HYP14.nodes[k] * (1.0 + offset)
        alpha = math.pi / cmath.phase(gp)
        x = abs(gp) ** alpha
        assert 1.0 < alpha < 2.0 and abs((HYP14.nodes[k] - gp) / gp) < EPS_SWITCH
        ref = ml_quad_neg_axis_wide_alpha(x, alpha, 1.3, HYP14).value.real
        got = two_pole_row(x, alpha, 1.3, HYP14)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))
        # the same rule with node k stored as its reflection conj(w_k): the
        # node now sits next to gamma_-, and the symmetric sum is unchanged
        def flip(seq: tuple) -> tuple:
            return tuple(v.conjugate() if i == k else v for i, v in enumerate(seq))

        mirrored = dataclasses.replace(HYP14, nodes=flip(HYP14.nodes), weights=flip(HYP14.weights))
        assert abs(two_pole_row(x, alpha, 1.3, mirrored) - got) <= 1e-13 * max(1.0, abs(got))

    def test_partner_pole_term_vanishes_at_beta_one(self) -> None:
        alpha, x = 1.5, 2.0
        partner = (
            x ** (-1.0 / alpha) * math.sin(0.0) / (alpha * math.sin(math.pi / alpha))
        )
        assert partner == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5])
    def test_alpha_validation(self, alpha: float) -> None:
        with pytest.raises(DomainError):
            ml_quad_neg_axis_wide_alpha(1.0, alpha, 1.0, HYP14)

    def test_x_validation(self) -> None:
        with pytest.raises(DomainError):
            ml_quad_neg_axis_wide_alpha(-1.0, 1.5, 1.0, HYP14)


def test_origin_accuracy_frozen() -> None:
    assert origin_accuracy(HYP14, 1.0) == pytest.approx(4.35e-14, rel=0.1)
    assert origin_accuracy(PAR14, 1.0) == pytest.approx(3.83e-13, rel=0.1)


def test_result_type() -> None:
    res = ml_quad(complex(-1.0), 0.5, 1.0, PAR14)
    assert isinstance(res, EvalResult)
    assert res.method is Method.QUAD_PARABOLIC
    with pytest.raises(Exception):
        res.value = 0j  # type: ignore[misc]
