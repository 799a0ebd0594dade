import cmath
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from mittleff import engine, quadrature
from mittleff.asymptotic import ml_asymptotic
from mittleff.contours import build_hyperbolic_rule, build_parabolic_rule
from mittleff.dispatch import ml_auto
from mittleff.engine import ml_quad_values
from mittleff.exceptions import DomainError
from mittleff.kernels import cpow_principal, on_sheet, pole_turns, reciprocal_gamma
from mp_reference import ml_reference
from real_axis_reference import f_plain, f_split, ml_quad_neg_axis_wide_alpha

from mittleff.quadrature import (
    EPS_SWITCH,
    EvalResult,
    Method,
    f_one,
    ml_quad,
    origin_accuracy,
    q_sum,
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
        got = f_one(gamma, alpha, beta, gamma)
        want = (1.0 + alpha - 2.0 * beta) / (2.0 * alpha * gamma**beta)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_pole_removed_zero_numerator(self) -> None:
        alpha = 0.6
        beta = (1.0 + alpha) / 2.0
        z = complex(0.8, 0.3)
        gamma = cpow_principal(z, 1.0 / alpha)
        assert abs(f_one(gamma, alpha, beta, gamma)) <= 1e-12

    def test_near_pole_frozen_value(self) -> None:
        # 60-digit evaluation of w**-0.5/(w**0.5 - 1) - 2/(w - 1) at w = 1 + 1e-7
        want = -0.499999962500003125
        got = f_one(complex(1.0 + 1e-7), 0.5, 1.0, complex(1.0))
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_series_and_direct_forms_meet_at_switch(self) -> None:
        # just inside the switch the series form is used; the plain
        # difference at the same w must agree, so no jump can appear
        alpha, beta = 0.5, 1.3
        z = complex(2.0, 1.0)
        gamma = cpow_principal(z, 1.0 / alpha)
        for eps in (EPS_SWITCH * (1.0 - 1e-7), 0.09, 0.05, -EPS_SWITCH * (1.0 - 1e-7)):
            w = gamma * (1.0 + eps)
            series_form = f_one(w, alpha, beta, gamma)
            direct = f_split(w, z, alpha, beta, gamma)
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

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
    def test_zero_is_a_plain_column(self, rule, beta: float) -> None:
        # gamma = 0 is no pole: the column sums w**-beta, the sum that
        # origin_accuracy measures (the value was NaN, with converged False)
        for alpha in (0.5, 1.0):
            res = ml_quad(0j, alpha, beta, rule)
            assert abs(res.value - reciprocal_gamma(beta)) <= 2.0 * res.err_estimate
            assert math.copysign(1.0, res.value.imag) == 1.0 and res.value.imag == 0.0
            assert res.converged is True

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    def test_nan_value_is_not_converged(self, rule) -> None:
        # the two-pole row's sum overflows at alpha = 2, beta = -1, where
        # |e**gamma| = 1 and the pair is split off: the value is NaN, and a
        # NaN value once said converged=True
        res = ml_quad(-1e300, 2.0, -1.0, rule)
        assert math.isnan(res.value.real) and res.converged is False

    def test_alpha_validation(self) -> None:
        # any finite alpha > 0 is served; alpha > 1 splits each pole on the sheet
        for alpha in (0.0, -1.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                ml_quad(complex(-1.0), alpha, 1.0, HYP14)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf])
    @pytest.mark.parametrize("z", [-3.0, 2.0 + 1.0j])
    def test_nonfinite_beta(self, z: complex, beta: float) -> None:
        # beta = inf gave 0j with converged True; beta = NaN raised a
        # DomainError that blamed an overflow of the node factors
        with pytest.raises(DomainError, match="finite"):
            ml_quad(z, 0.5, beta, HYP14)
        with pytest.raises(DomainError, match="finite"):
            ml_quad_values([z], 0.5, beta, HYP14)
        with pytest.raises(DomainError):
            ml_quad(z, math.nan, 1.0, HYP14)

    @pytest.mark.parametrize(
        "z",
        # the last is finite, but |z| overflows: the value was inf+nanj
        [complex("nan"), complex(1.0, math.nan), complex(-math.inf), complex(0.0, math.inf), complex(1.5e308, 1.5e308)],
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
        remainder = q_sum(HYP14, lambda w: f_split(w, z, alpha, beta, gamma), False)
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
                HYP14, lambda w: f_split(w, z, alpha, beta, gamma), False
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
def _quad_cases(draw, alphas=None) -> tuple:
    rule = draw(st.sampled_from(_RULES))
    # hypothesis favours tiny floats, where most values are NaN: half the
    # draws keep to alphas in use
    if alphas is None:
        alphas = st.floats(0.05, 1.0) | st.floats(0.0, 1.0, exclude_min=True)
    alpha = draw(alphas)
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
# the real-axis loop at the ends of the negative axis
@example(case=(HYP14, 0.3, 1.0, complex(-1e300, -0.0)))
@example(case=(PAR14, 0.5, 1.0, complex(-5e-324)))
# alpha = 1 on the negative axis: the pole on the cut, summed by the edge row,
# or left in the plain row where beta > 1 and x < 0.03 (the last of these)
@example(case=(HYP14, 1.0, 1.0, complex(-3.0)))
@example(case=(PAR14, 1.0, 0.6, complex(-17.3, -0.0)))
@example(case=(HYP14, 1.0, 2.5, complex(-0.02)))
# the outermost node comes closest to the cut
@example(case=(HYP14, 1.0, 1.3, complex(HYP14.nodes[-1].real)))
def test_scalar_loop_matches_engine_bitwise(case: tuple) -> None:
    # ml_quad against the numpy engine on a lone column (a batch of one) and
    # on a wider block, with overflow kept silent: a real z < 0 takes the same
    # float row in all three, any other z the engine's columns
    rule, alpha, beta, z = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = ml_quad(z, alpha, beta, rule).value
        lone = complex(ml_quad_values(z, alpha, beta, rule))
        wide = complex(ml_quad_values([z, z], alpha, beta, rule)[0])
    assert _bits(one) == _bits(lone) == _bits(wide)


@settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)
@given(case=_quad_cases(st.sampled_from([2.0, 3.0]) | st.floats(1.0, 4.0, exclude_min=True)))
def test_scalar_loop_matches_engine_bitwise_past_alpha_one(case: tuple) -> None:
    # the same for alpha > 1: the edges Arg z + 2*pi*k = +-alpha*pi, where a
    # pole meets the cut, the real axis, and poles near a node; a real z gets
    # a real value
    rule, alpha, beta, z = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = ml_quad(z, alpha, beta, rule).value
        lone = complex(ml_quad_values(z, alpha, beta, rule))
        wide = complex(ml_quad_values([z, z], alpha, beta, rule)[0])
    assert _bits(one) == _bits(lone) == _bits(wide)
    if z.imag == 0.0:
        assert _bits(one)[1] == (0.0, 1.0)


def _same_bits(a: complex, b: complex) -> bool:
    return a == b and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag)


def _near_columns(z: complex, alpha: float, rule) -> tuple[int, int, int]:
    # for one column: its (node, pole) pairs within EPS_SWITCH, its poles on
    # the principal sheet, and the poles k != 0 of pole_turns off it
    turns = cmath.phase(z) / math.pi
    ks = [k for k in pole_turns(alpha) if on_sheet(turns, k, alpha)]
    poles = [cmath.exp((cmath.log(z) + 2j * math.pi * k) / alpha) for k in [0, *ks]]
    nodes = [*rule.nodes, *(w.conjugate() for w in rule.nodes)]
    near = sum(abs((w - g) / g) < EPS_SWITCH for w in nodes for g in poles)
    return near, len(poles), len(pole_turns(alpha)) - len(ks)


class TestEngine:
    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize(
        "alpha,beta", [(0.5, 1.0), (0.8, 1.3), (1.0, 1.0), (1.5, 1.0), (2.5, 0.7), (3.5, 1.3)]
    )
    def test_batch_matches_batch_of_one_bitwise(self, rule, alpha: float, beta: float) -> None:
        # both sides of the sector edge, the real axis (inside the sector for
        # z > 0; z < 0 takes the float row up to alpha = 2), z = 0, which has
        # no pole, and points with a pole within EPS_SWITCH of a node or a
        # reflected node: of node 0, which both node blocks hold, and halfway
        # between two outer nodes, where the column has two near pairs
        grid = [complex(re, im) for re in np.linspace(-5, 3, 19) for im in np.linspace(-4, 4, 17)]
        poles = [w * (1.0 + 0.03j) for w in rule.nodes[:4]]
        poles += [w.conjugate() * 1.02 for w in rule.nodes[4::3]]
        poles += [0.5 * (v + w) for v, w in zip(rule.nodes[12:], rule.nodes[13:])]
        near = [cpow_principal(g, alpha) for g in poles]
        columns = [_near_columns(z, alpha, rule) for z in near]
        assert min(n for n, _, _ in columns) >= 1 and max(n for n, _, _ in columns) >= 2
        if alpha > 1.0:
            # a near column with a second pole on the sheet, and one with a pole off it
            assert any(on >= 2 for _, on, _ in columns) and any(off >= 1 for _, _, off in columns)
        z = np.array(grid + near + [0j, 2.5, -2.5]).reshape(2, -1)
        batch = ml_quad_values(z, alpha, beta, rule)
        assert batch.shape == z.shape
        for zk, got in zip(z.ravel(), batch.ravel()):
            one = ml_quad(complex(zk), alpha, beta, rule).value
            assert _same_bits(complex(got), one), zk
            if zk.imag == 0.0:
                assert got.imag == 0.0
        assert abs(batch.ravel()[-3] - reciprocal_gamma(beta)) <= 2.0 * origin_accuracy(rule, beta)

    @pytest.mark.parametrize("beta", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.5])
    def test_chunked_batch_gives_the_scalar_bits(self, monkeypatch, alpha: float, beta: float) -> None:
        # a batch of several chunks, its kinds shuffled together: the negative
        # axis, split and plain points (outside the sector, and poles nearer
        # the origin than _SPLIT_GAMMA_MIN at beta > 1), z = 0, and -0.0
        # imaginary parts on both halves of the real axis
        rng = np.random.default_rng(23)
        n = 3 * engine.ENGINE_CHUNK - 68
        z = list(rng.uniform(-5.0, 3.0, n) + 1j * rng.uniform(-4.0, 4.0, n))
        z += list(-(10.0 ** rng.uniform(-2.0, 2.0, 40))) + list(1e-4 * (rng.uniform(-1.0, 1.0, 40) + 1j))
        z += [0j, complex(0.0, -0.0), complex(-3.0, -0.0), complex(2.0, -0.0)] * 5
        rng.shuffle(z)
        sizes = []

        def counted(values):
            def chunk(zs, shared, *args):
                sizes.append((zs.size, len(shared[0])))
                return values(zs, shared, *args)

            return chunk

        monkeypatch.setattr(engine, "_split_sum", counted(engine._split_sum))
        batch = ml_quad_values(z, alpha, beta, HYP14)
        assert len(sizes) >= 3 and max(size for size, _ in sizes) == engine.ENGINE_CHUNK
        if alpha == 3.5:
            # consecutive chunks with different pole counts share the pass's work arrays
            assert any(a[1] != b[1] for a, b in zip(sizes, sizes[1:]))
        for zk, got in zip(z, batch.tolist()):
            assert _same_bits(got, ml_quad(zk, alpha, beta, HYP14).value), zk

    def test_concurrent_calls_keep_their_bits(self, in_threads) -> None:
        # each call owns its work arrays: four threads summing different
        # (alpha, beta) over the same points at once each get the bits of a
        # call made alone
        rng = np.random.default_rng(31)
        n = 2 * engine.ENGINE_CHUNK + 100
        z = rng.uniform(-5.0, 3.0, n) + 1j * rng.uniform(-4.0, 4.0, n)
        cases = [(0.5, 1.0), (1.5, 2.5), (3.5, 1.0), (0.8, -0.5)]
        want = [[_bits(v) for v in ml_quad_values(z, *case, HYP14).tolist()] for case in cases]
        turns = itertools.count()

        def task() -> tuple:
            k = next(turns)
            return k, [[_bits(v) for v in ml_quad_values(z, *cases[k], HYP14).tolist()] for _ in range(3)]

        got = dict(in_threads(task, workers=len(cases)))
        assert sorted(got) == list(range(len(cases)))
        for k, case in enumerate(cases):
            assert all(bits == want[k] for bits in got[k]), case

    @pytest.mark.parametrize("alpha", [0.5, 2.5])
    def test_near_pairs_make_no_per_pair_call(self, monkeypatch, alpha: float) -> None:
        # the engine sums every near (node, point) pair of a block in one
        # numpy pass: f_one, the float form, is never called
        near = [cpow_principal(w * (1.0 + 0.03j), alpha) for w in HYP14.nodes[:6]]
        assert all(_near_columns(z, alpha, HYP14)[0] for z in near)
        want = ml_quad_values(near, alpha, 1.3, HYP14)

        def per_pair(*args):
            raise AssertionError("f_one called for a near pair")

        monkeypatch.setattr(quadrature, "f_one", per_pair)
        assert ml_quad_values(near, alpha, 1.3, HYP14).tolist() == want.tolist()
        assert ml_quad(near[0], alpha, 1.3, HYP14).value == want[0]

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 0.6), (1.3, 1.0), (2.5, 0.7)])
    def test_node_table_cold_and_warm_calls_agree(self, alpha: float, beta: float) -> None:
        # one pure-Python table of node factors per (rule, alpha, beta), read
        # by the float rows; the engine's columns are built from it, the
        # reflected nodes' rows as its exact conjugates
        z = [-3.0, -140.0, 2.5, complex(-3.0, 0.5), 5 + 5j]

        def values() -> list:
            scalar = [_bits(ml_quad(zk, alpha, beta, HYP14).value) for zk in z]
            return scalar + [_bits(v) for v in ml_quad_values(z, alpha, beta, HYP14).tolist()]

        quadrature._node_factors.cache_clear()
        engine._engine_factors.cache_clear()
        cold = values()
        block, err, x_min, pair, plain = quadrature._node_factors(HYP14, alpha, beta)
        assert quadrature._node_factors.cache_info().currsize == 1
        assert values() == cold
        assert quadrature._node_factors.cache_info().misses == 1
        assert type(block) is tuple and len(block) == HYP14.N + 1 and type(err) is float
        assert x_min == (0.03**alpha if beta > 1.0 else 0.0)
        assert type(pair) is tuple and len(pair) == (7 if alpha >= 1.0 else 0) and all(type(v) is float for v in pair)
        for row in block:
            assert type(row) is tuple and len(row) == 8 and all(type(v) is float for v in row)
        # the plain row's nodes: c_wab and w**alpha, conjugated where Im w**alpha < 0
        assert len(plain) == len(block)
        for row, (_, _, _, _, ar, ai, br, bi) in zip(plain, block):
            assert type(row) is tuple and all(type(v) is float for v in row)
            assert row == ((ar, ai, br, bi) if bi >= 0.0 else (ar, -ai, br, -bi)) and row[3] >= 0.0
        columns = engine._engine_factors(HYP14, alpha, beta)
        assert len(columns) == 4
        for k, col in enumerate(columns):
            assert col.shape == (2 * HYP14.N + 2, 1) and not col.flags.writeable
            first = [complex(row[2 * k], row[2 * k + 1]) for row in block]
            assert [_bits(v) for v in col[: HYP14.N + 1, 0].tolist()] == [_bits(v) for v in first]
            assert [_bits(v) for v in col[HYP14.N + 1 :, 0].tolist()] == [_bits(v.conjugate()) for v in first]

    def test_negative_zero_imaginary_part_reads_from_above(self) -> None:
        # on the cut with alpha = 1 the pole split takes gamma = z from Arg z = +pi
        up, dn = ml_quad_values([complex(-3.0, 0.0), complex(-3.0, -0.0)], 1.0, 1.0, HYP14)
        assert up == dn
        assert abs(up - math.exp(-3.0)) <= 1e-13

    def test_nonfinite_entries_rejected(self) -> None:
        # NaN, -inf and an infinite imaginary part came back as nan, 0 and nan
        # with no error, and a finite entry whose modulus overflows as inf+nanj
        with pytest.raises(DomainError):
            ml_quad_values([math.nan, -math.inf, complex(0.0, math.inf), complex(1.5e308, 1.5e308)], 0.5, 1.0, HYP14)
        for bad in (math.nan, -math.inf, complex(0.0, math.inf), complex(1.5e308, 1.5e308)):
            with pytest.raises(DomainError):
                ml_quad_values([1.0, bad], 0.5, 1.0, HYP14)

    def test_node_factor_overflow_is_domain_error(self) -> None:
        # w**(alpha - beta) overflows on the contour: the values were NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                ml_quad_values([-5.0, 1j], 0.5, -200.0, HYP14)
            with pytest.raises(DomainError, match="overflow"):
                ml_quad(-5.0, 0.5, -200.0, HYP14)

    def test_overflow_is_inf_without_warning(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            real, cplx = ml_quad_values([1e3, complex(1e3, 1.0)], 0.5, 1.0, HYP14)
            assert ml_quad(1e3, 0.5, 1.0, HYP14).value == real
        assert real == complex(math.inf, 0.0) and real.imag == 0.0
        assert math.isinf(cplx.real) and math.isinf(cplx.imag)


def _shared_pass_batch(alpha: float, seed: int) -> np.ndarray:
    # more than ENGINE_CHUNK split points (|z| >= 1 lies past every split
    # gate), points with a pole near a node of each rule, both real
    # half-axes, z = 0 and, for alpha < 1, points whose gamma overflows
    rng = np.random.default_rng(seed)
    n_split = engine.ENGINE_CHUNK + 60
    phi = min(alpha, 1.0) * math.pi * rng.uniform(-0.95, 0.95, n_split)
    z = list(10.0 ** rng.uniform(0.0, 1.0, n_split) * np.exp(1j * phi))
    for rule in _SHARED_RULES[:3]:
        for w in rng.choice(rule.nodes, 4).tolist():
            eps = complex(*rng.uniform(-0.07, 0.07, 2))
            z.append(cpow_principal((w.conjugate() if rng.random() < 0.5 else w) * (1.0 + eps), alpha))
    x = 10.0 ** rng.uniform(-3.0, 3.0, 20)
    z += [complex(v, zero) for v in np.concatenate([x, -x]).tolist() for zero in (0.0, -0.0)]
    z += [0j, complex(0.0, -0.0), complex(-0.0, 0.0)]
    if alpha < 1.0:
        # |gamma| = |z|**(1/alpha) overflows, with Re gamma > 0 off the real axis
        log_r = rng.uniform(engine._LOG_MAX * alpha, min(engine._LOG_MAX * alpha + 30.0, 709.0), 8)
        z += [cmath.rect(math.exp(r), t) for r, t in zip(log_r, rng.uniform(-0.2, 0.2, 8) * alpha * math.pi)]
    rng.shuffle(z)
    return np.array(z)


_SHARED_RULES = (build_parabolic_rule(10), PAR14, HYP14, HYP14)


@settings(derandomize=True, max_examples=80, database=None, deadline=None)
@given(
    alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]) | st.floats(0.05, 4.0) | st.floats(0.0, 4.0, exclude_min=True),
    beta=st.sampled_from([-3.0, 0.5, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_pass_gives_each_rules_bits(alpha: float, beta: float, seed: int) -> None:
    # the grid's one engine pass over several rules (one to four poles per
    # point, built once) against each rule's own call, a rule given twice
    # included: no rule's node sum may touch the poles the next one reads
    z = _shared_pass_batch(alpha, seed)
    assert np.count_nonzero(np.abs(np.angle(z)) <= alpha * math.pi) > engine.ENGINE_CHUNK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared = engine._rule_values(z, alpha, beta, _SHARED_RULES)
        own = [ml_quad_values(z, alpha, beta, rule) for rule in _SHARED_RULES]
    for got, want in zip(shared, own):
        assert [_bits(v) for v in got.tolist()] == [_bits(v) for v in want.tolist()]


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(
    rule=st.sampled_from(_RULES),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    beta=st.floats(-1.0, 6.0),
    x=st.floats(5e-324, 1e300),
    zero=st.sampled_from([0.0, -0.0]),
)
@example(rule=HYP14, alpha=0.5, beta=1.0, x=3.0, zero=-0.0)
@example(rule=PAR14, alpha=1.0, beta=2.5, x=1e3, zero=0.0)
def test_positive_axis_is_exactly_real(rule, alpha: float, beta: float, x: float, zero: float) -> None:
    # the contract: a real z gets a real value, its imaginary part +0.0, from
    # the engine (ml_quad_values) and from ml_quad alike
    z = complex(x, zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [complex(ml_quad_values(z, alpha, beta, rule)), ml_quad(z, alpha, beta, rule).value]
    for value in values:
        # a NaN value (w_n**alpha rounds to 1 as alpha -> 0, so z = 1 divides
        # by zero) has no sign to check; an overflowing one is inf + 0j
        if not math.isnan(value.real):
            assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0


class TestPoleSplitEnds:
    """The split column at both ends of |gamma| = |z|**(1/alpha)."""

    @pytest.mark.parametrize("rule, bound", [(HYP14, 1e-10), (PAR14, 1e-8)], ids=["hyp", "par"])
    @pytest.mark.parametrize("z, alpha, beta", [(1e-8, 0.5, 2.5), (1e-300, 0.05, 2.5), (1e-3, 0.5, 1.5)])
    def test_small_gamma_keeps_the_pole_in_the_integrand(self, rule, bound, z, alpha, beta) -> None:
        # beta > 1: split off, the pole's weight gamma**(1-beta)/alpha swamps the
        # value (-9.4e10 against 0.7523 at z = 1e-8 on the hyperbolic rule, NaN
        # at z = 1e-300); the pole lies inside the contour, where the plain
        # column sums it
        want = ml_reference(z, alpha, beta)
        res = ml_quad(z, alpha, beta, rule)
        assert abs(res.value - want) <= bound * abs(want)
        assert res.value.imag == 0.0

    @pytest.mark.parametrize("rule, bound", [(HYP14, 1e-10), (PAR14, 1e-8)], ids=["hyp", "par"])
    @pytest.mark.parametrize("x, beta", [(1e-20, 2.5), (1e-300, 2.5), (1e-8, 3.0), (0.01, 2.0)])
    def test_small_gamma_on_the_cut_stays_in_the_integrand(self, rule, bound, x, beta) -> None:
        # alpha = 1, z = -x: the edge row's split weight Re x**(1-beta) swamped
        # the value too (9.28 against 0.7523 at x = 1e-20, NaN at 1e-300)
        want = ml_reference(-x, 1.0, beta)
        for value in (ml_quad(-x, 1.0, beta, rule).value, complex(ml_quad_values(-x, 1.0, beta, rule))):
            assert abs(value - want) <= bound * abs(want)
            assert value.imag == 0.0

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    def test_beta_up_to_one_still_splits(self, rule) -> None:
        # gamma**(1-beta) is small for beta <= 1: the split column serves there;
        # z = 0 has no pole and takes the plain column for any beta
        want = ml_reference(1e-8, 0.5, 1.0)
        assert abs(ml_quad(1e-8, 0.5, 1.0, rule).value - want) <= 1e-12 * want
        at_zero = ml_quad(0.0, 0.5, 2.5, rule)
        assert abs(at_zero.value - reciprocal_gamma(2.5)) <= 2.0 * at_zero.err_estimate and at_zero.converged

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize("z, alpha, beta", [(1e10, 0.05, -1.0), (1e300, 0.05, 0.05), (complex(1e3, 1.0), 0.5, 1.0)])
    def test_overflowing_residue_is_the_value(self, rule, z, alpha, beta) -> None:
        # the node sum held inf - inf: the value was NaN where ml_auto gives inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ml_quad(z, alpha, beta, rule).value
            batch = ml_quad_values([z, 2.0], alpha, beta, rule)
        assert math.isinf(value.real) and not math.isnan(value.imag)
        assert _same_bits(complex(batch[0]), value)

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize("phi", [math.pi / 2, 1.5, -1.5], ids=["i", "1.5", "-1.5"])
    def test_overflowing_pole_with_re_gamma_below_zero(self, rule, phi: float) -> None:
        # |z| = 1e200 at alpha = 0.5: gamma = z**2 overflows, with Re gamma < 0,
        # where the split term and the residue are 0 to rounding; the split
        # column gave nan+nanj, the plain one meets the expansion
        z = cmath.rect(1e200, phi)
        want = ml_auto(z, 0.5, 1.0)
        assert want.method is Method.ASYMPTOTIC
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ml_quad(z, 0.5, 1.0, rule).value
            batch = ml_quad_values([2.0, z], 0.5, 1.0, rule)
        assert abs(value - want.value) <= 1e-12 * abs(want.value)
        assert _same_bits(complex(batch[1]), value)

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    def test_overflowing_pole_with_re_gamma_above_zero(self, rule) -> None:
        # Re gamma > 0: e**gamma is inf, as in the expansion (it was inf+nanj);
        # a real z > 0 keeps its column and its real value
        z = cmath.rect(1e200, 0.3)
        assert ml_quad(z, 0.5, 1.0, rule).value == complex(math.inf, math.inf) == ml_auto(z, 0.5, 1.0).value
        assert _same_bits(complex(ml_quad_values([z], 0.5, 1.0, rule)[0]), complex(math.inf, math.inf))
        assert _same_bits(ml_quad(1e200, 0.5, 1.0, rule).value, complex(math.inf, 0.0))

    @pytest.mark.parametrize("z, beta", [(1e150j, -1.0), (1e100j, -2.0)])
    def test_overflowing_pole_weight_with_vanishing_residue(self, z: complex, beta: float) -> None:
        # gamma = z**2 = -|z|**2 is finite, but P = gamma**(1-beta)/alpha
        # overflows while P e**gamma is 0: the split column gave nan+nanj, the
        # plain one meets the expansion
        want = ml_asymptotic(z, 0.5, beta, 1e-15)
        assert want.converged
        got = ml_quad(z, 0.5, beta, HYP14)
        assert cmath.isfinite(got.value) and got.converged
        assert abs(got.value - want.value) <= 1e-8 * abs(want.value)
        assert _same_bits(complex(ml_quad_values([2.0, z], 0.5, beta, HYP14)[1]), got.value)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(
    rule=st.sampled_from([HYP14, PAR14]),
    alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True).filter(lambda a: a != 1.0),
    beta=st.floats(0.5, 2.0),
    log_r=st.floats(3.0, 300.0),
    phi=st.sampled_from([math.pi, math.pi / 2]) | st.floats(-math.pi, math.pi),
)
@example(rule=HYP14, alpha=1.5, beta=1.0, log_r=100.0, phi=math.pi)
@example(rule=HYP14, alpha=0.9, beta=1.0, log_r=250.0, phi=2.5)
def test_far_out_meets_the_expansion(rule, alpha: float, beta: float, log_r: float, phi: float) -> None:
    # far out a pole's residue P e**gamma underflows wherever Re gamma << 0:
    # split off, P/(w - gamma) added its quadrature error (2e18 relative at
    # alpha = 1.3, NaN on the negative axis); kept in the integrand, the value
    # meets a converged expansion or is NaN and says so.  Left out are three
    # kinds of point whose 1e-8 this rule does not decide:
    r = 10.0**log_r
    z = complex(-r) if phi == math.pi else cmath.rect(r, phi)
    want = ml_asymptotic(z, alpha, beta, 1e-15)
    assume(want.converged and cmath.isfinite(want.value) and want.value != 0.0)
    # 1/Gamma(beta - alpha) near 0: the leading term z**-1 of E nearly
    # vanishes, and quadrature keeps only its absolute accuracy (README)
    assume(abs(reciprocal_gamma(beta - alpha)) >= 0.05)
    # an ill-conditioned E, |z E'(z)/E(z)| >= 1e6, E' from E[alpha, beta-1]
    # (near alpha = 2 on the negative axis e**gamma turns with Im gamma ~
    # r**(1/alpha)); below alpha = 1e-6 the estimate is rounding over alpha
    slope = ml_asymptotic(z, alpha, beta - 1.0, 1e-15).value - (beta - 1.0) * want.value
    assume(alpha < 1e-6 or abs(slope) < 1e6 * alpha * abs(want.value))
    if alpha > 1.0:
        # a pole still split off (its residue is not 0) whose weight |P/gamma|
        # = rho**-beta/alpha dwarfs E, so the rule's error on it does (an open
        # case, CHANGES.md)
        rho, log_p = r ** (1.0 / alpha), (1.0 - beta) / alpha * math.log(r) - math.log(alpha)
        turns = [(phi + 2.0 * math.pi * k) / alpha for k in (-1, 0, 1)]
        split = any(abs(t) <= math.pi and log_p + rho * math.cos(t) >= math.log(math.ulp(0.0)) for t in turns)
        assume(not split or rho**-beta / alpha <= 1e3 * abs(want.value))
    res = ml_quad(z, alpha, beta, rule)
    assert _same_bits(complex(ml_quad_values([z], alpha, beta, rule)[0]), res.value)
    if cmath.isnan(res.value):
        assert not res.converged
    else:
        assert abs(res.value - want.value) <= 1e-8 * abs(want.value), (res.value, want.value)


@pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
@pytest.mark.parametrize("z", [-800 + 1j, -746 + 0.001j, -750 + 300j])
def test_alpha_one_splits_where_the_residue_underflows(rule, z: complex) -> None:
    # at alpha = beta = 1 the split term 1/(w - gamma) cancels the integrand to
    # rounding, so the value is e**z = 0 to within 1.4e-17; left in the
    # integrand, the pole would leave the rule's error, 4e-16 to 1e-15
    assert cmath.exp(z) == 0.0
    assert abs(ml_quad(z, 1.0, 1.0, rule).value) <= 1e-16


def test_negative_axis_never_runs_the_engine(monkeypatch) -> None:
    # the scalar traffic is real z < 0: it stays on the float loops
    def engine(*args):
        raise RuntimeError("ml_quad_values called")

    monkeypatch.setattr("mittleff.engine.ml_quad_values", engine)
    assert ml_quad(-3.0, 0.5, 1.0, HYP14).value.imag == 0.0
    assert ml_quad(-3.0, 1.0, 0.6, HYP14).value.imag == 0.0
    from mittleff.dispatch import ml_auto

    res = ml_auto(-9.0, 0.7, 1.0)
    assert res.method is Method.QUAD_HYPERBOLIC
    assert 0.0 < res.value.real < 1.0
    with pytest.raises(RuntimeError, match="ml_quad_values"):
        ml_quad(3.0, 0.5, 1.0, HYP14)


class TestEdgeRow:
    """alpha = 1, z = -x < 0: the pole gamma = -x on the branch cut."""

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize("x", [1e-3, 0.5, 3.0, 17.3, 30.0, 99.0])
    def test_beta_one_is_exp(self, rule, x: float) -> None:
        # with w**1 = w the pole term cancels the integrand exactly: only
        # Re P * e**-x = e**-x is left, to full relative accuracy
        res = ml_quad(-x, 1.0, 1.0, rule)
        assert res.value.imag == 0.0
        assert abs(res.value.real - math.exp(-x)) <= 1e-15 * math.exp(-x)

    def test_routed_beta_one_is_exp(self) -> None:
        from mittleff.dispatch import ml_auto

        # relative error 1.4e-3 when the pole term was summed over both blocks
        res = ml_auto(-30.0, 1.0, 1.0)
        assert res.method is Method.QUAD_HYPERBOLIC
        assert abs(res.value.real - math.exp(-30.0)) <= 1e-15 * math.exp(-30.0)

    @pytest.mark.parametrize(
        "beta,bound",
        [(0.5, 5e-13), (0.6, 5e-13), (1.5, 1e-12), (2.0, 2e-11), (3.0, 1e-9)],
    )
    def test_closed_forms(self, beta: float, bound: float) -> None:
        # E[1, beta](-x) = 1F1(1; beta; -x)/Gamma(beta); bounds of max(1, |E|)
        # that the two-block sum met too
        for x in np.logspace(-2, 2, 41):
            ref = float(ml_reference(-x, 1.0, beta))
            got = ml_quad(-x, 1.0, beta, HYP14).value
            assert got.imag == 0.0
            assert abs(got.real - ref) <= bound * max(1.0, abs(ref)), x

    def test_huge_x(self) -> None:
        # E[1,2](-x) = 1/x here; |w + x|**2 overflows, so the real parts are
        # taken in Smith form
        assert abs(ml_quad(-1e200, 1.0, 2.0, HYP14).value.real - 1e-200) <= 1e-12 * 1e-200
        got = ml_quad(-1e300, 1.0, 2.0, HYP14).value
        assert not math.isnan(got.real)
        assert abs(got.real - 1e-300) <= 1e-12 * 1e-300

    @pytest.mark.parametrize(
        "rule,bound",
        [(HYP14, 1e-9), (build_hyperbolic_rule(8), 1e-4), (build_parabolic_rule(10), 1e-5)],
        ids=["hyp14", "hyp8", "par10"],
    )
    def test_overflowing_pole_weight_stays_in_the_integrand(self, rule, bound: float) -> None:
        # |P| = x**(1-beta) overflows: the split row gave NaN (inf - inf), the
        # plain row meets E[1,-0.5](-x) ~ 1/(x Gamma(-1.5)) and E[1,-1](-x) =
        # x**2 e**-x = 0, which the expansion gives too
        x = 1e250
        want = 1.0 / (x * math.gamma(-1.5))
        got = ml_quad(-x, 1.0, -0.5, rule)
        assert abs(got.value.real - want) <= bound * want and got.value.imag == 0.0 and got.converged
        assert abs(ml_quad(-1e300, 1.0, -1.0, rule).value) <= 1.3e-304
        assert ml_auto(-1e300, 1.0, -1.0).value == 0.0

    @pytest.mark.parametrize("beta", [0.6, 1.3, 2.5])
    def test_near_node_psi_form_matches_direct_sum(self, monkeypatch, beta: float) -> None:
        # the built rules keep their nodes outside EPS_SWITCH*x of the cut, so
        # move node k next to gamma = -x; with the switch radius set to 0 the
        # same rule sums the direct difference instead of the psi form
        x, k = 20.0, 12
        nodes = tuple(complex(-x, 0.05 * x) if i == k else w for i, w in enumerate(HYP14.nodes))
        rule = HYP14._replace(nodes=nodes)
        calls = []
        monkeypatch.setattr(quadrature, "f_one", lambda *a: calls.append(a) or f_one(*a))
        near = ml_quad(-x, 1.0, beta, rule).value
        assert len(calls) == 1
        monkeypatch.setattr(quadrature, "_EPS_SWITCH_SQ", 0.0)
        direct = ml_quad(-x, 1.0, beta, rule).value
        assert len(calls) == 1
        assert near.imag == direct.imag == 0.0
        assert abs(near.real - direct.real) <= 1e-13 * max(1.0, abs(direct.real))


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
        # the near-pole term of _two_pole_sum and the engine: f_one for the
        # near pole, less the plain term of the other
        w = gp * (1.0 + 1e-12)
        got = f_one(w, alpha, beta, gp) - cpow_principal(gm, 1.0 - beta) / (alpha * (w - gm))
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
        # the engine's column at -x, both node blocks in complex numpy, is the
        # reference for ml_quad's float loop over one block
        ref = ml_quad_neg_axis_wide_alpha(x, alpha, beta, HYP14).value
        got = ml_quad(complex(-x), alpha, beta, HYP14).value
        assert ref.imag == 0.0 and got.imag == 0.0
        assert abs(got.real - ref.real) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_phase_that_overflows(self, alpha: float) -> None:
        # (1-beta)*pi/alpha overflows: the entry holds NaN for the phase, so
        # the engine still serves a z off the axis and the edge row returns
        # NaN.  At alpha = 1.5 the weights x**((1-beta)/alpha) underflow, the
        # pair stays in the integrand, and the row gives E's value, 0.0
        assert ml_quad(3 + 4j, alpha, 1e308, HYP14).value == 0.0
        res = ml_quad(-5.0, alpha, 1e308, HYP14)
        if alpha == 1.0:
            assert math.isnan(res.value.real) and not res.converged
        else:
            assert res.value == 0.0 and res.converged

    @pytest.mark.parametrize("x", [1.0, 2.0, 17.3, 250.0, 1e3])
    def test_float_row_at_alpha_two_is_cos_sqrt(self, x: float) -> None:
        assert abs(ml_quad(complex(-x), 2.0, 1.0, HYP14).value.real - math.cos(math.sqrt(x))) <= 1e-13

    @pytest.mark.parametrize("offset", [1e-6, 0.03 + 0.04j, -0.09, 0.099])
    @pytest.mark.parametrize("k", [6, 9, 14])
    def test_float_row_near_a_node(self, k: int, offset: complex) -> None:
        # gamma_+ within EPS_SWITCH of node k, where the psi form takes over
        gp = HYP14.nodes[k] * (1.0 + offset)
        alpha = math.pi / cmath.phase(gp)
        x = abs(gp) ** alpha
        assert 1.0 < alpha < 2.0 and abs((HYP14.nodes[k] - gp) / gp) < EPS_SWITCH
        ref = ml_quad_neg_axis_wide_alpha(x, alpha, 1.3, HYP14).value.real
        got = ml_quad(complex(-x), alpha, 1.3, HYP14).value.real
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))
        # the same rule with node k stored as its reflection conj(w_k), its
        # weight conjugated: _node_factors folds it back, and the value keeps
        # its bits
        def flip(seq: tuple) -> tuple:
            return tuple(v.conjugate() if i == k else v for i, v in enumerate(seq))

        mirrored = HYP14._replace(nodes=flip(HYP14.nodes), weights=flip(HYP14.weights))
        assert _same_bits(ml_quad(complex(-x), alpha, 1.3, mirrored).value, complex(got))

    @pytest.mark.parametrize("rho", [2.0, 10.0, 30.0])
    def test_float_row_node_near_both_poles(self, rho: float) -> None:
        # alpha just above 1: gamma_pm = rho*e**(+-i(pi - 0.05)) lie 0.1*rho
        # apart, and node 1 moved to -rho*cos(0.05) + 0.01j*rho lies within
        # EPS_SWITCH*rho of both.  A node with Im w >= 0 is never nearer
        # gamma_- than gamma_+, so the row takes the psi form at gamma_+.  The
        # value is the moved rule's own sum, residue pair plus
        # sum over n = -N..N of C_n f_2(w_n), in mpmath
        alpha, beta = math.pi / (math.pi - 0.05), 1.3
        x = rho**alpha
        rule = _moved(HYP14, 1, complex(-rho * math.cos(0.05), 0.01 * rho))
        gp = cmath.rect(rho, math.pi / alpha)
        assert max(abs(rule.nodes[1] - gp), abs(rule.nodes[1] - gp.conjugate())) < EPS_SWITCH * rho
        with mpmath.workdps(40):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            poles = [mpmath.mpf(rho) * mpmath.expjpi(s / a) for s in (1, -1)]

            def f_2(w: complex) -> mpmath.mpc:
                w = mpmath.mpc(w)
                return w ** (a - b) / (w**a + x) - sum(g ** (1 - b) / a / (w - g) for g in poles)

            terms = [rule.A * mpmath.mpc(c) * f_2(w) for w, c in zip(rule.nodes, rule.weights)]
            want = sum(g ** (1 - b) / a * mpmath.exp(g) for g in poles) + terms[0] + 2 * sum(t.real for t in terms[1:])
            want = float(want.real)
        got = ml_quad(complex(-x), alpha, beta, rule).value.real
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_engine_gives_a_node_near_both_poles_to_the_nearer(self) -> None:
        # as above at rho = 10: node 1 lies within EPS_SWITCH*rho of both
        # poles, nearer gamma_+, and its reflection nearer gamma_-.  Just above
        # the negative axis the engine takes each pair's psi form at its nearer
        # pole, as the row does; at the pole it took last it read 24.09+70.07j
        alpha = math.pi / (math.pi - 0.05)
        x = 10.0**alpha
        rule = _moved(HYP14, 1, complex(-10.0 * math.cos(0.05), 0.1))
        row = ml_quad(complex(-x), alpha, 1.0, rule).value.real
        got = complex(ml_quad_values(cmath.rect(x, math.pi - 1e-9), alpha, 1.0, rule))
        assert abs(got.real - row) <= 1e-12 * abs(row) and abs(got.imag) < 1e-5

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

    def test_overflow_is_domain_error(self) -> None:
        # w**(alpha - beta) overflows in the node factors: this was a bare OverflowError
        with pytest.raises(DomainError, match="overflow"):
            ml_quad(-5.0, 1.5, -300.0, HYP14)
        # node 0's power w**(alpha - beta) = 3.8e307 is finite, and its product
        # with the weight overflows: the entry's finiteness check raises
        with pytest.raises(DomainError, match="the node factors of this rule overflow"):
            ml_quad(-2.0, 0.5, -443.30228829541994, HYP14)
        with pytest.raises(DomainError, match="overflow"):
            ml_quad_neg_axis_wide_alpha(5.0, 1.5, -300.0, HYP14)

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize(
        "x, alpha, beta",
        # x**((1-beta)/alpha) overflows, and at alpha = 2 the residues do not
        # vanish: this raised a bare OverflowError
        [(1e160, 2.0, -3.0)],
    )
    def test_overflowing_residue_is_nan(self, rule, x: float, alpha: float, beta: float) -> None:
        res = ml_quad(-x, alpha, beta, rule)
        assert math.isnan(res.value.real) and res.value.imag == 0.0
        assert not res.converged
        assert math.isnan(ml_quad_values([-x], alpha, beta, rule)[0].real)

    @pytest.mark.parametrize("rule, bound", [(HYP14, 1e-8), (PAR14, 5e-8)], ids=["hyp", "par"])
    @pytest.mark.parametrize("x, alpha, beta", [(1e232, 1.5, -1.0), (1e300, 1.5, -1.0)])
    def test_vanishing_pair_with_overflowing_weight(self, rule, bound: float, x: float, alpha: float, beta: float) -> None:
        # x**((1-beta)/alpha) overflows, but the residues P e**gamma underflow
        # (Re gamma = -x**(1/alpha)/2): the pair stays in the integrand, and
        # the plain row meets the expansion (3.6e-9 on hyp, 1.7e-8 on par;
        # the value was NaN)
        want = ml_asymptotic(complex(-x), alpha, beta, 1e-15)
        assert want.converged
        res = ml_quad(-x, alpha, beta, rule)
        assert res.converged and res.value.imag == 0.0
        assert abs(res.value - want.value) <= bound * abs(want.value)
        assert _same_bits(complex(ml_quad_values([-x], alpha, beta, rule)[0]), res.value)

    @pytest.mark.parametrize("x", [1e9, 1e100, 1e307])
    def test_vanishing_pair_far_out(self, x: float) -> None:
        # the pair's residues underflow: split off, P/(w - gamma) added only its
        # quadrature error (7.8e-10 relative at 1e9, 1.7e21 at 1e100, NaN at
        # 1e307); kept in, the plain row meets the expansion to 3.1e-12
        want = ml_asymptotic(complex(-x), 1.5, 1.0, 1e-15)
        assert want.converged
        res = ml_quad(-x, 1.5, 1.0, HYP14)
        assert res.converged
        assert abs(res.value - want.value) <= 1e-11 * abs(want.value)

    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    @pytest.mark.parametrize("x", [1e30, 1e34, 1e36, 1e38, 1e40, 1e300])
    def test_alpha_two_value_is_bounded(self, rule, x: float) -> None:
        # E[2,1](-x) = cos(sqrt(x)) and E[2,2](-x) = sin(sqrt(x))/sqrt(x).  The
        # poles +-i*sqrt(x) got the real part sqrt(x)*cos(pi/2) = 6e-17*sqrt(x),
        # so e**Re(gamma) drifted off 1: ml_auto(-1e34, 2, 1) read 281.4 and
        # ml_quad(-1e34, 2, 1, HYP14) -404, both converged, and past x ~ 1e39
        # the row overflowed to NaN
        from mittleff.dispatch import ml_auto

        for beta, bound in ((1.0, 1.0), (2.0, 1.0 / math.sqrt(x))):
            values = [
                ml_quad(-x, 2.0, beta, rule).value,
                complex(ml_quad_values([-x], 2.0, beta, rule)[0]),
                ml_auto(-x, 2.0, beta).value,
            ]
            for value in values:
                assert value.imag == 0.0 and abs(value.real) <= bound, (beta, values)


def test_origin_accuracy_frozen() -> None:
    assert origin_accuracy(HYP14, 1.0) == pytest.approx(4.35e-14, rel=0.1)
    assert origin_accuracy(PAR14, 1.0) == pytest.approx(3.83e-13, rel=0.1)


def test_result_type() -> None:
    res = ml_quad(complex(-1.0), 0.5, 1.0, PAR14)
    assert isinstance(res, EvalResult)
    assert res._fields == ("value", "method", "nodes_or_terms", "err_estimate", "converged")
    assert res.method is Method.QUAD_PARABOLIC
    assert hash(res) == hash(ml_quad(complex(-1.0), 0.5, 1.0, PAR14))
    with pytest.raises(AttributeError):
        res.value = 0j  # type: ignore[misc]


_PAR10 = build_parabolic_rule(10)


class TestSplitGate:
    """One split gate for every alpha: where beta > 1, a real z < 0 with
    |z| < 0.03**alpha keeps its poles in the integrand, on the float rows
    as in the engine.  Forced quadrature: ml_auto sends |z| <= 1 to the
    series."""

    def test_gated_pair_row(self) -> None:
        # split off, the poles at |gamma| = 1e-8**(1/1.3) would swamp the value (-122880)
        got = ml_quad(-1e-8, 1.3, 4.0, HYP14)
        assert abs(got.value.real - 1.0 / 6.0) <= 1e-8 / 6.0 and got.value.imag == 0.0

    @pytest.mark.parametrize(
        "rule,bound",
        [(HYP14, 1e-9), (build_hyperbolic_rule(8), 1e-4), (_PAR10, 1e-5)],
        ids=["hyp14", "hyp8", "par10"],
    )
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_small_x_against_the_series(self, rule, bound: float, alpha: float) -> None:
        # split off, the pair would give relative errors of 6e-6 and 1e-7 on
        # HYP14, and of up to 2.5 on the coarser rules
        want = ml_reference(-1e-6, alpha, 3.0)
        got = ml_quad(-1e-6, alpha, 3.0, rule).value
        assert abs(got.real - want) <= bound * abs(want) and got.imag == 0.0

    @settings(
        derandomize=True,
        max_examples=300,
        database=None,
        deadline=None,
        phases=[Phase.explicit, Phase.generate, Phase.shrink],
    )
    @given(
        rule=st.sampled_from([HYP14, _PAR10]),
        alpha=st.floats(1.0, 2.0, exclude_min=True),
        beta=st.floats(1.0, 4.0, exclude_min=True),
        s=st.sampled_from([0.5, 0.999, 1.001, 2.0, 10.0]),
    )
    def test_row_meets_the_engine_across_the_gate(self, rule, alpha: float, beta: float, s: float) -> None:
        # the row at -x against the engine's column just above the axis, on
        # either side of the gate (a pair row that split below it missed by 1e-3).
        # Within 1e-12 of alpha = 1 the partner pole of the point above the
        # axis lies just off the sheet: the engine splits one pole where the
        # row splits two, and the two differ by the rule's own error (2.8e-5
        # on PAR10 at beta = 3.6, where each is 1e-5 from the series)
        x = 0.03**alpha * s
        row = ml_quad(-x, alpha, beta, rule).value
        off = ml_quad(complex(-x, 1e-13 * x), alpha, beta, rule).value
        assert abs(row - off) <= (1e-8 if alpha - 1.0 > 1e-12 else 1e-4) * abs(off)


class TestWideAlpha:
    """alpha > 1: every pole on the principal sheet is split off at z itself."""

    @pytest.mark.parametrize(
        "z, alpha, beta",
        [
            (3.0 + 4.0j, 1.5, 1.0),
            (-9.0 + 0.5j, 3.5, 1.0),
            (20.0j, 2.5, 0.7),
            (-6.0 - 6.0j, 1.9, 2.2),
            (cmath.rect(60.0, 3.0), 1.05, 1.0),
            # Arg z + 2 pi = alpha*pi: a pole on the cut, and either side of it
            (cmath.rect(25.0, -0.5 * math.pi), 1.5, 1.0),
            (cmath.rect(25.0, -0.5 * math.pi + 1e-9), 1.5, 0.4),
            (cmath.rect(25.0, -0.5 * math.pi - 1e-9), 1.5, 0.4),
            # real z: a pole on the cut (alpha = 2, z > 0), a pair and one on
            # the cut (alpha = 3, z < 0), real and paired poles
            (4.0, 2.0, 0.6),
            (-30.0, 3.0, 1.3),
            (40.0, 3.7, 1.0),
            (-40.0, 2.5, 2.0),
        ],
    )
    @pytest.mark.parametrize("rule", [HYP14, PAR14], ids=["hyp", "par"])
    def test_against_series(self, rule, z: complex, alpha: float, beta: float) -> None:
        want = ml_reference(z, alpha, beta)
        got = ml_quad(z, alpha, beta, rule).value
        assert abs(got - want) <= 5e-14 * max(1.0, abs(want))
        if isinstance(z, float):
            assert got.imag == 0.0 and math.copysign(1.0, got.imag) == 1.0

    def test_batch_gives_the_scalar_bits(self) -> None:
        # the real axis on both sides and the cut, z = 0, poles near nodes
        zs = [-30.0, 4.0, -0.0, 1e-3j, 3.0 + 4.0j, -9.0 + 0.5j]
        zs += [cpow_principal(w * 1.02, 2.5) for w in HYP14.nodes[3:8]]
        for alpha in (1.5, 2.0, 2.5, 3.7):
            batch = ml_quad_values(zs, alpha, 1.3, HYP14)
            for z, got in zip(zs, batch.tolist()):
                assert _same_bits(got, ml_quad(z, alpha, 1.3, HYP14).value), (z, alpha)

    @pytest.mark.parametrize("z", [cmath.rect(3e10, math.pi - 0.1), -3e10, cmath.rect(3e10, 0.5)])
    def test_overflowing_poles_give_inf_not_nan(self, z: complex) -> None:
        # two poles of alpha = 3.4 have Re gamma > 709: the larger residue is the value
        value = ml_quad(z, 3.4, 1.0, HYP14).value
        assert cmath.isinf(value) and not cmath.isnan(value)


def _moved(rule, k: int, w: complex):
    # the rule with node k moved to w, its weight kept
    return rule._replace(nodes=tuple(w if i == k else v for i, v in enumerate(rule.nodes)))


class TestFOneContract:
    """f_one is the psi form alone and does not test nearness: each caller
    hands it a node within EPS_SWITCH of the pole, relative to the pole's
    modulus, and nothing else.  A caller that skips its own test fails here."""

    # each node's offset e = (w - gamma)/gamma: inside the disk, on its rim
    # either side, and just outside it
    OFFSETS = (
        1e-6,
        0.05j,
        -0.09,
        cmath.rect(EPS_SWITCH * (1.0 - 1e-15), 2.0),
        EPS_SWITCH * (1.0 + 1e-15),
        cmath.rect(EPS_SWITCH * (1.0 + 1e-12), 1.0),
        -1.01 * EPS_SWITCH,
        1.2j * EPS_SWITCH,
    )

    @classmethod
    def rows(cls) -> list:
        """(rule, x, alpha) of negative-axis rows with a node near a pole."""
        rows = []
        for rule in (HYP14, _PAR10):
            k = rule.N - 2
            for e in cls.OFFSETS:
                # alpha = 1: the built rules keep their nodes outside
                # EPS_SWITCH*x of the cut, so node k moves next to gamma = -x,
                # in the upper half-plane, as every node of a built rule lies
                for x in (0.5, 20.0, 1e3):
                    w = -x * (1.0 + e)
                    rows.append((_moved(rule, k, complex(w.real, abs(w.imag))), x, 1.0))
                # alpha = 2: node k moves next to gamma_+ = 3i
                rows.append((_moved(rule, k, 3j * (1.0 + e)), 9.0, 2.0))
                # 1 < alpha < 2: gamma_+ placed by a node of the upper left
                # quadrant, and the rule with that node stored as its
                # reflection, which _node_factors folds back: the same calls
                for j, w in enumerate(rule.nodes):
                    gp = w / (1.0 + e)
                    if not math.pi / 2 < cmath.phase(gp) < math.pi:
                        continue
                    alpha = math.pi / cmath.phase(gp)
                    flip = lambda seq: tuple(v.conjugate() if i == j else v for i, v in enumerate(seq))  # noqa: E731
                    mirrored = rule._replace(nodes=flip(rule.nodes), weights=flip(rule.weights))
                    rows += [(rule, abs(gp) ** alpha, alpha), (mirrored, abs(gp) ** alpha, alpha)]
            # alpha just above 1: gamma_pm = rho*e**(+-i(pi - 0.05)), and node k
            # within EPS_SWITCH*rho of both (TestTwoPole::test_float_row_node_near_both_poles)
            alpha = math.pi / (math.pi - 0.05)
            for rho in (2.0, 30.0):
                rows.append((_moved(rule, k, complex(-rho * math.cos(0.05), 0.01 * rho)), rho**alpha, alpha))
        return rows

    def test_every_call_lies_near_its_pole(self, monkeypatch) -> None:
        calls = []

        def recorded(w: complex, alpha: float, beta: float, gamma: complex) -> complex:
            calls.append((w, alpha, beta, gamma))
            return f_one(w, alpha, beta, gamma)

        monkeypatch.setattr(quadrature, "f_one", recorded)
        reached, near_minus = set(), 0
        for rule, x, alpha in self.rows():
            for beta in (0.6, 1.3):
                start = len(calls)
                ml_quad(-x, alpha, beta, rule)
                for w, a, b, gamma in calls[start:]:
                    assert (a, b) == (alpha, beta)
                    # the callers test squared distances: at the rim the two
                    # tests may part by rounding
                    assert abs(w - gamma) <= EPS_SWITCH * abs(gamma) * (1.0 + 1e-14), (rule.kind, x, alpha, w, gamma)
                    # every node has Im w >= 0: the two-pole row's pole is gamma_+,
                    # also for a node within EPS_SWITCH*|gamma| of gamma_-
                    assert alpha in (1.0, 2.0) or gamma.imag > 0.0
                    near_minus += 1 < alpha < 2 and abs(w - gamma.conjugate()) < EPS_SWITCH * abs(gamma)
                if len(calls) > start:
                    reached.add((rule.kind, rule.N, alpha if alpha in (1.0, 2.0) else 1.5))
        # both rules reach f_one on the edge row, the two-pole row and alpha = 2
        assert reached == {(r.kind, r.N, a) for r in (HYP14, _PAR10) for a in (1.0, 1.5, 2.0)}
        # and the rim offsets reach it too
        assert any(abs(w - g) >= EPS_SWITCH * abs(g) * (1.0 - 1e-14) for w, _, _, g in calls)
        assert near_minus >= 4


class TestHandBuiltRule:
    """QuadratureRule is public.  _node_factors, which every quadrature route
    reads, takes a node below the real axis as its reflection and rejects a
    rule whose length or node 0 the sum over n = -N..N cannot use."""

    def test_node_below_the_axis_counts_as_its_reflection(self) -> None:
        # node 12 moved to -20 - 2.4j: the alpha = 1 row took Smith's test
        # without abs and divided by zero (ZeroDivisionError)
        below = _moved(HYP14, 12, -20 - 2.4j)
        above = _moved(HYP14, 12, -20 + 2.4j)._replace(
            weights=tuple(c.conjugate() if i == 12 else c for i, c in enumerate(HYP14.weights))
        )
        for z, alpha in [(-20.0, 1.0), (-20.0, 0.6), (-5.0, 1.5), (complex(-20.0, 1.0), 1.0), (3 + 2j, 0.8)]:
            got = ml_quad(z, alpha, 0.6, below).value
            assert cmath.isfinite(got) and _same_bits(got, ml_quad(z, alpha, 0.6, above).value), z

    @pytest.mark.parametrize("short", ["nodes", "weights"])
    def test_rule_one_node_short(self, short: str) -> None:
        # a missing node raised IndexError
        rule = HYP14._replace(**{short: getattr(HYP14, short)[:-1]})
        for z in (-3.0, 2 + 1j):
            with pytest.raises(DomainError, match="N \\+ 1 nodes and weights"):
                ml_quad(z, 0.5, 1.0, rule)

    def test_node_zero_off_the_real_axis(self) -> None:
        # w_0 + 0.5j returned 0.15777 where the built rule gives 0.17900
        off = HYP14.weights[0] + 0.5j
        for rule in (_moved(HYP14, 0, HYP14.nodes[0] + 0.5j), HYP14._replace(weights=(off,) + HYP14.weights[1:])):
            with pytest.raises(DomainError, match="w_0 and C_0 real"):
                ml_quad(-3.0, 0.5, 1.0, rule)
