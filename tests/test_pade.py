import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mittleff.dispatch import ml_auto
from mittleff.exceptions import (
    ClusteredRootsError,
    DomainError,
    PoleError,
    SingularSystemError,
)
from mittleff.pade import (
    PadeApproximant,
    PadeSolver,
    PartialFractionForm,
    _horner,
    assemble_pade_matrix,
    build_pade,
    coefficients_csv,
    pade_eval,
    partial_fractions,
    partial_fractions_csv,
    series_coeff_a,
    series_coeff_b,
    solve_fixed_q0,
    solve_lu_homogeneous,
    solve_svd_null,
)

# the pade_fit benchmark's fits: every (alpha, r, solver) it runs
FITS = [
    (alpha, r, solver)
    for alpha in (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
    for r in range(2, 9)
    for solver in ("fixed", "svd", "lu")
]


@lru_cache(maxsize=None)
def fitted(alpha: float, r: int, solver: str) -> tuple[PadeApproximant, PartialFractionForm]:
    ap = build_pade(alpha, 1.0, r + 1, r, solver)
    return ap, partial_fractions(ap)


class TestSeriesCoefficients:
    def test_a_series(self) -> None:
        assert series_coeff_a(0, 0.5, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert series_coeff_a(1, 0.5, 1.0) == pytest.approx(-1.0 / math.gamma(1.5), rel=1e-14)
        assert series_coeff_a(2, 0.5, 1.0) == pytest.approx(1.0 / math.gamma(2.0), rel=1e-14)

    def test_b_series_direct_region(self) -> None:
        # beta - k alpha > 1/2: plain reciprocal
        assert series_coeff_b(1, 0.3, 1.2) == pytest.approx(1.0 / math.gamma(0.9), rel=1e-13)

    def test_b_series_reflected_region(self) -> None:
        # beta - k alpha <= 1/2: reflection form, checked against Gamma directly
        assert series_coeff_b(3, 0.3, 1.2) == pytest.approx(1.0 / math.gamma(0.3), rel=1e-13)
        assert series_coeff_b(1, 0.5, 1.0) == pytest.approx(1.0 / math.gamma(0.5), rel=1e-13)

    def test_b_vanishes_at_gamma_poles(self) -> None:
        assert series_coeff_b(1, 1.0, 1.0) == 0.0

    def test_index_validation(self) -> None:
        with pytest.raises(DomainError):
            series_coeff_a(-1, 0.5, 1.0)
        with pytest.raises(DomainError):
            series_coeff_b(0, 0.5, 1.0)


class TestAssembly:
    def test_smallest_system(self) -> None:
        C = assemble_pade_matrix(0.5, 1.0, 1, 2)
        a0 = series_coeff_a(0, 0.5, 1.0)
        b1 = series_coeff_b(1, 0.5, 1.0)
        assert C.shape == (2, 3)
        assert C[0, 0] == 1.0 and C[0, 1] == -a0 and C[0, 2] == 0.0
        assert C[1, 0] == 1.0 and C[1, 1] == 0.0 and C[1, 2] == -b1

    def test_reference_shape_and_conditioning(self) -> None:
        C = assemble_pade_matrix(0.2, 1.0, 9, 8)
        assert C.shape == (16, 17)
        reduced = np.delete(C, 8, axis=1)
        assert 1e12 <= np.linalg.cond(reduced) <= 1e14

    def test_full_row_rank(self) -> None:
        C = assemble_pade_matrix(0.5, 1.0, 6, 5)
        assert np.linalg.matrix_rank(C) == C.shape[0]

    @pytest.mark.parametrize("m,n", [(2, 2), (1, 1), (3, 5), (0, 3), (4, 0)])
    def test_invalid_orders(self, m: int, n: int) -> None:
        with pytest.raises(DomainError):
            assemble_pade_matrix(0.5, 1.0, m, n)


class TestSolvers:
    def test_fixed_pins_leading_denominator(self) -> None:
        ap = build_pade(0.2, 1.0, 9, 8, "fixed")
        assert ap.q[0] == 1.0
        assert ap.p[-1] == 0.0
        assert ap.r == 8 and len(ap.p) == 9 and len(ap.q) == 9
        assert ap.solver is PadeSolver.FIXED_Q0

    def test_scaled_solvers_match_fixed_exactly_where_wellposed(self) -> None:
        ap_f = build_pade(0.5, 1.0, 4, 3, "fixed")
        ap_s = build_pade(0.5, 1.0, 4, 3, "svd")
        ap_l = build_pade(0.5, 1.0, 4, 3, "lu")
        for k in range(ap_f.r + 1):
            assert ap_s.q[k] == pytest.approx(ap_f.q[k], rel=1e-12, abs=1e-14)
            assert ap_l.q[k] == pytest.approx(ap_f.q[k], rel=1e-12, abs=1e-14)

    def test_values_agree_despite_ill_conditioning(self) -> None:
        # coefficient vectors drift apart near cond ~ 1e13, values do not
        aps = [build_pade(0.2, 1.0, 9, 8, s) for s in ("fixed", "svd", "lu")]
        for i in range(50):
            x = 10.0 ** (-3.0 + 6.0 * i / 49.0)
            vals = [pade_eval(ap, x) for ap in aps]
            assert abs(vals[0] - vals[1]) <= 5e-15
            assert abs(vals[0] - vals[2]) <= 5e-15

    def test_singular_inputs_are_reported(self) -> None:
        dead = np.zeros((2, 3))
        with pytest.raises(SingularSystemError):
            solve_fixed_q0(dead)
        with pytest.raises(SingularSystemError):
            solve_svd_null(dead)
        with pytest.raises(SingularSystemError):
            solve_lu_homogeneous(dead)

    def test_lu_reports_the_bottom_most_small_pivot(self) -> None:
        # both pivots vanish; sigma1 = 1, so the tolerance is 2 * eps
        C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SingularSystemError) as exc:
            solve_lu_homogeneous(C)
        assert str(exc.value) == "pivot 0.000e+00 at row 1 below tolerance 4.441e-16"

    def test_alpha_validation(self) -> None:
        with pytest.raises(DomainError):
            build_pade(1.5, 1.0, 4, 3)

    @pytest.mark.parametrize("solver", ["qr", "", "LU", None])
    def test_unknown_solver_is_domain_error(self, solver: object) -> None:
        # the Enum's bare ValueError escaped `except MittleffError`
        with pytest.raises(DomainError, match="not one of 'fixed', 'svd', 'lu'"):
            build_pade(0.5, 1.0, 4, 3, solver)

    @pytest.mark.parametrize("solver", ["fixed", "svd", "lu"])
    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_beta_validation(self, beta: float, solver: str) -> None:
        with pytest.raises(DomainError):
            build_pade(0.5, beta, 6, 5, solver)

    @pytest.mark.parametrize("solver", ["fixed", "svd", "lu"])
    @pytest.mark.parametrize("beta", [-170.0, -400.0, -1.7e308])
    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_overflowing_coefficients_are_domain_error(self, alpha: float, beta: float, solver: str) -> None:
        # Gamma overflows in the matching conditions: p and q were NaN, and
        # at -1.7e308 the reflection's sin raised a bare ValueError
        with pytest.raises(DomainError, match="not finite"):
            build_pade(alpha, beta, 6, 5, solver)

    def test_large_negative_beta_keeps_its_value(self) -> None:
        # E[0.5, -150](-2) = -2.89001961478e261 from the series at 400 digits
        assert pade_eval(build_pade(0.5, -150.0, 6, 5), 2.0) == pytest.approx(-2.89001961478e261, rel=1e-7)
        assert all(math.isfinite(c) for c in build_pade(0.5, -165.0, 6, 5).q)

    def test_alpha_one_stays_singular(self) -> None:
        # finite coefficients: the solver, not the assembly, reports the system
        with pytest.raises(SingularSystemError):
            build_pade(1.0, -150.0, 6, 5)


class TestApproximationQuality:
    def test_matches_function_at_one(self) -> None:
        ap = build_pade(0.5, 1.0, 6, 5)
        want = ml_auto(complex(-1.0), 0.5, 1.0).value.real
        assert pade_eval(ap, 1.0) == pytest.approx(want, abs=1e-5)

    def test_origin_value(self) -> None:
        ap = build_pade(0.7, 1.3, 6, 5)
        assert pade_eval(ap, 0.0) == pytest.approx(1.0 / math.gamma(1.3), rel=1e-12)

    def test_far_field_decay_coefficient(self) -> None:
        # two-point matching forces x*p(x)/q(x) -> b_1 at infinity
        ap = build_pade(0.5, 1.0, 6, 5)
        b1 = series_coeff_b(1, 0.5, 1.0)
        assert 1e8 * pade_eval(ap, 1e8) == pytest.approx(b1, rel=1e-3)

    def test_maclaurin_match_by_series_division(self) -> None:
        # recover the rational function's Taylor coefficients by long
        # division and compare with the target series
        alpha, beta, m, n = 0.2, 1.0, 9, 8
        ap = build_pade(alpha, beta, m, n)
        r = ap.r
        c: list[float] = []
        for k in range(m):
            pk = ap.p[k] if k <= r else 0.0
            acc = pk - sum(ap.q[j] * c[k - j] for j in range(1, min(k, r) + 1))
            c.append(acc / ap.q[0])
        for k in range(m):
            want = series_coeff_a(k, alpha, beta)
            assert c[k] == pytest.approx(want, rel=2e-4, abs=1e-10)

    def test_linear_case_closed_form(self) -> None:
        ap = build_pade(0.5, 1.0, 1, 2)
        a0 = series_coeff_a(0, 0.5, 1.0)
        b1 = series_coeff_b(1, 0.5, 1.0)
        assert ap.p[0] == pytest.approx(a0, rel=1e-14)
        assert ap.q[1] == pytest.approx(a0 / b1, rel=1e-14)


class TestEvaluation:
    def test_negative_x_rejected(self) -> None:
        ap = build_pade(0.5, 1.0, 4, 3)
        with pytest.raises(DomainError):
            pade_eval(ap, -0.1)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_x_rejected(self, x: float) -> None:
        # NaN passed the old x < 0 test and came back as a NaN value
        ap = build_pade(0.5, 1.0, 4, 3)
        with pytest.raises(DomainError):
            pade_eval(ap, x)

    def test_denominator_zero_reported(self) -> None:
        bad = PadeApproximant(0.5, 1.0, 1, 2, 1, (1.0, 0.0), (-1.0, 1.0), PadeSolver.FIXED_Q0)
        with pytest.raises(PoleError):
            pade_eval(bad, 1.0)

    def test_overflowing_sums_fall_back_to_reciprocal(self) -> None:
        # both Horner sums overflow from x ~ 1e45 on, and inf/inf was NaN
        ap = build_pade(0.5, 1.0, 9, 8)
        r = ap.r
        for x in (1e45, 1e100, 1e300):
            want = ap.p[r - 1] / (ap.q[r] * x)
            assert pade_eval(ap, x) == pytest.approx(want, rel=1e-14, abs=0.0)

    @settings(
        derandomize=True,
        max_examples=300,
        database=None,
        deadline=None,
        phases=[Phase.explicit, Phase.generate, Phase.shrink],
    )
    @given(fit=st.sampled_from(FITS), x=st.floats(0.0, 1e3))
    def test_one_pass_matches_horner_quotient(self, fit: tuple[float, int, str], x: float) -> None:
        ap, pf = fitted(*fit)
        direct = pade_eval(ap, x)
        assert direct == _horner(ap.p, x) / _horner(ap.q, x)
        recon = pf.evaluate_at(x)
        assert type(recon) is float
        # test_reconstruction's bound, plus the rounding of the sum itself: at
        # alpha = 1 every b_k is 0, p/q decays faster than its terms and the
        # sum cancels (r = 7, x = 912: terms of size 1e-2 in all, a value of 2e-21)
        terms = sum(abs(c / (p - x)) for p, c in zip(pf.poles, pf.residues))
        assert abs(recon - direct) <= 1e-10 * abs(direct) + 1e-14 * terms


class TestPartialFractions:
    # pole errors grow with r and as alpha falls; alpha = 0.2 reaches 3e-10 from r = 10 on
    @pytest.mark.parametrize("alpha, r", [(0.5, 7), (0.5, 10), (0.5, 12), (0.2, 8), (0.9, 12)])
    def test_reconstruction(self, alpha: float, r: int) -> None:
        ap = build_pade(alpha, 1.0, r + 1, r)
        pf = partial_fractions(ap)
        for i in range(60):
            x = 50.0 * i / 59.0
            direct = pade_eval(ap, x)
            recon = pf.evaluate_at(x)
            assert abs(recon - direct) <= 1e-10 * abs(direct)

    def test_poles_avoid_evaluation_ray(self) -> None:
        ap = build_pade(0.5, 1.0, 12, 11)
        pf = partial_fractions(ap)
        assert len(pf.poles) == 11
        for pole in pf.poles:
            assert not (pole.imag == 0.0 and pole.real >= 0.0)

    # LAPACK returns the complex eigenvalues of the real companion matrix in
    # exact conjugate pairs, and the complex Newton step keeps them so, with
    # no re-pairing pass.  Only the upper pole of a pair gets a residue
    # computed; the lower one takes its exact conjugate
    @pytest.mark.parametrize("alpha, r, solver", FITS)
    def test_conjugate_pairing_is_exact(self, alpha: float, r: int, solver: str) -> None:
        _, pf = fitted(alpha, r, solver)
        residue_of = dict(zip(pf.poles, pf.residues))
        assert len(residue_of) == r
        for pole, res in residue_of.items():
            if pole.imag != 0.0:
                assert pole.conjugate() in residue_of
                assert residue_of[pole.conjugate()] == res.conjugate()

    def test_far_field_keeps_its_digits(self) -> None:
        # |a - x|**2 overflows here: the pair terms are taken in Smith form
        ap, pf = fitted(0.5, 7, "fixed")
        got = pf.evaluate_at(1e200)
        assert got != 0.0
        assert got == pytest.approx(pade_eval(ap, 1e200), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_x_rejected(self, x: float) -> None:
        _, pf = fitted(0.5, 7, "fixed")
        with pytest.raises(DomainError):
            pf.evaluate_at(x)

    def test_complex_x_rejected(self) -> None:
        _, pf = fitted(0.5, 7, "fixed")
        with pytest.raises(TypeError):
            pf.evaluate_at(1.0 + 0j)

    def test_real_pole_is_pole_error(self) -> None:
        # a bare ZeroDivisionError before; pade_eval raises PoleError where q = 0
        with pytest.raises(PoleError):
            PartialFractionForm((-2.0 + 0j,), (1.0 + 0j,)).evaluate_at(-2.0)
        pf = partial_fractions(build_pade(0.5, 1.0, 6, 5))
        (pole,) = [p.real for p in pf.poles if p.imag == 0.0]
        with pytest.raises(PoleError):
            pf.evaluate_at(pole)

    def test_unpaired_pole_rejected(self) -> None:
        with pytest.raises(DomainError):
            PartialFractionForm((-1.0 + 2.0j,), (1.0 + 0j,))
        with pytest.raises(DomainError):
            PartialFractionForm((-1.0 - 2.0j, -1.0 + 2.0j), (1.0 + 1.0j, 1.0 + 1.0j))

    def test_real_poles_and_pairs_sum_as_complex_terms(self) -> None:
        poles = (-3.0 + 0j, -1.0 - 2.0j, -1.0 + 2.0j)
        residues = (0.5 + 0j, 0.25 - 1.5j, 0.25 + 1.5j)
        pf = PartialFractionForm(poles, residues)
        for x in (0.0, 0.7, 40.0):
            want = sum(c / (p - x) for p, c in zip(poles, residues))
            assert pf.evaluate_at(x) == pytest.approx(want.real, rel=1e-15, abs=0.0)

    def test_clustered_roots_reported(self) -> None:
        # double-root-like denominator: (1 + x)(1 + (1+1e-10) x)
        squeezed = PadeApproximant(
            0.5, 1.0, 3, 2, 2, (1.0, 0.5, 0.0), (1.0 + 1e-10, 2.0 + 1e-10, 1.0), PadeSolver.FIXED_Q0
        )
        with pytest.raises(ClusteredRootsError):
            partial_fractions(squeezed)

    def test_exact_double_root_reported(self) -> None:
        # (1 + x)**2: the eigenvalues come out exactly equal, where q' = 0
        double = PadeApproximant(
            0.5, 1.0, 3, 2, 2, (1.0, 0.5, 0.0), (1.0, 2.0, 1.0), PadeSolver.FIXED_Q0
        )
        with pytest.raises(ClusteredRootsError):
            partial_fractions(double)

    def test_degenerate_leading_coefficient_rejected(self) -> None:
        flat = PadeApproximant(
            0.5, 1.0, 3, 2, 2, (1.0, 0.5, 0.0), (1.0, 1.0, 1e-16), PadeSolver.FIXED_Q0
        )
        with pytest.raises(DomainError):
            partial_fractions(flat)


class TestCsv:
    def test_coefficients_layout(self) -> None:
        ap = build_pade(0.5, 1.0, 2, 1)
        text = coefficients_csv(ap)
        lines = text.splitlines()
        assert lines[0] == "index,p,q"
        assert len(lines) == ap.r + 2
        assert text.endswith("\n") and "\r" not in text
        idx, p0, q0 = lines[1].split(",")
        assert idx == "0" and float(p0) == ap.p[0] and float(q0) == ap.q[0]

    def test_partial_fraction_layout(self) -> None:
        pf = partial_fractions(build_pade(0.5, 1.0, 4, 3))
        text = partial_fractions_csv(pf)
        lines = text.splitlines()
        assert lines[0] == "re_pole,im_pole,re_residue,im_residue"
        assert len(lines) == len(pf.poles) + 1
        first = lines[1].split(",")
        assert complex(float(first[0]), float(first[1])) == pf.poles[0]
