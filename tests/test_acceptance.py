"""End-to-end gate: eight numbered checks against closed forms and
independent references, each with an accuracy target and a time budget.

Every test prints a single `criterion N: PASS/FAIL` line to the real
terminal so the outcome is visible regardless of capture settings.
"""

import cmath
import math
import time

import numpy as np

from mp_reference import ml_reference
from real_axis_reference import f_plain, f_split, ml_quad_neg_axis_wide_alpha

from mittleff.asymptotic import ml_asymptotic
from mittleff.contours import build_hyperbolic_rule, build_parabolic_rule
from mittleff.dispatch import ml_auto
from mittleff.kernels import cpow_principal, reciprocal_gamma
from mittleff.pade import (
    assemble_pade_matrix,
    build_pade,
    pade_eval,
    partial_fractions,
)
from mittleff.quadrature import f_one, ml_quad, q_sum

HYP14 = build_hyperbolic_rule(14)


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestAcceptance:
    def test_criterion_1_closed_form_oracles(self, capsys) -> None:
        t0 = time.perf_counter()
        worst_exp = 0.0
        for re in np.linspace(-5.0, 5.0, 10):
            for im in np.linspace(-5.0, 5.0, 10):
                z = complex(re, im)
                ref = cmath.exp(z)
                worst_exp = max(worst_exp, abs(ml_auto(z, 1.0, 1.0).value - ref) / abs(ref))
        worst_cosh = 0.0
        for k in range(59):
            z = complex(-25.0 + 0.5 * k)
            ref = cmath.cosh(cmath.sqrt(z))
            worst_cosh = max(worst_cosh, abs(ml_auto(z, 2.0, 1.0).value - ref) / abs(ref))
        elapsed = time.perf_counter() - t0
        ok = worst_exp <= 1e-11 and worst_cosh <= 1e-10 and elapsed < 1.0
        _report(capsys, 1, ok, f"exp {worst_exp:.2e}, cosh {worst_cosh:.2e}, {elapsed:.2f}s")
        assert worst_exp <= 1e-11
        assert worst_cosh <= 1e-10
        assert elapsed < 1.0

    def test_criterion_2_expansion_table(self, capsys) -> None:
        # reference tail magnitudes the estimates must land within 10x of
        tail_targets = {15.0: 8.24e-13, 25.0: 3.70e-13, 35.0: 8.15e-13, 45.0: 8.49e-14, 55.0: 2.34e-13}
        t0 = time.perf_counter()
        worst_err = 0.0
        ratios_ok = True
        for x, target in tail_targets.items():
            res = ml_asymptotic(complex(-x), 0.7, 1.0, 1e-12)
            ref = ml_quad(complex(-x), 0.7, 1.0, HYP14).value
            worst_err = max(worst_err, abs(res.value - ref))
            ratios_ok = ratios_ok and target / 10.0 <= res.err_estimate <= target * 10.0
        res5 = ml_asymptotic(complex(-5.0), 0.7, 1.0, 1e-12)
        ref5 = ml_quad(complex(-5.0), 0.7, 1.0, HYP14).value
        err5 = abs(res5.value - ref5)
        elapsed = time.perf_counter() - t0
        ok = worst_err <= 1e-12 and ratios_ok and 1e-6 <= err5 <= 1e-4 and elapsed < 1.0
        _report(
            capsys, 2, ok,
            f"converged err {worst_err:.2e}, est ratios ok {ratios_ok}, x=5 err {err5:.2e}, {elapsed:.2f}s",
        )
        assert worst_err <= 1e-12
        assert ratios_ok
        assert 1e-6 <= err5 <= 1e-4
        assert elapsed < 1.0

    def test_criterion_3_convergence_rates(self, capsys) -> None:
        # e**(x*x)*erfc(x) at the three abscissas, 60-digit values
        refs = {
            0.5: 0.615690344192925874871,
            2.0: 0.255395676310505743865,
            5.0: 0.11070463773306862637,
        }
        t0 = time.perf_counter()
        worst = {"par": math.inf, "hyp": math.inf}
        for name, build, base in (("par", build_parabolic_rule, 8.12), ("hyp", build_hyperbolic_rule, 10.13)):
            for x, ref in refs.items():
                ns, logs = [], []
                for n in range(4, 13):
                    err = abs(ml_quad(complex(-x), 0.5, 1.0, build(n)).value - ref)
                    if err > 1e-14:
                        ns.append(n)
                        logs.append(math.log(err))
                slope = np.polyfit(np.array(ns), np.array(logs), 1)[0]
                worst[name] = min(worst[name], math.exp(-slope))
        elapsed = time.perf_counter() - t0
        ok = worst["par"] >= 8.12 * 0.8 and worst["hyp"] >= 10.13 * 0.8 and elapsed < 5.0
        _report(
            capsys, 3, ok,
            f"rate/step par {worst['par']:.2f} (>=6.50), hyp {worst['hyp']:.2f} (>=8.10), {elapsed:.2f}s",
        )
        assert worst["par"] >= 8.12 * 0.8
        assert worst["hyp"] >= 10.13 * 0.8
        assert elapsed < 5.0

    def test_criterion_4_plane_error_maxima(self, capsys) -> None:
        t0 = time.perf_counter()
        par = build_parabolic_rule(10)
        hyp = build_hyperbolic_rule(10)
        worst_par = worst_hyp = 0.0
        for re in np.linspace(-5.0, 3.0, 50):
            for im in np.linspace(-4.0, 4.0, 50):
                z = complex(re, im)
                if abs(z) < 0.1:
                    continue
                ref = complex(ml_reference(z, 0.5, 1.0))
                worst_par = max(worst_par, abs(ml_quad(z, 0.5, 1.0, par).value - ref))
                worst_hyp = max(worst_hyp, abs(ml_quad(z, 0.5, 1.0, hyp).value - ref))
        elapsed = time.perf_counter() - t0
        ok = worst_par <= 5e-9 and worst_hyp <= 5e-10 and elapsed < 30.0
        _report(
            capsys, 4, ok,
            f"par {worst_par:.2e} (<=5e-9), hyp {worst_hyp:.2e} (<=5e-10), {elapsed:.1f}s",
        )
        assert worst_par <= 5e-9
        assert worst_hyp <= 5e-10
        assert elapsed < 30.0

    def test_criterion_5_solver_equivalence(self, capsys) -> None:
        t0 = time.perf_counter()
        aps = [build_pade(0.2, 1.0, 9, 8, s) for s in ("fixed", "svd", "lu")]
        worst = 0.0
        for k in range(200):
            x = 10.0 ** (-3.0 + 6.0 * k / 199.0)
            vals = [pade_eval(ap, x) for ap in aps]
            worst = max(worst, abs(vals[0] - vals[1]), abs(vals[0] - vals[2]), abs(vals[1] - vals[2]))
        C = assemble_pade_matrix(0.2, 1.0, 9, 8)
        cond = float(np.linalg.cond(np.delete(C, 8, axis=1)))
        elapsed = time.perf_counter() - t0
        ok = worst <= 5e-15 and 1e12 <= cond <= 1e14 and elapsed < 1.0
        _report(capsys, 5, ok, f"pairwise {worst:.2e} (<=5e-15), cond {cond:.2e}, {elapsed:.2f}s")
        assert worst <= 5e-15
        assert 1e12 <= cond <= 1e14
        assert elapsed < 1.0

    def test_criterion_6_accuracy_trends(self, capsys) -> None:
        t0 = time.perf_counter()
        xs = np.linspace(0.0, 100.0, 400)

        def max_err(alpha: float, m: int, n: int, refs: list) -> float:
            ap = build_pade(alpha, 1.0, m, n)
            return max(abs(pade_eval(ap, x) - ref) for x, ref in zip(xs, refs))

        refs_half = [ml_auto(complex(-x), 0.5, 1.0).value.real for x in xs]
        by_r = [max_err(0.5, r + 1, r, refs_half) for r in (2, 3, 4, 5)]
        by_alpha = []
        for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
            refs = [ml_auto(complex(-x), alpha, 1.0).value.real for x in xs]
            by_alpha.append(max_err(alpha, 6, 5, refs))
        elapsed = time.perf_counter() - t0
        decreasing = all(a > b for a, b in zip(by_r, by_r[1:]))
        increasing = all(a < b for a, b in zip(by_alpha, by_alpha[1:]))
        ok = decreasing and increasing and elapsed < 5.0
        _report(
            capsys, 6, ok,
            f"order sweep {['%.1e' % e for e in by_r]} decreasing {decreasing}, "
            f"alpha sweep increasing {increasing}, {elapsed:.2f}s",
        )
        assert decreasing
        assert increasing
        assert elapsed < 5.0

    def test_criterion_7_identities_and_splitting(self, capsys) -> None:
        t0 = time.perf_counter()
        zs = (
            complex(0.9), complex(-0.8), complex(0.0, 0.5), complex(-0.3, 0.4),
            complex(0.6, -0.7), complex(1.0), complex(-1.0), complex(0.2, -0.1),
        )
        worst_shift = 0.0
        for alpha in (0.3, 0.7):
            for beta in (0.8, 1.0, 1.5):
                for z in zs:
                    lhs = ml_auto(z, alpha, beta - alpha).value
                    rhs = reciprocal_gamma(beta - alpha) + z * ml_auto(z, alpha, beta).value
                    worst_shift = max(worst_shift, abs(lhs - rhs))
        worst_red = 0.0
        for alpha in (1.25, 1.5, 1.75):
            for x in (0.5, 1.0, 5.0):
                red = ml_auto(complex(-x), alpha, 1.0).value
                two = ml_quad_neg_axis_wide_alpha(x, alpha, 1.0, HYP14).value
                worst_red = max(worst_red, abs(two - red))
        # pole-removed integrand: kernel form vs direct difference at one w
        alpha, beta = 0.5, 1.3
        z = complex(2.0, 1.0)
        gamma = cpow_principal(z, 1.0 / alpha)
        worst_switch = 0.0
        for eps in (0.1 * (1.0 - 1e-9), -0.1 * (1.0 - 1e-9)):
            w = gamma * (1.0 + eps)
            kernel_form = f_one(w, alpha, beta, gamma)
            direct = f_split(w, z, alpha, beta, gamma)
            worst_switch = max(worst_switch, abs(kernel_form - direct) / abs(direct))
        elapsed = time.perf_counter() - t0
        ok = worst_shift <= 1e-12 and worst_red <= 1e-11 and worst_switch <= 1e-12 and elapsed < 2.0
        _report(
            capsys, 7, ok,
            f"shift {worst_shift:.2e}, two-pole {worst_red:.2e}, switch {worst_switch:.2e}, {elapsed:.2f}s",
        )
        assert worst_shift <= 1e-12
        assert worst_red <= 1e-11
        assert worst_switch <= 1e-12
        assert elapsed < 2.0

    def test_criterion_8_partial_fractions(self, capsys) -> None:
        t0 = time.perf_counter()
        alpha, beta = 0.5, 1.0
        rule = HYP14
        weights_nodes = list(zip(rule.weights, rule.nodes))
        weights_nodes += [(c.conjugate(), w.conjugate()) for c, w in weights_nodes[1:]]
        worst_quad = 0.0
        for k in range(20):
            z = (0.3 + 0.45 * k) * cmath.exp(1j * math.pi)
            direct = q_sum(rule, lambda w: f_plain(w, z, alpha, beta), False)
            rational = sum(
                -rule.A * c * cpow_principal(w, alpha - beta) / (z - cpow_principal(w, alpha))
                for c, w in weights_nodes
            )
            worst_quad = max(worst_quad, abs(direct - rational) / abs(direct))
        ap = build_pade(0.5, 1.0, 8, 7)
        pf = partial_fractions(ap)
        worst_pf = 0.0
        for k in range(60):
            x = 50.0 * k / 59.0
            direct = pade_eval(ap, x)
            worst_pf = max(worst_pf, abs(pf.evaluate_at(x) - direct) / abs(direct))
        elapsed = time.perf_counter() - t0
        ok = worst_quad <= 1e-13 and worst_pf <= 1e-10 and elapsed < 1.0
        _report(
            capsys, 8, ok,
            f"quadrature form {worst_quad:.2e} (<=1e-13), rational fit {worst_pf:.2e} (<=1e-10), {elapsed:.2f}s",
        )
        assert worst_quad <= 1e-13
        assert worst_pf <= 1e-10
        assert elapsed < 1.0
