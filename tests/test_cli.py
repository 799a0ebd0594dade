import cmath
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import grid_reference
from mittleff import cli
from mittleff.cli import _abs_diff, _merge_negative_values, main
from mittleff.engine import ENGINE_CHUNK

# a rectangle through z = 0, with the negative real axis on its grid rows
_RECT = ("--alpha", "0.5", "--beta", "1", "--re-min=-5", "--re-max", "3", "--im-min=-4", "--im-max", "4")
VALUE_LINE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3} -?\d\.\d{16}e[+-]\d{2,3}$")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgvPreprocessing:
    def test_negative_value_is_folded(self) -> None:
        assert _merge_negative_values(["--z", "-15"]) == ["--z=-15"]
        assert _merge_negative_values(["--z", "-.5,2"]) == ["--z=-.5,2"]

    def test_only_numeric_lookahead_is_folded(self) -> None:
        assert _merge_negative_values(["--method", "-x"]) == ["--method", "-x"]
        assert _merge_negative_values(["--z=-1", "-2"]) == ["--z=-1", "-2"]
        assert _merge_negative_values(["--z"]) == ["--z"]

    def test_mixed_stream(self) -> None:
        got = _merge_negative_values(["eval", "--re-min", "-5", "--steps", "3"])
        assert got == ["eval", "--re-min=-5", "--steps", "3"]

    # no explain phase: it writes patch files and imports modules that warn
    @settings(derandomize=True, max_examples=500, database=None, deadline=None, phases=[Phase.generate, Phase.shrink])
    @given(st.lists(st.sampled_from(["--z", "-1", "-1e-3", "-.5,2", "-x", "--", "-", "--z=-1", "-²", ""]), max_size=12))
    def test_one_pass_matches_the_lookahead(self, argv: list[str]) -> None:
        assert _merge_negative_values(argv) == grid_reference._merge_negative_values(argv)

    @pytest.mark.parametrize("z, want", [("-1e-3", -1e-3), ("-1.5,2", complex(-1.5, 2.0))])
    def test_exponent_and_complex_values_reach_main(self, capsys, z: str, want: complex) -> None:
        # argparse alone rejects "--z -1e-3" and "--z -1.5,2": expected one argument
        code, out, _ = run(capsys, "eval", "--alpha", "1", "--beta", "1", "--z", z)
        assert code == 0
        re_part, im_part = out.splitlines()[0].split()
        assert complex(float(re_part), float(im_part)) == pytest.approx(cmath.exp(want), rel=1e-13)

    def test_exponent_bounds_reach_the_grid(self, capsys) -> None:
        code, out, _ = run(
            capsys, "grid", "--alpha", "1", "--beta", "1", "--re-min", "-5e-1", "--re-max", "0",
            "--im-min", "-2.5e-1", "--im-max", "0", "--steps", "2", "--out", "-",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("-0.5,-0.25,")


class TestEval:
    def test_exponential_point(self, capsys) -> None:
        code, out, _ = run(capsys, "eval", "--alpha", "1", "--beta", "1", "--z", "1")
        lines = out.splitlines()
        assert code == 0
        assert VALUE_LINE.match(lines[0])
        val = float(lines[0].split()[0])
        assert val == pytest.approx(math.e, rel=1e-13)
        assert lines[1] == "method: series"
        assert lines[2].startswith("terms: ")
        assert lines[3].startswith("err_estimate: ")

    def test_negative_real_argument_parses(self, capsys) -> None:
        code, out, _ = run(capsys, "eval", "--alpha", "0.7", "--beta", "1", "--z", "-25")
        assert code == 0
        assert "method: asymp" in out

    @pytest.mark.parametrize(
        "method, z, count",
        [("series", "0.9", "terms: 30"), ("asymp", "-25", "terms: 12"), ("quad-hyp", "3", "nodes: 29")],
        ids=["series", "asymp", "quad-hyp"],
    )
    def test_forced_method_matches_auto_bitwise(self, capsys, method: str, z: str, count: str) -> None:
        common = ("--alpha", "0.5", "--beta", "1", "--z", z)
        code_auto, out_auto, _ = run(capsys, "eval", *common)
        code_forced, out_forced, _ = run(capsys, "eval", *common, "--method", method)
        assert code_auto == code_forced == 0
        assert f"method: {method}" in out_auto
        assert count in out_auto
        assert out_auto == out_forced

    def test_unconverged_series_falls_back_but_forced_series_fails(self, capsys) -> None:
        # alpha = 0.01 at |z| = 0.99: the series stops at 250 terms, 1.2e-2 off
        common = ("--alpha", "0.01", "--beta", "1", "--z", "0.99")
        code, out, _ = run(capsys, "eval", *common)
        assert code == 0
        assert "method: quad-hyp" in out
        code, out, err = run(capsys, "eval", *common, "--method", "series")
        assert code == 3
        assert "method: series" in out
        assert "not converged" in err

    def test_forced_series_whose_power_overflows_fails(self, capsys) -> None:
        # z**n overflows at n = 40: the series printed -inf and exited 0,
        # where E[3.9, 1](-1e8) is 3.19e33
        code, out, err = run(capsys, "eval", "--alpha", "3.9", "--beta", "1", "--z=-1e8", "--method", "series")
        assert code == 3
        assert out.split()[0] == "-inf" and "method: series" in out
        assert "not converged" in err

    def test_node_override(self, capsys) -> None:
        code, out, _ = run(
            capsys, "eval", "--alpha", "0.5", "--beta", "1", "--z", "3",
            "--method", "quad-par", "--N", "8",
        )
        assert code == 0
        assert "method: quad-par" in out
        assert "nodes: 17" in out

    @pytest.mark.parametrize("method", ["auto", "series", "asymp"])
    def test_node_override_without_quadrature_is_usage_error(self, capsys, method: str) -> None:
        # --N was ignored here: the value printed, and the exit code was 0
        code, out, err = run(
            capsys, "eval", "--alpha", "0.5", "--beta", "1", "--z", "3",
            "--method", method, "--N", "3",
        )
        assert (code, out) == (2, "")
        assert "--N" in err

    def test_complex_argument(self, capsys) -> None:
        code, out, _ = run(capsys, "eval", "--alpha", "1", "--beta", "1", "--z", "0,1")
        re_v, im_v = (float(f) for f in out.splitlines()[0].split())
        assert code == 0
        assert re_v == pytest.approx(math.cos(1.0), rel=1e-12)
        assert im_v == pytest.approx(math.sin(1.0), rel=1e-12)


class TestExitCodes:
    def test_invalid_alpha_is_usage_error(self, capsys) -> None:
        code, _, err = run(capsys, "eval", "--alpha", "0", "--beta", "1", "--z", "1")
        assert code == 2
        assert "alpha" in err

    def test_nan_alpha_is_usage_error(self, capsys) -> None:
        code, _, err = run(capsys, "eval", "--alpha", "nan", "--beta", "1", "--z", "2")
        assert code == 2
        assert "alpha" in err
        for z in ("nan", "1,nan"):
            code, _, err = run(capsys, "eval", "--alpha", "0.5", "--beta", "1", "--z", z)
            assert code == 2
            assert "NaN" in err
        code, _, _ = run(
            capsys, "grid", "--alpha", "nan", "--beta", "1",
            "--re-min", "1", "--re-max", "2", "--im-min", "0", "--im-max", "1",
            "--steps", "2", "--out", "-",
        )
        assert code == 2

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_nonfinite_beta_is_usage_error(self, capsys, beta: str) -> None:
        commands = [
            ("eval", "--alpha", "0.5", "--z", "2"),
            ("eval", "--alpha", "0.5", "--z", "2", "--method", "series"),
            ("pade", "--alpha", "0.5", "--m", "6", "--n", "5", "--emit", "pf"),
            ("pade", "--alpha", "0.5", "--m", "6", "--n", "5"),
            (
                "grid", "--alpha", "0.5", "--re-min", "1", "--re-max", "2",
                "--im-min", "0", "--im-max", "1", "--steps", "2", "--out", "-",
            ),
            ("table-asymp", "--alpha", "0.5"),
        ]
        for argv in commands:
            code, _, err = run(capsys, *argv, "--beta", beta)
            assert code == 2, argv
            assert "beta" in err

    def test_out_of_range_tol_is_usage_error(self, capsys) -> None:
        code, _, _ = run(
            capsys, "eval", "--alpha", "1", "--beta", "1", "--z", "1", "--tol", "1e-20"
        )
        assert code == 2

    def test_missing_required_flag(self, capsys) -> None:
        code, _, _ = run(capsys, "eval", "--alpha", "1", "--z", "1")
        assert code == 2

    def test_malformed_complex(self, capsys) -> None:
        code, _, _ = run(capsys, "eval", "--alpha", "1", "--beta", "1", "--z", "1,2,3")
        assert code == 2

    def test_even_order_sum_rejected(self, capsys) -> None:
        code, _, _ = run(capsys, "pade", "--alpha", "0.5", "--beta", "1", "--m", "4", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("beta", ["-170", "-400", "-1.7e308"])
    def test_overflowing_pade_coefficients_are_usage_error(self, capsys, beta: str) -> None:
        # rows of NaN with exit 0 before, and a traceback at -1.7e308
        for emit in ("coeffs", "pf", "errgrid"):
            code, out, err = run(
                capsys, "pade", "--alpha", "0.5", f"--beta={beta}", "--m", "6", "--n", "5", "--emit", emit
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "beta" in err

    def test_unconverged_expansion_is_numerical_failure(self, capsys) -> None:
        code, out, err = run(
            capsys, "eval", "--alpha", "0.7", "--beta", "1", "--z", "-5",
            "--method", "asymp", "--tol", "1e-12",
        )
        assert code == 3
        assert "not converged" in err
        assert VALUE_LINE.match(out.splitlines()[0])

    @pytest.mark.parametrize("method", ["auto", "series", "asymp", "quad-hyp"])
    def test_z_whose_modulus_overflows_is_usage_error(self, capsys, method: str) -> None:
        # a traceback and exit 1 under auto; inf+nanj under quad-hyp
        argv = ("--alpha", "0.5", "--beta", "1", "--method", method)
        code, out, err = run(capsys, "eval", *argv, "--z", "1.5e308,1.5e308")
        assert (code, out) == (2, "") and err.startswith("error:") and "overflows" in err
        grid = ("--re-min", "1.5e308", "--re-max", "1.5e308", "--im-min", "1.5e308", "--im-max", "1.5e308")
        argv = ("--alpha", "0.5", "--beta", "1", "--compare-method", f"{method},auto")
        code, out, err = run(capsys, "grid", *argv, *grid, "--steps", "1", "--out", "-")
        assert (code, out) == (2, "") and err.startswith("error:")

    def test_node_factor_overflow_is_usage_error(self, capsys) -> None:
        code, out, err = run(capsys, "eval", "--alpha", "0.5", "--beta", "-200", "--z", "-5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "beta" in err

    def test_quadrature_at_origin_succeeds(self, capsys) -> None:
        # z = 0 has no pole: quadrature sums the plain column, 1/Gamma(1) = 1
        # to about 4e-14 (it gave NaN and exit 3)
        code, out, err = run(
            capsys, "eval", "--alpha", "0.5", "--beta", "1", "--z", "0",
            "--method", "quad-hyp",
        )
        assert code == 0 and err == ""
        assert abs(float(out.split()[0]) - 1.0) <= 1e-13

    def test_nan_value_is_numerical_failure(self, capsys) -> None:
        # the two-pole row's weight x**((1-beta)/alpha) overflows while its
        # residues do not vanish (|e**gamma| = 1 at alpha = 2): the value is
        # NaN and exit 3; an overflow in that row was once a traceback and exit 1
        code, out, err = run(capsys, "eval", "--alpha", "2", "--beta=-3", "--z=-1e160", "--method", "quad-hyp")
        assert code == 3
        assert out.split()[0] == "nan" and "NaN" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eval", "--alpha", "0.5", "--beta", "1", "--z", "abc"), "argument --z: bad complex value 'abc'"),
            (("table-asymp", "--x", "1,abc"), "argument --x: bad number list '1,abc'"),
            (("table-asymp", "--x", ","), "argument --x: empty number list"),
        ],
        ids=["complex", "float-list", "empty-list"],
    )
    def test_unparsable_value_is_usage_error(self, capsys, argv: tuple, message: str) -> None:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err

    def test_no_grid_steps_is_usage_error(self, capsys) -> None:
        code, _, err = run(
            capsys, "grid", "--alpha", "0.5", "--beta", "1", "--re-min", "0", "--re-max", "1",
            "--im-min", "0", "--im-max", "1", "--steps", "0", "--out", "-",
        )
        assert code == 2
        assert err == "error: steps=0 must be >= 1\n"

    def test_failed_fit_is_numerical_failure(self, capsys) -> None:
        # a MittleffError that is not a DomainError: the SVD solver's null
        # space at r = 11 and alpha = 0.2 is not one-dimensional
        code, out, err = run(
            capsys, "pade", "--alpha", "0.2", "--beta", "1", "--m", "12", "--n", "11", "--solver", "svd", "--emit", "pf",
        )
        assert code == 3 and out == ""
        assert err == "error: null space is not one-dimensional at working precision\n"

    def test_unwritable_output_is_exit_one(self, capsys, tmp_path: Path) -> None:
        dest = tmp_path / "missing" / "x.csv"
        code, _, err = run(
            capsys, "grid", "--alpha", "0.5", "--beta", "1", "--re-min", "0", "--re-max", "1",
            "--im-min", "0", "--im-max", "1", "--steps", "2", "--out", str(dest),
        )
        assert code == 1
        assert err.startswith("error: [Errno 2] No such file or directory") and not dest.parent.exists()


class TestGrid:
    def test_csv_shape_and_order(self, capsys, tmp_path: Path) -> None:
        dest = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "grid", "--alpha", "1", "--beta", "1",
            "--re-min", "-1", "--re-max", "1", "--im-min", "0", "--im-max", "2",
            "--steps", "3", "--out", str(dest),
        )
        lines = dest.read_text().splitlines()
        assert code == 0
        assert lines[0] == "re,im,value_re,value_im"
        assert len(lines) == 10
        # outer loop over re, inner over im
        assert lines[1].startswith("-1.0,0.0,")
        assert lines[2].startswith("-1.0,1.0,")
        assert lines[4].startswith("0.0,0.0,")

    def test_grid_is_deterministic(self, capsys) -> None:
        args = (
            "grid", "--alpha", "0.5", "--beta", "1",
            "--re-min", "-3", "--re-max", "-1", "--im-min", "1", "--im-max", "2",
            "--steps", "2", "--out", "-",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_compare_column(self, capsys) -> None:
        code, out, _ = run(
            capsys, "grid", "--alpha", "0.5", "--beta", "1",
            "--re-min", "-3", "--re-max", "-2", "--im-min", "1", "--im-max", "2",
            "--steps", "2", "--out", "-", "--compare-method", "auto,quad-hyp",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "re,im,value_re,value_im,log10_abs_err"
        for row in lines[1:]:
            tail = row.split(",")[-1]
            assert tail == "-inf" or float(tail) <= -12.0

    def test_nan_difference_is_not_agreement(self, capsys) -> None:
        # both quadratures give NaN at E[2,-3](-1e160) (the two-pole row's
        # overflow, which exited 1), and finite values at z = 0; a NaN
        # difference used to read -inf
        code, out, _ = run(
            capsys, "grid", "--alpha", "2", "--beta=-3",
            "--re-min=-1e160", "--re-max", "0", "--im-min", "0", "--im-max", "0",
            "--steps", "2", "--out", "-", "--compare-method", "quad-par,quad-hyp",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows[:2] == ["-1e+160,0.0,nan,0.0,nan"] * 2
        assert all(math.isfinite(float(row.split(",")[-1])) for row in rows[2:])

    def test_nan_difference_after_overflow_is_written(self, capsys) -> None:
        # the two-pole row's caught OverflowError (x**2 at x = 1e159, 1e160)
        # leaves ERANGE in errno, every point lies on the axis, so nothing
        # clears it, and the complex abs of the next NaN difference raised
        # OverflowError
        code, out, _ = run(
            capsys, "grid", "--alpha", "2", "--beta=-3",
            "--re-min=-1e160", "--re-max=-1e159", "--im-min", "0", "--im-max", "0",
            "--steps", "2", "--out", "-", "--compare-method", "quad-par,quad-hyp",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 4
        assert all(row.split(",")[-1] == "nan" for row in rows)

    def test_abs_diff_ignores_stale_errno(self) -> None:
        with pytest.raises(OverflowError):
            math.exp(1000.0)  # leaves ERANGE in errno
        nan = complex(math.nan, 0.0)
        assert math.isnan(_abs_diff(nan, nan))
        assert _abs_diff(complex(math.inf, 0.0), complex(0.0, 1.0)) == math.inf
        assert _abs_diff(3 + 4j, 0j) == 5.0

    def test_hypot_column_matches_abs_diff(self) -> None:
        # the grid's comparison column is np.hypot of each block's
        # difference, table-asymp's _abs_diff a Python complex abs: both are
        # libm's hypot, so they agree bit for bit, with inf, NaN, overflowing,
        # subnormal and signed-zero parts, and with a stale ERANGE in errno
        rng = np.random.default_rng(5)
        n = 4000
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -sys.float_info.max]
        with np.errstate(all="ignore"):
            wide = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 309, n)
            tiny = 1e-310 * rng.standard_normal(n)  # subnormal
            pool = np.concatenate([wide, tiny, rng.standard_normal(n), np.repeat(special, 150)])
        a, b = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        for v in (a, b):
            v.real, v.imag = rng.choice(pool, n), rng.choice(pool, n)
        b[::5] = a[::5]
        # NaN first, so the first calls meet the stale errno
        a[:2], b[:2] = complex(math.nan, 0.0), complex(1.0, math.nan)
        with pytest.raises(OverflowError):
            math.exp(1000.0)  # leaves ERANGE in errno
        want = list(map(_abs_diff, a.tolist(), b.tolist()))
        with np.errstate(all="ignore"):
            d = a - b
            got = np.hypot(d.real, d.imag).tolist()

        def bits(x: float) -> tuple | str:
            return "nan" if math.isnan(x) else (x, math.copysign(1.0, x))

        assert list(map(bits, got)) == list(map(bits, want))
        # every kind of difference is there
        assert {math.inf, 0.0} <= set(want) and any(map(math.isnan, want))
        assert any(0.0 < x < sys.float_info.min for x in want)
        assert any(math.isinf(x) and math.isfinite(y.real) and math.isfinite(y.imag) for x, y in zip(want, d.tolist()))

    def test_each_distinct_method_runs_once(self, capsys, monkeypatch) -> None:
        # quad-par and quad-hyp share one engine pass; a method named twice
        # is evaluated once, its comparison column -inf where it is finite
        from mittleff import engine

        passes, points = [], []
        rule_values, evaluate = engine._rule_values, cli._evaluate

        def counted_pass(z, alpha, beta, rules):
            if np.size(z) > 1:  # not ml_auto's quadrature at one point
                passes.append(len(rules))
            return rule_values(z, alpha, beta, rules)

        def counted_point(method, z, args):
            points.append(method)
            return evaluate(method, z, args)

        monkeypatch.setattr(engine, "_rule_values", counted_pass)
        monkeypatch.setattr(cli, "_evaluate", counted_point)
        grid = ("grid", *_RECT, "--steps", "5", "--out", "-", "--compare-method")
        for pair, want_passes, want_points in [
            ("quad-par,quad-hyp", [2], []),
            ("quad-hyp,quad-hyp", [1], []),
            ("auto,auto", [], ["auto"] * 25),
            ("auto,quad-par", [1], ["auto"] * 25),
        ]:
            passes.clear()
            points.clear()
            code, out, _ = run(capsys, *grid, pair)
            assert (code, passes, points) == (0, want_passes, want_points), pair
            if pair in ("quad-hyp,quad-hyp", "auto,auto"):
                assert {row.split(",")[-1] for row in out.splitlines()[1:]} == {"-inf"}

    @pytest.mark.parametrize(
        "bounds",
        [
            ("--re-min", "nan", "--re-max", "1"),
            ("--re-min", "0", "--re-max", "inf"),
            ("--re-min=-1e308", "--re-max", "1e308"),
        ],
    )
    def test_nonfinite_bounds_rejected(self, capsys, bounds: tuple[str, ...]) -> None:
        # the last pair is finite, but the points between them overflow
        code, out, _ = run(
            capsys, "grid", "--alpha", "0.5", "--beta", "1", *bounds,
            "--im-min", "0", "--im-max", "1", "--steps", "3", "--out", "-",
            "--compare-method", "quad-par,quad-hyp",
        )
        assert code == 2
        assert out == ""

    def test_quadrature_rows_match_eval_bitwise(self, capsys) -> None:
        # more points than one engine chunk, and not a multiple of it
        steps = 17
        assert steps * steps > ENGINE_CHUNK and (steps * steps) % ENGINE_CHUNK
        code, out, _ = run(
            capsys, "grid", "--alpha", "0.5", "--beta", "1",
            "--re-min", "-5", "--re-max", "3", "--im-min", "-4", "--im-max", "0",
            "--steps", str(steps), "--out", "-", "--compare-method", "quad-par,quad-hyp",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == steps * steps
        for row in rows:
            re_s, im_s, v_re, v_im, _ = row.split(",")
            _, single, _ = run(
                capsys, "eval", "--alpha", "0.5", "--beta", "1", "--z", f"{re_s},{im_s}",
                "--method", "quad-par",
            )
            # repr compares the sign of zero too (z = 0 is on the grid)
            want = [repr(float(f)) for f in single.splitlines()[0].split()]
            assert [repr(float(v_re)), repr(float(v_im))] == want, row

    @pytest.mark.parametrize(
        "case",
        [
            # through z = 0 and along the negative real axis
            (*_RECT, "--steps", "17", "--compare-method", "quad-par,quad-hyp"),
            (*_RECT, "--steps", "17", "--compare-method", "auto,quad-hyp"),
            (*_RECT, "--steps", "17"),
            (*_RECT, "--steps", "2", "--compare-method", "series,asymp"),
            (*_RECT, "--steps", "17", "--compare-method", "series,asymp"),  # asymp rejects z = 0
            (*_RECT, "--steps", "1", "--compare-method", "quad-par,quad-hyp"),
            ("--alpha", "2.5", *_RECT[4:], "--steps", "17", "--compare-method", "quad-par,quad-hyp"),
            # poles near the origin, which stay in the plain column for beta > 1
            (
                "--alpha", "0.7", "--beta", "2.5", "--re-min=-0.02", "--re-max", "0.02",
                "--im-min=-0.02", "--im-max", "0.02", "--steps", "17", "--compare-method", "quad-par,auto",
            ),
            # a NaN difference after an overflow
            (
                "--alpha", "1", "--beta=-1", "--re-min=-1e300", "--re-max", "1",
                "--im-min", "0", "--im-max", "1", "--steps", "2", "--compare-method", "quad-par,quad-hyp",
            ),
            # a method named twice, evaluated once
            (*_RECT, "--steps", "17", "--compare-method", "quad-hyp,quad-hyp"),
            (*_RECT, "--steps", "9", "--compare-method", "auto,auto"),
            # more than one block of GRID_BLOCK_ROWS rows, the last one short
            (*_RECT, "--steps", "50", "--compare-method", "quad-par,quad-hyp"),
            (*_RECT, "--steps", "47", "--compare-method", "auto,quad-par"),
        ],
    )
    def test_bytes_match_row_writer(self, capsys, monkeypatch, tmp_path: Path, case: tuple[str, ...]) -> None:
        # the column writer against the row-by-row writer it replaced, to
        # stdout and to a file, with the same exit code and error message
        def both(out: str, ref_out: str) -> tuple:
            got = run(capsys, "grid", *case, "--out", out)
            with monkeypatch.context() as m:
                m.setattr(cli, "cmd_grid", grid_reference.cmd_grid)
                want = run(capsys, "grid", *case, "--out", ref_out)
            return got, want

        got, want = both("-", "-")
        assert got == want
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        got, want = both(str(new), str(ref))
        assert got == want
        if got[0] == 0:
            assert new.read_bytes() == ref.read_bytes()
        else:
            assert not new.exists() and not ref.exists()

    def test_overflow_after_the_first_block_writes_nothing(self, capsys, tmp_path: Path) -> None:
        # every value is computed before the output is opened: a point whose
        # modulus overflows in a later block leaves no file and no stdout
        bounds = ("--re-min", "1.24e308", "--re-max", "1.275e308", "--im-min", "1.26e308", "--im-max", "1.27e308")
        steps = 50
        re_axis = cli._linspace(1.24e308, 1.275e308, steps)
        im_axis = cli._linspace(1.26e308, 1.27e308, steps)
        finite = [math.isfinite(math.hypot(re, im)) for re in re_axis for im in im_axis]
        assert all(finite[: cli.GRID_BLOCK_ROWS]) and not all(finite)
        dest = tmp_path / "g.csv"
        grid = ("grid", "--alpha", "0.5", "--beta", "1", *bounds, "--steps", str(steps))
        for pair in ((), ("--compare-method", "quad-par,quad-hyp")):
            for out in ("-", str(dest)):
                code, stdout, err = run(capsys, *grid, *pair, "--out", out)
                assert (code, stdout) == (2, "") and err.startswith("error:") and "overflow" in err
                assert not dest.exists()

    def test_stdout_matches_file_over_several_blocks(self, capsys, tmp_path: Path) -> None:
        dest = tmp_path / "g.csv"
        grid = ("grid", *_RECT, "--steps", "50", "--compare-method", "quad-par,quad-hyp")
        assert 50 * 50 > cli.GRID_BLOCK_ROWS
        code, out, _ = run(capsys, *grid, "--out", "-")
        assert code == 0 and run(capsys, *grid, "--out", str(dest))[0] == 0
        assert dest.read_bytes() == out.encode() and out.count("\n") == 50 * 50 + 1

    def test_peak_memory_per_point(self, tmp_path: Path) -> None:
        # the CSV is written a block of rows at a time: the peak is the
        # engine's pass over the grid, not the text, which took 529 bytes a
        # point when the whole CSV was held
        grid = ["grid", *_RECT, "--compare-method", "quad-par,quad-hyp", "--out", str(tmp_path / "g.csv")]
        assert main([*grid, "--steps", "2"]) == 0
        tracemalloc.start()
        try:
            assert main([*grid, "--steps", "300"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 300 * 300

    def test_bad_compare_pair(self, capsys) -> None:
        code, _, _ = run(
            capsys, "grid", "--alpha", "1", "--beta", "1",
            "--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1",
            "--steps", "2", "--out", "-", "--compare-method", "auto,nope",
        )
        assert code == 2

    def test_node_override_without_quadrature_is_usage_error(self, capsys) -> None:
        grid = (
            "grid", "--alpha", "0.5", "--beta", "1",
            "--re-min", "-3", "--re-max", "-2", "--im-min", "1", "--im-max", "2",
            "--steps", "2", "--out", "-", "--N", "6",
        )
        for pair in (None, "auto,series", "series,asymp"):
            code, out, err = run(capsys, *grid, *(("--compare-method", pair) if pair else ()))
            assert (code, out) == (2, ""), pair
            assert "--N" in err
        # one quadrature method of the two reads it
        code, out, _ = run(capsys, *grid, "--compare-method", "auto,quad-hyp")
        assert code == 0 and len(out.splitlines()) == 5


class TestPade:
    def test_coefficients_to_stdout(self, capsys) -> None:
        code, out, _ = run(capsys, "pade", "--alpha", "0.5", "--beta", "1", "--m", "4", "--n", "3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "index,p,q"
        assert len(lines) == 5

    def test_partial_fraction_emit(self, capsys) -> None:
        code, out, _ = run(
            capsys, "pade", "--alpha", "0.5", "--beta", "1", "--m", "6", "--n", "5",
            "--emit", "pf",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "re_pole,im_pole,re_residue,im_residue"
        assert len(lines) == 6

    def test_error_grid_emit(self, capsys) -> None:
        code, out, _ = run(
            capsys, "pade", "--alpha", "0.5", "--beta", "1", "--m", "6", "--n", "5",
            "--emit", "errgrid",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "x,pade,reference,abs_err"
        assert len(lines) == 101
        worst = max(float(row.split(",")[3]) for row in lines[1:])
        assert worst < 1e-4

    def test_file_output_matches_stdout(self, capsys, tmp_path: Path) -> None:
        dest = tmp_path / "c.csv"
        args = ("pade", "--alpha", "0.5", "--beta", "1", "--m", "4", "--n", "3")
        _, streamed, _ = run(capsys, *args, "--out", "-")
        run(capsys, *args, "--out", str(dest))
        assert dest.read_text() == streamed


class TestAsymptoticTable:
    def test_default_table(self, capsys) -> None:
        code, out, _ = run(capsys, "table-asymp")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 7
        terms = [int(row.split()[1]) for row in lines[1:]]
        assert terms == [15, 16, 12, 10, 10, 9]

    def test_custom_abscissas(self, capsys) -> None:
        code, out, _ = run(capsys, "table-asymp", "--x", "15,55")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 3
        # far out the truncation error sits below the target accuracy
        assert float(lines[2].split()[3]) < 1e-12

    def test_nonpositive_abscissa_rejected(self, capsys) -> None:
        code, _, _ = run(capsys, "table-asymp", "--x", "0")
        assert code == 2

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_nonfinite_abscissa_rejected(self, capsys, x: str) -> None:
        # --x nan hung: the expansion's loop exits compared against NaN
        code, _, _ = run(capsys, "table-asymp", "--x", x)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, inf_columns",
        [
            (("--alpha", "0.5", "--x", "1e200"), {2}),
            (("--alpha", "0.2", "--x", "1e100"), {2}),
            (("--alpha", "0.001"), {2}),
            (("--alpha", "0.9", "--beta=-168", "--x", "1e-5"), {5}),
        ],
    )
    def test_overflowing_column_prints_inf(self, capsys, argv: tuple, inf_columns: set) -> None:
        # x ** (1/alpha) and the tails' exp overflowed: an uncaught OverflowError, exit 1
        code, out, err = run(capsys, "table-asymp", *argv)
        assert code == 0 and err == ""
        for row in out.splitlines()[1:]:
            cells = row.split()
            assert {i for i, cell in enumerate(cells) if cell == "inf"} == inf_columns
            assert all(math.isfinite(float(cell)) for i, cell in enumerate(cells) if i not in inf_columns)
