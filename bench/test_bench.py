"""Tests of the benchmark itself: generators, oracle, span arithmetic, rebinding.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import calib  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs(wl):
    return wl.points if isinstance(wl, workloads.CliGrid) else wl.items


def _warm_inputs(wl):
    if isinstance(wl, workloads.CliGrid):
        argv = wl.warm_argv
        lo_re, hi_re, lo_im, hi_im = (float(argv[argv.index(f"--{k}") + 1]) for k in ("re-min", "re-max", "im-min", "im-max"))
        return [(re, im) for re in (lo_re, hi_re) for im in (lo_im, hi_im)]
    return wl.warm_items


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_per_seed(name, tmp_path):
    first = workloads.make(name, 7, tmp_path)
    again = workloads.make(name, 7, tmp_path)
    other = workloads.make(name, 8, tmp_path)
    assert _inputs(first) == _inputs(again)
    assert _inputs(first) != _inputs(other)
    # a seed moves the points, not the mix of parameters
    if name != "cli_grid":
        assert sorted(i[1:3] for i in first.items) == sorted(i[1:3] for i in other.items)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_warm_up_shares_no_input_with_the_timed_run(name, tmp_path):
    wl = workloads.make(name, 7, tmp_path)
    timed = set(_inputs(wl))
    warm = _warm_inputs(wl)
    assert warm and not timed & set(warm)
    if name == "pade_fit":
        assert {job[0] for job in warm} == set(workloads.PadeFit.ALPHAS)


CLOSED_FORM_CASES = [
    (alpha, beta, x)
    for alpha, beta in ((0.5, 1.0), (0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0))
    for x in (-0.001, -0.7, -3.5, -12.0)
]


@pytest.mark.parametrize("alpha,beta,x", CLOSED_FORM_CASES)
def test_series_reference_agrees_with_closed_form(alpha, beta, x):
    series = oracle.SeriesOracle(alpha, beta, abs(x))
    with mp.workdps(series.dps):
        got = series(x)
        want = oracle.closed_form(x, alpha, beta)
        assert abs(got - want) <= mp.mpf(10) ** -25 * abs(want)


def _close(hi_lo, want, rel) -> bool:
    got = mp.mpf(hi_lo[0]) + mp.mpf(hi_lo[1])
    return abs(got - want) <= rel * abs(want)


def test_negaxis_references_use_closed_forms_and_split_exactly():
    points = [[-2.5, 1.0, 1.0], [-30.0, 1.0, 1.0], [-4.0, 2.0, 1.0], [-1.7, 0.7, 0.7]]
    refs = oracle.negaxis_refs(points)
    with mp.workdps(50):
        assert _close(refs[0], mp.exp(-2.5), 1e-30)
        assert _close(refs[1], mp.exp(-30), 1e-30)
        assert _close(refs[2], mp.cos(2), 1e-30)
        # E[a, a](x) = 1/Gamma(a) + x E[a, 2a](x) ties the beta = alpha series to a second one
        e_07_14 = oracle.SeriesOracle(0.7, 1.4, 1.7)(-1.7)
        assert _close(refs[3], mp.rgamma(0.7) - 1.7 * e_07_14, 1e-28)


def test_half_references_match_the_real_axis_closed_form():
    (re_hi, re_lo, im_hi, im_lo), = oracle.half_refs([[-1.25, 0.0]])
    with mp.workdps(40):
        assert re_hi == float(oracle.closed_form(-1.25, 0.5, 1.0))
    assert im_hi == 0.0 and im_lo == 0.0


def test_pade_reference_of_exp_is_its_own_fit():
    # E[1,1](-x) = exp(-x) = 1 - x + ...; the (2, 1) fit p0 / (1 + q1 x) is 1 / (1 + x)
    (values,) = oracle.pade_refs([{"alpha": 1.0, "beta": 1.0, "r": 1, "x": [0.0, 1.0, 3.0]}])
    assert [v[0] for v in values] == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("r", [2, 5])
def test_pade_reference_matches_the_function_to_order_r_plus_1_at_zero(r):
    # E[1/2,1](-x) = exp(x^2) erfc(x): the fit error is O(x^(r+1)) at small x
    with mp.workdps(60):
        p, q = oracle.pade_coefficients(0.5, 1.0, r)
        errs = []
        for x in (mp.mpf("1e-3"), mp.mpf("2e-3")):
            fit = mp.polyval(p[::-1], x) / mp.polyval(q[::-1], x)
            errs.append(abs(fit - oracle.closed_form(-x, 0.5, 1.0)))
        assert errs[1] / errs[0] == pytest.approx(2 ** (r + 1), rel=0.05)


def test_self_times_on_a_synthetic_span_tree():
    # span 0 "a" [0,10] holds 1 "b" [1,4] (which holds 2 "c" [2,3]) and 3 "a" [5,9]
    name_id = [0, 1, 2, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    selfs = tracing.self_times(name_id, start, end, parent, 3)
    assert list(selfs) == [(10 - 3 - 4) + 4, 3 - 1, 1]
    assert selfs.sum() == 10.0  # self times partition the root span


def test_wrap_records_parents_ops_and_raised_calls():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_rec = tracer.wrap(inner, "kernels.inner")
    outer = tracer.wrap(lambda x: inner_rec(x) + inner_rec(x), "dispatch.outer")
    tracer.op_id = 4
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    assert list(tracer.parent) == [-1, 0, 0, -1, 3]
    assert set(tracer.op) == {4}
    assert tracer.counters["kernels.inner.raised"] == 1
    assert tracer.counters["dispatch.outer.raised"] == 1
    assert tracer.stack == []
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_sampler_scale_uses_the_samples_taken_during_a_stretch():
    sampler = calib.Sampler()
    sampler.at.extend([0.0, 1.0, 2.0, 3.0, 4.0])
    sampler.took.extend([1.0, 2.0, 2.0, 2.0, 4.0])
    nominal = calib.CAL_NOMINAL_S * sampler.SAMPLE_UNITS / calib._UNITS
    assert sampler.scale(0.5, 3.5) == pytest.approx(nominal / 2.0)
    # one sample inside: widened to the nearest three
    assert sampler.scale(3.9, 4.1) == pytest.approx(nominal / (8.0 / 3.0))


def test_sampler_samples_during_a_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler() as sampler:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.took) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.took))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class _FirstCallSlow:
    """A fake workload with a cache on its inputs: a repeat is ten times faster than a first call."""

    name = "first_call_slow"
    ops_per_call = 1
    calls_per_chunk = 4

    def __init__(self) -> None:
        self.items = list(range(16))
        self.seen: set = set()

    def warm_up(self) -> None:
        pass

    def call(self, i):
        t_end = time.perf_counter() + (2e-4 if i in self.seen else 2e-3)
        self.seen.add(i)
        while time.perf_counter() < t_end:
            pass
        return i

    def check(self, i, out, tally) -> None:
        tally.add(workloads.PASS if out == i else workloads.WRONG, 1e-16)


def test_cold_latency_is_not_moved_by_a_cache_on_inputs():
    tally = workloads.Tally()
    metrics, _ = run.timed_run(_FirstCallSlow(), 0.5, tally)
    assert metrics["cold_op_us_p50"] > 5 * metrics["op_us_p50"]
    assert metrics["pass_frac"] == 1.0
    assert len(tally.rel_errs) == 16  # every input's first call, once


def _bindings():
    tracer = tracing.Tracer()
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, *_ in tracing._targets(tracer)}


def test_every_rebound_name_is_restored(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    negaxis = workloads.NegaxisRelax(3)
    pade_fit = workloads.PadeFit(3)
    grid = workloads.CliGrid(3, tmp_path)
    for i in range(64):
        negaxis.call(i)  # fill the dispatch rule cache before tracing
    with pytest.raises(RuntimeError):
        with tracer.rebound():
            assert all(_bindings()[key] is not value for key, value in before.items())
            for i in range(64):
                negaxis.call(i)
            pade_fit.call(0)
            grid.warm_up()
            raise RuntimeError("leave the traced block early")
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["dispatch.calls"] == 64
    assert metrics["pade.fits"] == 1
    assert metrics["contours.rule_builds"] == 2 * 2 * 2  # two rules per point of a 2x2 grid
    assert metrics["kernels.cpow.calls"] > 0 and metrics["series.calls"] > 0
    assert set(metrics) | {"trace.overhead_frac"} == set(tracing.LAYER_METRICS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "negaxis_relax", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
