"""Benchmark of mittleff: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload negaxis_relax --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``negaxis_relax``, ``cli_grid``, ``pade_fit``.
The benchmark is single-process, single-thread and closed-loop: each call
starts when the previous one has returned.  It calls the library in-process on
inputs drawn from ``--seed``, and checks every output against mpmath
references computed beforehand in a child process (oracle.py).

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
fresh processes, setup_probe.py), throughput, per-op latency of repeated and
of first calls, the share of inputs that pass the 1e-10 accuracy rule, the
digits of the passing ones, and peak memory.  With ``--trace 1`` it
alternates untraced and traced passes over the same inputs and prints the
per-layer metrics (tracing.py) and the tracing overhead.  Timings are
scaled to a nominal machine speed (calib.py); the raw figures are printed
too.  The last line of stdout is the JSON result; a record of the run goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import calib
import workloads
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import FAILED, PASS, WRONG, Tally

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
REPEATS_KEPT = 256
CHILD_TIMEOUT_S = 150

# end-to-end metric name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p99": "us",
    "cold_op_us_p50": "us",
    "pass_frac": "fraction",
    "rel_err_p50_digits": "digits",
    "rel_err_p99_digits": "digits",
    "peak_rss_mb": "MB",
}


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "mittleff" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mittleff package under {src}")
    sys.path.insert(0, str(src))
    import mittleff

    if Path(mittleff.__file__).resolve().parent != (src / "mittleff").resolve():
        raise ImportError(f"imported mittleff from {mittleff.__file__}, not from {src}")


def _child(args: list[str], stdin: str | None = None) -> str:
    done = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def measure_setup(workload: str) -> tuple[float, list[float]]:
    """Median scaled set-up time over fresh processes; the first one only warms the disk cache."""
    scaled, raw = [], []
    for k in range(SETUP_REPEATS + 1):
        rec = json.loads(_child([str(BENCH_DIR / "setup_probe.py"), workload, str(OUT_DIR)]).splitlines()[-1])
        if k:
            raw.append(rec["setup_s"])
            scaled.append(rec["setup_s"] * rec["scale"])
    return statistics.median(scaled), raw


def _call_and_check(wl, k: int, tally: Tally, tracer=None, sampler=None) -> float:
    """Run call k, check its outputs, and return the raw seconds of the call alone.

    Time the sampler's handler spent inside the call is taken out.
    """
    spent = sampler.spent if sampler is not None else 0.0
    t0 = time.perf_counter()
    try:
        out = wl.call(k)
    except Exception as exc:  # a raising call is a FAILED op, and the run goes on
        out, error = None, exc
    else:
        error = None
    elapsed = time.perf_counter() - t0
    if sampler is not None:
        elapsed -= sampler.spent - spent
    if error is not None:
        for _ in range(wl.ops_per_call):
            tally.add(FAILED, detail=f"{wl.name} call {k}: {error!r}")
        return elapsed
    wl.check(k, out, tally)
    if tracer is not None:
        wl.on_traced(out, tracer.counters)
    return elapsed


def _quartile_spread(values) -> float | None:
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _digits(rel_err: float) -> float:
    return -math.log10(max(rel_err, 1e-17))


def timed_run(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop over the inputs for ``seconds``, and until every input has repeated.

    Each chunk of calls is scaled by the machine speed sampled while it ran
    (calib.Sampler).  An input's latency is the median of its scaled repeats
    (the calls after its first); the percentiles and the throughput are taken
    over inputs, so a burst of slow machine speed moves a few repeats and not
    the figures.  On cli_grid the one input is the grid command, so both
    percentiles read the median time per grid point: single points cannot be
    timed from outside.

    Inputs repeat, so a cache keyed on the inputs would speed up the
    percentiles and the throughput.  An input's first call meets it for the
    first time (warm-up runs on other inputs), so such a cache cannot speed
    that call up.  ``cold_op_us_p50`` is ``op_us_p50`` times the median over
    inputs of (first call / the input's median repeat): the median latency
    there would be if every call were a first call.  The ratio, not the first
    calls' own median, because inputs differ in cost far more than a first
    call differs from a repeat, and single calls are noisy.  Inputs join
    evenly over the first half of the run, at most one per chunk, so their
    first calls spread over seconds of machine speed rather than one short
    pass; the chunk's other calls go round the inputs met so far.
    """
    n = len(wl.items)
    wl.warm_up()
    # fixed-size storage, so that peak memory does not grow with the number
    # of calls: the scaled time of every input's first call, and of its last
    # REPEATS_KEPT repeats
    cold = np.full(n, np.nan)
    times = np.full((n, REPEATS_KEPT), np.nan)
    repeats = [-1] * n  # -1: not called yet
    chunk_rates = array("d")
    raw_total = 0.0
    calls = met = k = 0
    k_done = math.inf  # round-robin count by which every input has repeated
    with calib.Sampler() as sampler:
        t_begin = time.perf_counter()
        t_end = t_begin + seconds
        while k < k_done or time.perf_counter() < t_end:
            items = [(k + j) % met for j in range(wl.calls_per_chunk)] if met else []
            k += len(items)
            if met < n and time.perf_counter() >= t_begin + 0.5 * seconds * met / n:
                items.append(met)
                met += 1
                if met == n:
                    k_done = k + n
            t_start = time.perf_counter()
            raw = []
            for i in items:
                tally.keep = repeats[i] < 0
                raw.append(_call_and_check(wl, i, tally, sampler=sampler))
            f = sampler.scale(t_start, time.perf_counter())
            for i, t in zip(items, raw):
                if repeats[i] < 0:
                    cold[i] = t * f
                else:
                    times[i, repeats[i] % REPEATS_KEPT] = t * f
                repeats[i] += 1
            raw_total += sum(raw)
            chunk_rates.append(wl.ops_per_call * len(raw) / (f * sum(raw)))
            calls += len(items)
    tally.keep = False

    median_s = np.nanmedian(times, axis=1)
    per_op_us = median_s * (1e6 / wl.ops_per_call)
    p50, p99 = np.percentile(per_op_us, [50, 99])
    rel = np.frombuffer(tally.rel_errs, dtype=np.float64)  # from each input's first call
    e50, e99 = np.percentile(rel, [50, 99]) if len(rel) else (1.0, 1.0)
    metrics = {
        "ops_per_s": 1e6 / float(per_op_us.mean()),
        "op_us_p50": float(p50),
        "op_us_p99": float(p99),
        "cold_op_us_p50": float(p50 * np.median(cold / median_s)),
        "pass_frac": tally.first[PASS] / sum(tally.first.values()),
        "rel_err_p50_digits": _digits(float(e50)),
        "rel_err_p99_digits": _digits(float(e99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "calls": calls,
        "raw_ops_per_s": calls * wl.ops_per_call / raw_total,
        "chunks": len(chunk_rates),
        "speed_samples": len(sampler.took),
        "sample_s_quartiles": statistics.quantiles(sampler.took, n=4),
        "chunk_ops_per_s_spread": _quartile_spread(chunk_rates),
        "rel_err_p50": float(e50),
        "rel_err_p99": float(e99),
    }
    return metrics, detail


def _pass(wl, tally: Tally, tracer=None) -> tuple[float, float]:
    """One call of every input; returns (scaled seconds of the calls, scale)."""
    cal_before = calib.calibrate()
    total = 0.0
    for k in range(len(wl.items)):
        if tracer is not None:
            tracer.op_id = k
        total += _call_and_check(wl, k, tally, tracer)
    f = calib.scale(cal_before, calib.calibrate())
    return total * f, f


def traced_run(wl, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Untraced and traced passes in turn, at least one pair, for ``seconds``."""
    wl.warm_up()
    ratios, runs = [], []
    t_end = time.perf_counter() + seconds
    while True:
        untraced, _ = _pass(wl, tally)
        tracer = Tracer()
        with tracer.rebound():
            traced, f = _pass(wl, tally, tracer)
        ratios.append(traced / untraced)
        runs.append(layer_metrics(tracer, f))
        if time.perf_counter() >= t_end:
            break
    tracer.write(spans_path)
    metrics = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    detail = {"pairs": len(ratios), "spans": len(tracer.start), "spans_file": spans_path.name}
    return metrics, detail


def _metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
        except OSError:
            sha = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cal_nominal_s": calib.CAL_NOMINAL_S,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _load_program()
    except (OSError, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    wl = workloads.make(args.workload, args.seed, OUT_DIR)
    t0 = time.perf_counter()
    wl.set_refs(json.loads(_child([str(BENCH_DIR / "oracle.py")], json.dumps(wl.prepare())))["refs"])
    oracle_s = time.perf_counter() - t0

    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        units = LAYER_METRICS
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        metrics, detail = traced_run(wl, args.seconds, tally, spans_path)
    else:
        units = END_TO_END
        setup_s, setup_raw = measure_setup(args.workload)
        metrics, detail = timed_run(wl, args.seconds, tally)
        metrics["setup_s"] = setup_s
        detail["setup_raw_s"] = setup_raw
        detail["setup_spread"] = _quartile_spread(setup_raw)
    detail["oracle_s"] = oracle_s
    detail["outcomes"] = dict(tally.counts)
    detail["first_problem"] = tally.first_problem

    result = {
        "correct": tally.counts[WRONG] == 0 and tally.counts[FAILED] == 0,
        "attempted": tally.attempted,
        "failed": tally.counts[WRONG] + tally.counts[FAILED],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(result=result, detail=detail, meta=_metadata())
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    for key, value in detail.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
