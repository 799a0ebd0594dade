"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads negaxis_relax,cli_grid,pade_fit \
        --seeds 10 [--first-seed 1] [--trace 0] [--out bench/baseline.json]

Every run measures for BENCHMARK.json's ``run_seconds``.  For every workload
and metric it prints the median of the per-seed values, their quartiles, and
the spread (q3 - q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``.  With ``--trace 0`` it does the same
for the raw (unscaled, see calib.py) throughput and set-up time, taken from
each run's record in ``.bench_out/``.  Runs go one after another, never in
parallel, so they do not slow each other.

``--out`` adds the set, with every per-run value and the first run's
metadata, to a JSON file under ``<workload>/trace<t>/seeds <a>-<b>``, keeping
the sets already there; for each metric it then prints the largest relative
difference between this set's median and the medians of the other sets of
the same workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON result and its record in .bench_out/."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    record = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(record.read_text(encoding="utf-8"))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def _print_row(workload: str, name: str, unit: str, m: dict) -> None:
    spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
    print(f"{workload:14s} {name:34s} {unit:9s} median {m['median']:<12.6g} "
          f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread}", flush=True)  # fmt: skip


def _compare(workload: str, this: dict, others: list[dict]) -> None:
    for name, m in this["metrics"].items():
        diffs = [
            abs(m["median"] - other["metrics"][name]["median"]) / abs(other["metrics"][name]["median"])
            for other in others
            if other["metrics"].get(name, {}).get("median")
        ]
        if diffs:
            print(f"{workload:14s} {name:34s} largest median difference to other sets {max(diffs):.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    saved = json.loads(args.out.read_text(encoding="utf-8")) if args.out and args.out.exists() else {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        results = [result for result, _ in runs]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run reported correct=false", file=sys.stderr)
        metrics = {}
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            metrics[name] = dict(unit=unit, **summarize([r["metrics"][name]["value"] for r in results]))
            _print_row(workload, name, unit, metrics[name])
        summary = {
            "meta": runs[0][1]["meta"],
            "seconds": seconds,
            "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
        }
        if not args.trace:
            raw = {
                "raw_ops_per_s": ("1/s", [rec["detail"]["raw_ops_per_s"] for _, rec in runs]),
                "raw_setup_s": ("s", [statistics.median(rec["detail"]["setup_raw_s"]) for _, rec in runs]),
            }
            summary["raw"] = {name: dict(unit=unit, **summarize(values)) for name, (unit, values) in raw.items()}
            for name, m in summary["raw"].items():
                _print_row(workload, name, m["unit"], m)
        if args.out:
            sets = saved.setdefault(workload, {}).setdefault(f"trace{args.trace}", {})
            sets[f"seeds {seeds[0]}-{seeds[-1]}"] = summary
            _compare(workload, summary, [s for key, s in sets.items() if s is not summary])
            args.out.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
