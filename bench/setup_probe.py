"""Child process that times set-up: import mittleff and complete a first call.

Usage: python3 bench/setup_probe.py WORKLOAD OUT_DIR

Prints one JSON line: ``setup_s`` (raw seconds from before ``import mittleff``
to the end of the first call, less the calibration samples taken meanwhile)
and ``scale``, the factor to nominal machine speed from those samples (see
calib.py).  The first call of each workload goes through the layers that fill
a cache on first use: ``ml_auto`` on a quadrature point builds the hyperbolic
rule (``optimize_phi``) and fills ``origin_accuracy``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent


def _first_call(mittleff, workload: str, out_dir: Path) -> None:
    if workload == "negaxis_relax":
        mittleff.ml_auto(-2.0, 0.7, 1.0)
    elif workload == "cli_grid":
        from mittleff import cli

        argv = "grid --alpha 0.5 --beta 1 --re-min -5 --re-max 3 --im-min -4 --im-max 4 --steps 2"
        cli.main(argv.split() + ["--compare-method", "quad-par,quad-hyp", "--out", str(out_dir / "setup-grid.csv")])
    else:
        ap = mittleff.build_pade(0.5, 1.0, 6, 5)
        pf = mittleff.partial_fractions(ap)
        mittleff.pade_eval(ap, 1.0)
        pf.evaluate_at(1.0)


def main() -> int:
    workload, out_dir = sys.argv[1], Path(sys.argv[2])
    if workload not in ("negaxis_relax", "cli_grid", "pade_fit"):
        print(f"setup_probe: unknown workload {workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with calib.Sampler() as sampler:
        spent = sampler.spent
        t0 = time.perf_counter()
        import mittleff

        _first_call(mittleff, workload, out_dir)
        t1 = time.perf_counter()
        setup_s = t1 - t0 - (sampler.spent - spent)
    print(json.dumps({"setup_s": setup_s, "scale": sampler.scale(t0, t1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
