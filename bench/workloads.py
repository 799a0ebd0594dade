"""The three benchmark workloads: seeded inputs, the timed call, the output check.

Each workload draws its inputs from ``--seed`` alone, then hands the program
only those inputs.  Inputs are stratified (every parameter combination gets
the same number of points, spread evenly over its range with a seeded jitter
inside each stratum), so that two seeds give different points but the same
mix of routing regimes.  Warm-up runs on a second, smaller batch drawn from
the same seed and sharing no input with the first, so the timed run's first
pass meets every input for the first time.  The timed call goes through the
public functions by module attribute, so the traced run can rebind them.

Every op is checked against the oracle and sorted into one of four outcomes:

* PASS: relative error at most ``REL_BOUND`` (the README's closed-form bound;
  for the Pade fit, absolute error at most ``REL_BOUND``, on values <= 1);
* MISS: relative error above ``REL_BOUND`` but absolute error within
  ``REL_BOUND * max(1, |ref|)``, the accuracy contour quadrature gives today
  for small values (for the Pade fit: absolute error within ``PF_FLOOR``,
  the README's "near 1e-9" floor of partial-fraction reconstruction);
* WRONG: outside even that, or the output is malformed;
* FAILED: the call raised or returned a non-finite value.

``pass_frac`` is the share of PASS among the inputs' first calls; ``correct``
requires no WRONG and no FAILED op on any call.
"""

from __future__ import annotations

import importlib
import math
import random
from array import array
from pathlib import Path

REL_BOUND = 1e-10
TINY = 2.2250738585072014e-308  # smallest normal double: floor of |ref|
PF_FLOOR = 1e-8

PASS, MISS, WRONG, FAILED = "pass", "miss", "wrong", "failed"


class Tally:
    """Outcome counts of all ops, and of the ops counted while ``keep`` is set.

    The caller sets ``keep`` for an input's first call only, so ``first``
    and ``rel_errs`` (the relative errors of those passing ops) hold every
    input once, however often it repeats, and memory stays flat however long
    the run.
    """

    def __init__(self) -> None:
        self.counts = {PASS: 0, MISS: 0, WRONG: 0, FAILED: 0}
        self.first = dict.fromkeys(self.counts, 0)
        self.keep = False
        self.rel_errs = array("d")
        self.first_problem: str | None = None

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    def add(self, outcome: str, rel_err: float = 0.0, detail: str = "") -> None:
        self.counts[outcome] += 1
        if self.keep:
            self.first[outcome] += 1
            if outcome == PASS:
                self.rel_errs.append(rel_err)
        if self.first_problem is None and outcome in (WRONG, FAILED):
            self.first_problem = f"{outcome}: {detail}"

    def classify(self, abs_err: float, ref_abs: float, detail: str) -> None:
        rel = abs_err / max(ref_abs, TINY)
        if rel <= REL_BOUND:
            self.add(PASS, rel)
        elif abs_err <= REL_BOUND * max(1.0, ref_abs):
            self.add(MISS)
        else:
            self.add(WRONG, detail=f"{detail} rel_err={rel:.3e}")


def _dd_err(got: complex, re_hi: float, re_lo: float, im_hi: float, im_lo: float) -> float:
    # got - hi is exact when got is close to hi, so the lo parts resolve
    # errors below one ulp of the reference
    return math.hypot((got.real - re_hi) - re_lo, (got.imag - im_hi) - im_lo)


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


class NegaxisRelax:
    """Scalar ``ml_auto(-t**alpha, alpha, beta)``: the relaxation curve.

    t is log-uniform on [1e-3, 1e2]; every alpha and both beta choices get
    ``STRATA`` points, one per equal slice of log t, and ``WARM_STRATA``
    warm-up points.
    """

    name = "negaxis_relax"
    ALPHAS = (0.3, 0.5, 0.7, 0.9, 1.0, 1.3, 1.7, 2.0)
    STRATA = 128
    WARM_STRATA = 8
    ops_per_call = 1
    calls_per_chunk = 64

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.items = self._draw(rng, self.STRATA)
        self.warm_items = self._draw(rng, self.WARM_STRATA)
        self.refs: list = []
        self._dispatch = importlib.import_module("mittleff.dispatch")

    def _draw(self, rng: random.Random, strata: int) -> list:
        items = []
        for alpha in self.ALPHAS:
            for beta in (1.0, alpha):
                for k in range(strata):
                    t = 10.0 ** (-3.0 + 5.0 * (k + rng.random()) / strata)
                    items.append((-(t**alpha), alpha, beta))
        rng.shuffle(items)
        return items

    def prepare(self) -> dict:
        return {"kind": "negaxis", "points": [list(item) for item in self.items]}

    def warm_up(self) -> None:
        for x, alpha, beta in self.warm_items:
            self._dispatch.ml_auto(x, alpha, beta)

    def set_refs(self, refs: list) -> None:
        self.refs = refs

    def call(self, i: int):
        x, alpha, beta = self.items[i]
        return self._dispatch.ml_auto(x, alpha, beta)

    def check(self, i: int, out, tally: Tally) -> None:
        x, alpha, beta = self.items[i]
        where = f"E[{alpha},{beta}]({x!r})"
        got = complex(out.value)
        hi, lo = self.refs[i]
        if not _finite(got):
            tally.add(FAILED, detail=f"{where} = {got}")
            return
        tally.classify(_dd_err(got, hi, lo, 0.0, 0.0), abs(hi), where)

    def on_traced(self, out, counters) -> None:
        pass


class CliGrid:
    """The README's ``grid`` command, run in-process through ``cli.main``.

    The seed shifts the rectangle by a fraction of one grid step in each
    direction.  One call is one command; each of its grid points is an op.
    Warm-up runs a 2 x 2 command on the rectangle moved by half a step, so it
    shares no point with the grid.
    """

    name = "cli_grid"
    STEPS = 100
    ops_per_call = STEPS * STEPS
    calls_per_chunk = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        step = 8.0 / (self.STEPS - 1)
        d_re = step * rng.random()
        d_im = step * rng.random()
        re_lo, re_hi, im_lo, im_hi = -5.0 + d_re, 3.0 + d_re, -4.0 + d_im, 4.0 + d_im
        n = self.STEPS - 1
        res = [re_lo + (re_hi - re_lo) * i / n for i in range(self.STEPS)]
        ims = [im_lo + (im_hi - im_lo) * i / n for i in range(self.STEPS)]
        self.points = [(re, im) for re in res for im in ims]
        self.out_path = out_dir / f"grid-{seed}.csv"
        self.argv = self._command(re_lo, re_hi, im_lo, im_hi, self.STEPS)
        h = 0.5 * step
        self.warm_argv = self._command(re_lo + h, re_hi + h, im_lo + h, im_hi + h, 2)
        self.items = [self.argv]
        self.refs: list = []
        self._cli = importlib.import_module("mittleff.cli")

    def _command(self, re_lo: float, re_hi: float, im_lo: float, im_hi: float, steps: int) -> list[str]:
        return [
            "grid", "--alpha", "0.5", "--beta", "1",
            "--re-min", repr(re_lo), "--re-max", repr(re_hi),
            "--im-min", repr(im_lo), "--im-max", repr(im_hi),
            "--steps", str(steps),
            "--compare-method", "quad-par,quad-hyp",
            "--out", str(self.out_path),
        ]  # fmt: skip

    def prepare(self) -> dict:
        return {"kind": "half", "points": [list(p) for p in self.points]}

    def warm_up(self) -> None:
        self._cli.main(self.warm_argv)

    def set_refs(self, refs: list) -> None:
        self.refs = refs

    def call(self, i: int):
        return self._cli.main(self.items[i])

    def check(self, i: int, out, tally: Tally) -> None:
        if out != 0:
            for _ in self.points:
                tally.add(FAILED, detail=f"grid exited with {out}")
            return
        lines = self.out_path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "re,im,value_re,value_im,log10_abs_err" or len(lines) != len(self.points) + 1:
            for _ in self.points:
                tally.add(WRONG, detail=f"malformed CSV: {lines[0]!r}, {len(lines)} lines")
            return
        for (re, im), ref, line in zip(self.points, self.refs, lines[1:]):
            g_re, g_im, v_re, v_im, log_diff = (float(f) for f in line.split(","))
            where = f"grid z=({re!r},{im!r})"
            if abs(g_re - re) > 1e-12 or abs(g_im - im) > 1e-12:
                tally.add(WRONG, detail=f"{where}: row holds ({g_re!r},{g_im!r})")
                continue
            got = complex(v_re, v_im)
            if not _finite(got) or math.isnan(log_diff) or log_diff == math.inf:
                tally.add(FAILED, detail=f"{where}: {got}, log10 diff {log_diff}")
                continue
            # the row holds quad-par's value and log10 |quad-par - quad-hyp|;
            # count the worse of quad-par's error and the disagreement
            err = max(_dd_err(got, *ref), 10.0**log_diff)
            tally.classify(err, math.hypot(ref[0], ref[2]), where)

    def on_traced(self, out, counters) -> None:
        counters["cli.bytes_out"] += self.out_path.stat().st_size


class PadeFit:
    """One op is the README's time-stepping job for one (alpha, r, solver).

    ``build_pade(alpha, 1, r+1, r, solver)``, ``partial_fractions``, then
    ``pade_eval`` and ``evaluate_at`` at 200 stratified points of [0, 100].
    Every combination appears once per pass, in a seeded order.  Warm-up
    runs one job per alpha, with its own order, solver and points.
    """

    name = "pade_fit"
    ALPHAS = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)
    ORDERS = tuple(range(2, 9))
    SOLVERS = ("fixed", "svd", "lu")
    X_POINTS = 200
    ops_per_call = 1
    calls_per_chunk = 4

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        items = []
        for alpha in self.ALPHAS:
            for r in self.ORDERS:
                for solver in self.SOLVERS:
                    xs = tuple(100.0 * (k + rng.random()) / self.X_POINTS for k in range(self.X_POINTS))
                    items.append((alpha, r, solver, xs))
        rng.shuffle(items)
        self.items = items
        self.warm_items = [
            (alpha, rng.choice(self.ORDERS), rng.choice(self.SOLVERS), tuple(100.0 * rng.random() for _ in range(8)))
            for alpha in self.ALPHAS
        ]
        self.refs: list = []
        self._pade = importlib.import_module("mittleff.pade")

    def prepare(self) -> dict:
        jobs = [{"alpha": alpha, "beta": 1.0, "r": r, "x": list(xs)} for alpha, r, _, xs in self.items]
        return {"kind": "pade", "jobs": jobs}

    def set_refs(self, refs: list) -> None:
        self.refs = refs

    def warm_up(self) -> None:
        for job in self.warm_items:
            self._fit(*job)

    def call(self, i: int):
        return self._fit(*self.items[i])

    def _fit(self, alpha: float, r: int, solver: str, xs: tuple):
        pade = self._pade
        ap = pade.build_pade(alpha, 1.0, r + 1, r, solver)
        pf = pade.partial_fractions(ap)
        values = [pade.pade_eval(ap, x) for x in xs]
        fractions = [pf.evaluate_at(x) for x in xs]
        return ap, values, fractions

    def check(self, i: int, out, tally: Tally) -> None:
        alpha, r, solver, _ = self.items[i]
        where = f"pade alpha={alpha} r={r} solver={solver}"
        _, values, fractions = out
        if not len(values) == len(fractions) == len(self.refs[i]):
            tally.add(WRONG, detail=f"{where}: {len(values)} values, {len(fractions)} fractions")
            return
        # p/q is the approximant the oracle fits from exact series coefficients
        err = 0.0
        for (hi, lo), v, f in zip(self.refs[i], values, fractions):
            for got in (complex(v), complex(f)):
                if not _finite(got):
                    tally.add(FAILED, detail=f"{where}: non-finite value {got}")
                    return
                err = max(err, _dd_err(got, hi, lo, 0.0, 0.0))
        # absolute error, on values of size E(0) = 1 and below
        if err <= REL_BOUND:
            tally.add(PASS, err)
        elif err <= PF_FLOOR:
            tally.add(MISS)
        else:
            tally.add(WRONG, detail=f"{where}: max |value - p/q| = {err:.3e}")

    def on_traced(self, out, counters) -> None:
        pass


def make(name: str, seed: int, out_dir: Path):
    if name == NegaxisRelax.name:
        return NegaxisRelax(seed)
    if name == CliGrid.name:
        return CliGrid(seed, out_dir)
    if name == PadeFit.name:
        return PadeFit(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (NegaxisRelax.name, CliGrid.name, PadeFit.name)
