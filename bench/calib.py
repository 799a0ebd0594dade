"""Machine-speed calibration for the benchmark's timings.

The benchmark's host can run the same pure-Python loop at very different
speeds from one second to the next (on a 2-vCPU Intel Xeon VM the same
scalar pass ran anywhere between 13k and 30k points/s within one process,
with CPU time tracking wall time, so the cause is the core's speed, not
descheduling).  More work per run does not average that out, because the
speed state lasts for seconds.

So timings are scaled by the speed of a fixed calibration loop measured at
the same moment: a timing is reported as it would read at the speed where
the loop takes ``CAL_NOMINAL_S``.  The loop does the same kind of work as the
program (interpreted complex arithmetic, ``cmath`` and ``math`` calls) and
never touches the program, so a change to the program moves the timings and
not the scale.  Raw timings are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import time
from array import array

# Time of the full loop (_UNITS) at the fast speed state of the host above.
CAL_NOMINAL_S = 0.0028

_UNITS = 75


def _pow(w: complex, a: float) -> complex:
    return cmath.exp(a * cmath.log(w))


_NODES = tuple(complex(1.0 - 0.01 * k, 0.1 * k) for k in range(15))
_WEIGHTS = tuple(cmath.exp(w) for w in _NODES)


def _node_sum(f) -> complex:
    acc = _WEIGHTS[0] * f(_NODES[0])
    for n in range(1, len(_NODES)):
        acc += _WEIGHTS[n] * f(_NODES[n])
    return acc


def _work(units: int) -> complex:
    # Each unit is half arithmetic and math-library calls, half Python-level
    # calls through closures.  On the host above the first kind alone slows
    # less than the workloads in the slow speed state and the second kind
    # more; the mix tracks all three workloads within a few percent.
    acc = 0.0j
    w = complex(0.25, 0.5)
    for u in range(units):
        for k in range(26):
            m = k % 17
            acc += cmath.exp(w * m) / (1.0 + k) + math.lgamma(1.5 + m) * w
        z = complex(-1.0 - 0.01 * u, 0.5)
        acc += _node_sum(lambda v: _pow(v, 0.5) / (_pow(v, 0.7) - z))
    return acc


def calibrate() -> float:
    """Seconds taken by one run of the full calibration loop."""
    t0 = time.perf_counter()
    _work(_UNITS)
    return time.perf_counter() - t0


def scale(cal_before: float, cal_after: float) -> float:
    """Factor taking a raw time measured between two full calibrations to nominal speed."""
    return CAL_NOMINAL_S / (0.5 * (cal_before + cal_after))


class Sampler:
    """Samples the machine's speed all through a timed stretch.

    Inside ``with Sampler() as s:`` a SIGALRM handler runs a short calibration
    loop every ``PERIOD_S``, also in the middle of a long call such as a whole
    grid command.  ``s.spent`` is the handler's total time so far, which a
    caller subtracts from its own timings; ``s.scale(t0, t1)`` is the factor to
    nominal speed from the samples taken between ``t0`` and ``t1`` (at least
    ``MIN_SAMPLES``, widening around the stretch when it is short).
    """

    PERIOD_S = 0.02
    SAMPLE_UNITS = 10
    MIN_SAMPLES = 3

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work(self.SAMPLE_UNITS)
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took

    def __enter__(self) -> Sampler:
        self._sample(None, None)  # so that scale() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        while hi - lo < self.MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.at))
        mean = sum(self.took[lo:hi]) / (hi - lo)
        return CAL_NOMINAL_S * self.SAMPLE_UNITS / (_UNITS * mean)
