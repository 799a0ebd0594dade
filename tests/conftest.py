import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import pytest


@pytest.fixture
def in_threads():
    """run(fn, workers=4): fn() in each of `workers` threads started together,
    with a short switch interval so the threads interleave often; returns
    every thread's result."""

    def run(fn, workers: int = 4) -> list:
        barrier = threading.Barrier(workers)

        def task():
            barrier.wait(timeout=10.0)
            return fn()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(task) for _ in range(workers)]
                return [f.result(timeout=60.0) for f in futures]
        finally:
            sys.setswitchinterval(old)

    return run


@pytest.fixture(autouse=True)
def _mpmath_precision_kept():
    """Fail a test that leaves mpmath's global precision changed (and restore
    it), so that no later test's unguarded mpmath call depends on test order."""
    prec = mp.mp.prec
    yield
    left = mp.mp.prec
    mp.mp.prec = prec
    assert left == prec, f"the test left mpmath's precision at {left} bits, not {prec}"
