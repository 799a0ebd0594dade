import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
