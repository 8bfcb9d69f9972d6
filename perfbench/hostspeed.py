"""Host-speed scaling of the benchmark's time metrics.

On a shared host the same code runs up to 1.8 times slower in some stretches
than in others, and process CPU time slows with wall time, so the slowdown
is in execution speed, not in scheduling. Over ten runs this spread the
raw timed phase of serve-61x20 by 0.29 of its median.

While a measured interval runs, a background thread in the same process
times a fixed kernel of small NumPy operations, the same kind of work the
library does, every INTERVAL_S seconds, in thread CPU time (so waiting for
the interpreter lock does not count). A measured time is scaled by
REFERENCE_S / (mean kernel time during the interval): it reads as the time
the interval would take on a host where the kernel takes REFERENCE_S. The
process is pinned to one CPU, so the kernel runs where the work runs.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 6e-4  # about the kernel time on the 2-CPU x86 host the bounds were set on
INTERVAL_S = 0.01
KERNEL_REPEATS = 100


def pin_to_one_cpu() -> int:
    """Pin this process, and the threads and processes it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Samples the kernel while a `with` block runs; `factor` scales a time
    measured inside the block to the reference host speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.random((30, 20))
        self._v = rng.random(20)
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, daemon=True)

    def _sample(self) -> None:
        start = time.thread_time()
        for _ in range(KERNEL_REPEATS):
            float(np.max(self._A @ self._v))
        self.samples.append(time.thread_time() - start)

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)
