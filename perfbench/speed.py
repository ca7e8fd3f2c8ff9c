"""Timing in reference seconds, so that figures survive a host whose speed drifts.

On a shared 2-vCPU host the speed of this process's core flips between
two levels about 1.65x apart, every few seconds, as other tenants come and
go. Medians of raw wall time taken minutes apart then differ by up to 25%,
more than any useful regression bound.

While an operation runs, SIGALRM fires every PERIOD_S seconds and its
handler times one run of a fixed pure-Python kernel. Each stretch of the
operation between two samples is rescaled by KERNEL_REF_S over the
kernel's time at the end of that stretch. The sum is the time the
operation would have taken on a core where the kernel takes KERNEL_REF_S:
its time in reference seconds. The kernel runs take about 1% of the
operation's wall time and are left out of both figures.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

PERIOD_S = 0.02
KERNEL_REF_S = 2.5e-4


def _step(x: float, y: float) -> float:
    return x * y + 1.0


def _kernel() -> float:
    # A mix of what the package's hot loops do: calls, float exp and pow,
    # integer arithmetic and small tuples in a dict. A pure integer loop
    # tracks the float-heavy quadrature workloads about 3x worse.
    acc = 0.0
    n = 0
    slots = {}
    for i in range(500):
        x = 1.0 + i * 1e-3
        acc += _step(math.exp(-x), x**1.5)
        n = (n * 31 + i) & 0xFFFFF
        slots[i & 63] = (x, n)
    return acc


class SpeedClock:
    """Context manager timing the enclosed code.

    ``gross`` is its wall time with the kernel runs, ``wall`` without them,
    and ``ref`` its time in reference seconds.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (kernel start, kernel end)
        self.gross = self.wall = self.ref = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        self.samples.append((start, perf_counter()))

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # Shorter than one period: time one kernel run right after it.
            self._sample(signal.SIGALRM, None)
        prev = self._start
        ref = 0.0
        kernel_total = 0.0
        for start, stop in self.samples:
            if start >= end:
                ref += (end - prev) * KERNEL_REF_S / (stop - start)
                prev = end
                break
            ref += (start - prev) * KERNEL_REF_S / (stop - start)
            kernel_total += stop - start
            prev = stop
        if prev < end:
            start, stop = self.samples[-1]
            ref += (end - prev) * KERNEL_REF_S / (stop - start)
        self.gross = end - self._start
        self.wall = self.gross - kernel_total
        self.ref = ref
