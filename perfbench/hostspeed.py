"""Host-speed normalization of measured times.

On a shared host the same work takes up to twice as long in some stretches
of seconds as in others, which no amount of repetition inside one run
averages out. The benchmark therefore runs a fixed reference kernel between
its timed calls, at least every ``INTERVAL_S``, and scales each call's time
by ``NOMINAL_S / kernel time``, the kernel time taken as the median over
``WINDOW_S`` either side and interpolated to the middle of the call. The
kernel is a plain interpreter loop (see ``kernel`` for why). Normalized times
read as seconds on a host where the kernel takes ``NOMINAL_S``; raw times are
kept alongside them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 2e-3
INTERVAL_S = 0.2
WINDOW_S = 1.0

_LOOP = 25_000


def kernel() -> float:
    """About 2 ms of interpreted float arithmetic.

    Measured against gravdiff's calls while the host's speed changed
    two-fold, the time of a plain interpreter loop scaled with that of
    covariance evolution and single-trajectory Monte Carlo with slope 0.87-1.05
    (log-log); kernels of small numpy calls, small eigensolves or FFTs
    over-responded (slopes 0.5-0.75).
    """
    acc = 0.0
    for i in range(_LOOP):
        acc += i * 0.5
    return acc


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Calibrator:
    """Samples the kernel between timed calls and converts raw durations."""

    def __init__(self):
        kernel()  # first call pays one-time library set-up
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Median of three kernel runs, unless one was taken within INTERVAL_S."""
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= INTERVAL_S:
            self.costs.append(sorted(kernel_seconds() for _ in range(3))[1])
            self.times.append(perf_counter())

    def scale(self, t_mid) -> np.ndarray:
        """NOMINAL_S / kernel time at each instant. The kernel time at each
        sample is the median over samples within WINDOW_S of it, which keeps
        a kernel run slowed by the cache state the preceding call left
        behind from carrying over to that call, while following the
        seconds-long changes of host speed."""
        times = np.asarray(self.times)
        costs = np.asarray(self.costs)
        lo = np.searchsorted(times, times - WINDOW_S, side="left")
        hi = np.searchsorted(times, times + WINDOW_S, side="right")
        smooth = np.array([np.median(costs[a:b]) for a, b in zip(lo, hi)])
        return NOMINAL_S / np.interp(t_mid, times, smooth)
