"""Order statistics shared by the benchmark and its compare mode."""

from __future__ import annotations

import statistics

# A tail percentile must have at least this many samples above it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_index(n: int) -> int | None:
    """Index into the sorted samples of the highest percentile that still has
    ``TAIL_BEYOND`` samples beyond it, or None when there are too few."""
    k = n - 1 - TAIL_BEYOND
    return k if k >= 0 else None


def tail(values) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) of the tail, or None below 11 samples.

    The percentile is the share of samples at or below the returned value, so
    100 samples give p90 and 1000 give p99.
    """
    ordered = sorted(values)
    k = tail_index(len(ordered))
    if k is None:
        return None
    return 100.0 * (k + 1) / len(ordered), float(ordered[k]), len(ordered)


def spread(values) -> float:
    """Interquartile distance over the median, as the acceptance rule uses it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float((q3 - q1) / statistics.median(values))
