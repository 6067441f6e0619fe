"""Summary statistics shared by the benchmark, the sweep and the spread check."""
from __future__ import annotations

import math
import statistics

MIN_TAIL_SAMPLES = 40
TAIL_BEYOND = 10


def tail(values):
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` by the nearest-rank rule, or ``None`` for
    fewer than forty samples, where such a percentile would be no tail.
    """
    n = len(values)
    if n < MIN_TAIL_SAMPLES:
        return None
    percentile = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(percentile * n / 100)
    return percentile, sorted(values)[rank - 1]


def slope(xs, ys):
    """Least-squares slope of ``ys`` against ``xs``."""
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
