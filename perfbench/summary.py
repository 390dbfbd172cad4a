"""Summaries of measured samples and the host record."""

from __future__ import annotations

import math
import os
import platform
import statistics
from time import perf_counter

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.999)


def smoothed_percentile(ordered, p: float) -> float:
    """Mean of the order statistics within ``h`` points of percentile ``p``.

    ``h`` is half the distance from ``p`` to 100, at most 10: p40-p60 for
    the median, p85-p95 for p90, p98.5-p99.5 for p99.  A single order
    statistic jumps when host noise reorders samples across a sparse
    stretch of a multimodal distribution (the chaos cells cluster at
    ~5, ~12, ~40 and ~600 ms); the mean of a window does not.
    """
    half = min(10.0, (100.0 - p) / 2.0)
    n = len(ordered)
    lo = max(0, math.ceil((p - half) / 100.0 * n) - 1)
    hi = max(lo + 1, math.ceil((p + half) / 100.0 * n))
    return statistics.fmean(ordered[lo:hi])


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        # Rounded: 100 * (1 - 0.9) is 9.999... in binary floating point.
        if round(count * (100.0 - p) / 100.0, 9) >= 10:
            best = p
    return best


def spread(values) -> dict:
    """Median, quartile distance as a share of it, and sample count."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median,
            "iqr_frac": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def calibration_ops_per_s(repeats: int = 5, loop: int = 300_000) -> float:
    """Ops/s of a fixed pure-Python loop (median of ``repeats``)."""
    rates = []
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(loop):
            acc = (acc + i * i) % 1_000_003
        rates.append(loop / (perf_counter() - start))
    return statistics.median(rates)


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "calibration_ops_per_s": calibration_ops_per_s(),
    }
