"""Medians, quartiles and percentiles the way the benchmark reports them."""

from __future__ import annotations

import statistics


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (*share* in 0..1) of unsorted *values*."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(share * (len(ordered) - 1))))
    return ordered[rank]


def summary(values: list[float]) -> dict:
    """Median with the quartiles and sample count beside it."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
