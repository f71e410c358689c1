"""Order statistics for the benchmark: medians, guarded percentiles, spread."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: A percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], point: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support.

    A tail percentile read off a handful of samples is the maximum under
    another name, so ``point`` needs :data:`MIN_SAMPLES_BEYOND` samples
    above it (p95 needs 200 samples, p99 needs 1,000).
    """
    if not 0 < point < 100:
        raise ValueError(f"percentile must be in (0, 100), got {point}")
    count = len(values)
    beyond = count * (100 - point) / 100
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{point:g} of {count} samples has {beyond:.1f} samples beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(values)
    return float(ordered[min(count - 1, int(count * point / 100))])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a constant)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
