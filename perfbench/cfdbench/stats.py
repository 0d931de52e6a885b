"""Order statistics shared by the benchmark's metrics."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """The median, or ``nan`` for an empty sample."""
    return statistics.median(values) if values else float("nan")


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation between ranks)."""
    if not values:
        return float("nan")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
