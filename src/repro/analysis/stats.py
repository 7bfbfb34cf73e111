"""Summary statistics helpers shared by benches and tests."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    median: float
    p95: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample.

    Raises:
        ConfigurationError: for an empty sample.
    """
    if not values:
        raise ConfigurationError("cannot summarize an empty sample")
    ordered = sorted(values)
    return Summary(
        count=len(ordered),
        mean=statistics.fmean(ordered),
        stdev=statistics.pstdev(ordered) if len(ordered) > 1 else 0.0,
        minimum=ordered[0],
        median=statistics.median(ordered),
        p95=percentile(ordered, 95.0),
        maximum=ordered[-1],
    )


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not sorted_values:
        raise ConfigurationError("cannot take percentile of empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ConfigurationError("percentile must be in [0, 100]")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = pct / 100.0 * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(sorted_values[low])
    weight = rank - low
    return float(
        sorted_values[low] * (1 - weight) + sorted_values[high] * weight
    )


def relative_error(measured: float, expected: float) -> float:
    """|measured − expected| / |expected| (∞ when expected is 0 and differ)."""
    if expected == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - expected) / abs(expected)
