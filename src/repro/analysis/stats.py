"""Comparison helpers shared by the benches."""

from __future__ import annotations


def relative_error(measured: float, expected: float) -> float:
    """|measured − expected| / |expected| (∞ when expected is 0 and differ)."""
    if expected == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - expected) / abs(expected)
