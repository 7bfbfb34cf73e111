"""Analysis: result tables, ASCII plots, summary statistics."""

from repro.analysis.plots import ascii_bars, ascii_series
from repro.analysis.stats import (
    Summary,
    percentile,
    relative_error,
    summarize,
)
from repro.analysis.tables import (
    format_bytes,
    format_seconds,
    render_table,
)

__all__ = [
    "ascii_bars",
    "ascii_series",
    "Summary",
    "percentile",
    "relative_error",
    "summarize",
    "format_bytes",
    "format_seconds",
    "render_table",
]
