"""Analysis: result tables, ASCII plots, reports."""

from repro.analysis.plots import ascii_bars, ascii_series
from repro.analysis.stats import relative_error
from repro.analysis.tables import (
    format_bytes,
    format_seconds,
    render_table,
)

__all__ = [
    "ascii_bars",
    "ascii_series",
    "relative_error",
    "format_bytes",
    "format_seconds",
    "render_table",
]
