"""Tests for tables, ASCII plots, and the relative-error helper."""

from __future__ import annotations

import math

import pytest

from repro.analysis.plots import ascii_bars, ascii_series
from repro.analysis.stats import relative_error
from repro.analysis.tables import (
    format_bytes,
    format_seconds,
    render_table,
)
from repro.errors import ConfigurationError


class TestFormatting:
    @pytest.mark.parametrize(
        "count,expected",
        [
            (0, "0.00 B"),
            (512, "512.00 B"),
            (2048, "2.00 KiB"),
            (5 * 1024**2, "5.00 MiB"),
            (3 * 1024**3, "3.00 GiB"),
        ],
    )
    def test_format_bytes(self, count, expected):
        assert format_bytes(count) == expected

    def test_format_seconds(self):
        assert format_seconds(0.0031) == "3.1 ms"
        assert format_seconds(2.5) == "2.50 s"


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "count"],
            [("alpha", 10), ("b", 2)],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        # Numeric column right-aligned: 10 and 2 end at same offset.
        assert lines[-1].rstrip().endswith("2")
        assert lines[-2].rstrip().endswith("10")

    def test_wide_cells_stretch_columns(self):
        text = render_table(["h"], [("a-very-long-cell",)])
        header_line = text.splitlines()[0]
        assert len(header_line) >= len("a-very-long-cell")


class TestAsciiPlots:
    def test_series_renders_legend_and_axes(self):
        text = ascii_series(
            [1, 2, 3],
            {"ici": [1, 2, 3], "full": [3, 6, 9]},
            width=20,
            height=6,
            x_label="blocks",
            y_label="bytes",
        )
        assert "legend" in text
        assert "blocks" in text
        assert "bytes" in text

    def test_series_ragged_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_series([1, 2], {"a": [1]})

    def test_series_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_series([], {})

    def test_bars_scale_to_peak(self):
        text = ascii_bars(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bars_mismatched_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_bars(["a"], [1.0, 2.0])

    def test_constant_series_does_not_crash(self):
        text = ascii_series([1, 2], {"flat": [5, 5]})
        assert "flat" in text


class TestStats:
    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert math.isinf(relative_error(1, 0))
