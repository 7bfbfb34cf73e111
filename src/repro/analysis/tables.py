"""Result tables: fixed-width text renderings of experiment output.

Benches print through these helpers so every experiment's output has the
same shape as the paper's tables: one row per configuration, aligned
columns, explicit units.
"""

from __future__ import annotations

from typing import Sequence


def format_bytes(count: float) -> str:
    """Human bytes with binary prefixes (two significant decimals)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(size) < 1024.0 or unit == "TiB":
            return f"{size:,.2f} {unit}"
        size /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Human latency: ms below a second, seconds above."""
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned text table.

    Numeric cells are right-aligned, text cells left-aligned; the caller
    pre-formats units (see :func:`format_bytes` / :func:`format_seconds`).
    """
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def align(value: str, index: int, original: object) -> str:
        """Right-align numbers, left-align text."""
        if isinstance(original, (int, float)):
            return value.rjust(widths[index])
        return value.ljust(widths[index])

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row, raw in zip(cells, rows):
        lines.append(
            "  ".join(
                align(value, index, raw[index])
                for index, value in enumerate(row)
            )
        )
    return "\n".join(lines)
