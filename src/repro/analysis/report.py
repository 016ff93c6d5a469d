"""ASCII rendering of experiment results.

The benchmark harness prints the same rows and series the paper reports;
these helpers keep that output uniform: fixed-width tables, aligned
numeric columns, and a paper-vs-measured comparison layout used by
EXPERIMENTS.md generation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_series"]


def _render(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a fixed-width table with a header rule."""
    rendered = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence, x_label: str = "x", y_label: str = "y") -> str:
    """Render a figure's data series as a two-column table."""
    header = f"# {name}"
    table = format_table([x_label, y_label], zip(xs, ys))
    return f"{header}\n{table}"
