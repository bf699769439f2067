"""Paper-style tables and the metric fragments harness reports share."""

from __future__ import annotations

from typing import Iterable, Sequence


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table (paper tables/figure series)."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def format_quantiles(histogram, unit: str = "ms") -> str:
    """``p50=... p95=... p99=... (n=...)`` of one histogram of seconds.

    *histogram* may be ``None`` (the series was never created); *unit*
    is ``"ms"`` (one decimal) or ``"s"`` (three).
    """
    if histogram is None or not histogram.count:
        return "no observations"
    scale, digits = (1e3, 1) if unit == "ms" else (1.0, 3)
    quantiles = " ".join(
        f"p{int(q * 100)}={histogram.quantile(q) * scale:.{digits}f}{unit}"
        for q in histogram.tracked_quantiles
    )
    return f"{quantiles} (n={histogram.count})"


def counter_total(registry, name: str) -> int:
    """The sum over every label set of counter *name*, as an integer."""
    return int(registry.total(name))
