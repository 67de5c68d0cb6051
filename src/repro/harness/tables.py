"""Plain-text table formatting for experiment results."""

from __future__ import annotations

from typing import Sequence


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = "") -> str:
    """Render a list of dictionaries as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {c: len(str(c)) for c in columns}
    rendered_rows = []
    for row in rows:
        rendered = {c: _render(row.get(c)) for c in columns}
        rendered_rows.append(rendered)
        for c in columns:
            widths[c] = max(widths[c], len(rendered[c]))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _render(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:.4g}"
    return str(value)
