"""Plain-text and CSV rendering of result tables.

The benchmark harnesses print the same rows the paper reports; these helpers
keep that formatting in one place (aligned ASCII columns, stable float
formatting) so the output of ``pytest benchmarks/ --benchmark-only`` and of
the ``gridfed`` CLI is easy to diff against ``EXPERIMENTS.md``, which
``scripts/generate_experiments_md.py`` writes (the file is not checked in).
"""

from __future__ import annotations

import io
from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell, float_digits: int = 2) -> str:
    if isinstance(value, bool):  # bool is an int subclass; keep it readable
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "n/a"
        if abs(value) >= 1e6 or (abs(value) < 1e-3 and value != 0.0):
            return f"{value:.3e}"
        return f"{value:.{float_digits}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
    float_digits: int = 2,
) -> str:
    """Render an aligned ASCII table.

    Parameters
    ----------
    headers:
        Column headers.
    rows:
        Row cells; numbers are formatted with ``float_digits`` decimals
        (scientific notation for very large/small magnitudes).
    title:
        Optional title printed above the table.
    """
    formatted_rows: List[List[str]] = [
        [_format_cell(cell, float_digits) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    out = io.StringIO()
    if title:
        out.write(f"{title}\n")
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    out.write(header_line + "\n")
    out.write("-+-".join("-" * w for w in widths) + "\n")
    for row in formatted_rows:
        out.write(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) + "\n")
    return out.getvalue()


def to_csv(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """Render rows as CSV text (comma-separated, header first)."""
    out = io.StringIO()
    out.write(",".join(str(h) for h in headers) + "\n")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        out.write(",".join(_format_cell(cell, float_digits=6) for cell in row) + "\n")
    return out.getvalue()
