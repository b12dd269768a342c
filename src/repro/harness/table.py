"""Plain-text result tables: the CLI prints result rows in a fixed-width
table that survives captured output.
"""

from __future__ import annotations

from typing import List, Sequence, Union

__all__ = ["Table", "format_value"]

Cell = Union[str, float, int, None]


def format_value(value: Cell, precision: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


class Table:
    """A fixed-width text table.

    >>> t = Table(["algo", "paper", "measured"])
    >>> t.add_row(["MPTCP", 95, 93.7])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], precision: int = 1):
        self.headers = [str(h) for h in headers]
        self.precision = precision
        self.rows: List[List[str]] = []

    def add_row(self, cells: Sequence[Cell]) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([format_value(c, self.precision) for c in cells])

    def render(self, title: str = "") -> str:
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = []
        if title:
            lines.append(title)
        header = "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)
