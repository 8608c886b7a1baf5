"""Result tables for the experiment harness.

An :class:`ExperimentReport` holds measured rows side by side with the
paper's reported numbers and renders the same tables/series the paper
prints — plus a delta column, since the reproduction targets *shapes*
rather than absolute seconds (DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = ["ExperimentRow", "ExperimentReport"]


@dataclass
class ExperimentRow:
    """One measured point of one experiment."""

    series: str  # e.g. "script", "workflow", "scala-operators"
    x: Any  # e.g. dataset size, worker count, operator count
    measured: float
    paper: Optional[float] = None
    unit: str = "s"

    @property
    def relative_error(self) -> Optional[float]:
        """(measured - paper) / paper, when a paper value exists."""
        if self.paper is None or self.paper == 0:
            return None
        return (self.measured - self.paper) / self.paper


@dataclass
class ExperimentReport:
    """All rows of one table/figure reproduction."""

    experiment_id: str  # e.g. "fig13a"
    title: str
    x_label: str
    rows: List[ExperimentRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(
        self,
        series: str,
        x: Any,
        measured: float,
        paper: Optional[float] = None,
        unit: str = "s",
    ) -> ExperimentRow:
        row = ExperimentRow(series, x, measured, paper, unit)
        self.rows.append(row)
        return row

    def series(self, name: str) -> List[ExperimentRow]:
        """Rows of one series, in insertion (x) order."""
        return [row for row in self.rows if row.series == name]

    def measured_series(self, name: str) -> List[float]:
        return [row.measured for row in self.series(name)]

    def to_text(self) -> str:
        """Render the report as an aligned text table."""
        header = (
            f"{self.experiment_id}: {self.title}\n"
            f"{'series':<22} {self.x_label:>12} {'measured':>12} "
            f"{'paper':>12} {'delta':>8}"
        )
        lines = [header, "-" * len(header.splitlines()[-1])]
        for row in self.rows:
            paper = f"{row.paper:.2f}" if row.paper is not None else "-"
            error = (
                f"{row.relative_error * 100:+.1f}%"
                if row.relative_error is not None
                else "-"
            )
            lines.append(
                f"{row.series:<22} {str(row.x):>12} {row.measured:>12.2f} "
                f"{paper:>12} {error:>8}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
