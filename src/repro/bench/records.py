"""Result tables for the benchmark harness.

Every figure reproduction produces an :class:`ExperimentTable` — the
same rows/series the paper plots — which the benchmark suite prints and
saves.  Formatting is plain ASCII so `bench_output.txt` diffs cleanly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["ExperimentTable", "fmt", "ratio"]


def fmt(value: Any, precision: int = 2) -> str:
    """Human formatting: None -> drop-out marker, floats trimmed."""
    if value is None:
        return "--"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.0f}"
        if magnitude >= 1:
            return f"{value:.{precision}f}"
        return f"{value:.{precision + 2}g}"
    return str(value)


def ratio(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Safe a/b (None when either side is missing or b is 0)."""
    if a is None or b is None or b == 0:
        return None
    return a / b


@dataclass
class ExperimentTable:
    """One titled table of experiment output.

    ``rows`` hold raw values (floats/None); formatting happens at
    render time so the raw data stays machine-readable via
    :meth:`to_dict`.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment_id}: row has {len(values)} cells, "
                f"table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Attach a footnote rendered under the table."""
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "notes": list(self.notes),
        }

    # -- rendering -----------------------------------------------------------------

    def render(self, precision: int = 2) -> str:
        """ASCII table with title and footnotes."""
        cells = [[fmt(v, precision) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            header,
            sep,
        ]
        for row in cells:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def save(self, directory: str) -> str:
        """Write the rendered table to ``{dir}/{experiment_id}.txt`` and
        its machine-readable form to ``{dir}/{experiment_id}.json``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id}.txt")
        with open(path, "w") as fh:
            fh.write(self.render() + "\n")
        with open(os.path.join(directory, f"{self.experiment_id}.json"), "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
        return path

    def __str__(self) -> str:  # pragma: no cover
        return self.render()
