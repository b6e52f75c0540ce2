"""Benchmark suite declarations: the types, shared helpers, and loader.

Each suite is declared once, in the module that holds its experiments:
a module-level ``BENCH_SUITES`` tuple of :class:`BenchSuite` values,
each with its :class:`Panel` list and its anchor/claim extractors.
This module holds what those declarations share:

* :class:`Panel` — one panel: a point-plan function with its full and
  ``--quick`` kwargs (a sweep panel), or a ``run(quick)`` function that
  times the host (a meta panel);
* :class:`Anchor` — a scalar metric extracted from the result tables,
  optionally tied to a number the paper publishes (with a relative
  tolerance);
* :class:`Claim` — a structural pass/fail statement the paper makes
  (orderings, monotonicity, crossovers);
* :class:`BenchSuite` — groups the panels of one experiment
  (``fig04`` = panels 4a + 4b) with its anchor/claim extractors;
* the loader — :func:`get_suite`, :func:`suite_names` and
  :func:`get_panel` — which imports the declaring modules on first use.

``python -m repro figure``, ``python -m repro bench`` and the pytest
benchmarks under ``benchmarks/`` all resolve panels and extractors
through the loader — one implementation, three front ends.
"""

from __future__ import annotations

import functools
import importlib
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.bench.records import ExperimentTable

if TYPE_CHECKING:
    from repro.bench.executor import PointPlan

__all__ = [
    "Anchor",
    "Claim",
    "Panel",
    "BenchSuite",
    "get_suite",
    "get_panel",
    "suite_names",
]

#: The modules that declare suites (each exports ``BENCH_SUITES``),
#: imported on the first lookup.  A new declaring module adds its name.
_DECLARING_MODULES = (
    "repro.bench.figures",
    "repro.bench.microbench",
    "repro.bench.executor",
    "repro.bench.servebench",
    "repro.bench.wancachebench",
    "repro.bench.tailsbench",
)


@dataclass(frozen=True)
class Panel:
    """One panel of a suite: a sweep or a meta panel.

    A sweep panel holds the function that returns its point plan
    (``plan_fn``) plus the kwargs of its full axes; ``quick_kwargs``
    overlay them for the ``--quick`` axes.  A meta panel times the host
    instead: it holds a ``run(quick)`` function, has no plan, and always
    runs inline and uncached.
    """

    panel_id: str
    plan_fn: Optional[Callable[..., PointPlan]] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)
    quick_kwargs: Dict[str, Any] = field(default_factory=dict)
    run: Optional[Callable[[bool], ExperimentTable]] = None

    def __post_init__(self) -> None:
        if (self.plan_fn is None) == (self.run is None):
            raise ValueError(
                f"panel {self.panel_id!r} needs exactly one of a plan "
                "function or a run function")

    def plan(self, quick: bool) -> Optional[PointPlan]:
        """The panel's point plan, or None for a meta panel."""
        if self.plan_fn is None:
            return None
        return self.plan_fn(**self.kwargs,
                            **(self.quick_kwargs if quick else {}))

    def table(self, quick: bool) -> ExperimentTable:
        """Run the whole panel in this process, under the ambient fault
        plan and tracer."""
        plan = self.plan(quick)
        return self.run(quick) if plan is None else plan.run()


@dataclass(frozen=True)
class Anchor:
    """One scalar metric extracted from a run.

    ``paper`` and ``rel_tol`` are set when the paper publishes the
    number; :attr:`ok` then states whether the measurement lands within
    the tolerance band.  Anchors without a paper value are tracked for
    baseline regressions only.
    """

    key: str
    description: str
    measured: Optional[float]
    group: str  # panel id the metric comes from (e.g. "4a")
    unit: str = ""
    paper: Optional[float] = None
    rel_tol: Optional[float] = None

    @property
    def delta_rel(self) -> Optional[float]:
        """Relative deviation from the paper value (None when untied)."""
        if self.paper in (None, 0) or self.measured is None:
            return None
        return (self.measured - self.paper) / abs(self.paper)

    @property
    def ok(self) -> bool:
        """Within tolerance of the paper value (True when untied)."""
        if self.paper is None or self.rel_tol is None:
            return self.measured is not None
        if self.measured is None:
            return False
        return abs(self.measured - self.paper) <= self.rel_tol * abs(self.paper)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "description": self.description,
            "measured": self.measured,
            "group": self.group,
            "unit": self.unit,
            "paper": self.paper,
            "rel_tol": self.rel_tol,
            "delta_rel": self.delta_rel,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class Claim:
    """One structural statement from the paper, checked against a run."""

    key: str
    description: str
    passed: bool
    group: str

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "description": self.description,
            "passed": self.passed,
            "group": self.group,
        }


Extractor = Callable[[Dict[str, ExperimentTable]], List]


@dataclass(frozen=True)
class BenchSuite:
    """One benchmark experiment: its panels and how to judge a run."""

    bench_id: str
    title: str
    panels: Tuple[Panel, ...]
    anchors: Extractor = field(default=lambda tables: [])
    claims: Extractor = field(default=lambda tables: [])

    @property
    def panel_ids(self) -> Tuple[str, ...]:
        return tuple(p.panel_id for p in self.panels)


# ---------------------------------------------------------------------------
# table helpers shared by the declaring modules' extractors
# ---------------------------------------------------------------------------


def _cell(table: ExperimentTable, key_col: str, key, value_col: str):
    """Table cell lookup by row key; None when the row is absent."""
    try:
        idx = table.column(key_col).index(key)
    except ValueError:
        return None
    return table.rows[idx][table.columns.index(value_col)]


def _rows(table: ExperimentTable) -> List[Dict[str, Any]]:
    """The table's rows as column-name -> value dicts."""
    return [dict(zip(table.columns, row)) for row in table.rows]


def _sweep_host_cpus(table: ExperimentTable) -> Optional[int]:
    """The ``host_cpus=N`` a wall-clock meta panel noted, if any."""
    for note in table.notes:
        m = re.search(r"host_cpus=(\d+)", note)
        if m:
            return int(m.group(1))
    return None


# ---------------------------------------------------------------------------
# the loader
# ---------------------------------------------------------------------------


@functools.cache
def _declarations() -> Tuple[Dict[str, BenchSuite], Dict[str, Panel]]:
    """Every declared suite and panel, by id.

    Raises ValueError, naming both declaring modules, when a suite id
    or panel id is declared twice.
    """
    suites: Dict[str, BenchSuite] = {}
    panels: Dict[str, Panel] = {}
    owners: Dict[Tuple[str, str], str] = {}  # (kind, id) -> module
    for module in _DECLARING_MODULES:
        for suite in importlib.import_module(module).BENCH_SUITES:
            ids = [("suite", suite.bench_id)]
            ids += [("panel", p.panel_id) for p in suite.panels]
            for kind, ident in ids:
                if (kind, ident) in owners:
                    raise ValueError(
                        f"{kind} id {ident!r} is declared by both "
                        f"{owners[kind, ident]} and {module}")
                owners[kind, ident] = module
            suites[suite.bench_id] = suite
            panels.update((p.panel_id, p) for p in suite.panels)
    return suites, panels


def get_suite(bench_id: str) -> BenchSuite:
    """Look a suite up by id; accepts ``fig04``, ``04``, ``4``, ``fig4``,
    and non-figure suite ids (``kernel``) verbatim."""
    suites = _declarations()[0]
    key = bench_id.lower()
    if key in suites:
        return suites[key]
    if not key.startswith("fig"):
        key = "fig" + key
    digits = key[3:]
    if digits.isdigit():
        key = f"fig{int(digits):02d}"
    if key not in suites:
        raise KeyError(
            f"unknown bench experiment {bench_id!r}; have {sorted(suites)}")
    return suites[key]


def get_panel(panel_id: str) -> Panel:
    """Look a panel up by id; accepts ``4a``, ``fig4a``, ``FIG10`` and
    non-figure panel ids (``serve``, ``tlc``) verbatim."""
    panels = _declarations()[1]
    key = panel_id.lower()
    if key not in panels and key.startswith("fig"):
        key = key[len("fig"):]
    if key not in panels:
        raise KeyError(
            f"unknown figure {panel_id!r}; have {sorted(panels)}")
    return panels[key]


def suite_names() -> List[str]:
    """All experiment ids, sorted."""
    return sorted(_declarations()[0])
