"""Diff a benchmark run against a committed baseline.

The simulator is deterministic, so a healthy comparison is an exact
match; the tolerance bands exist to absorb cross-platform float
wiggle and to let users loosen the gate deliberately.  Classification
per metric:

* ``pass`` — relative delta within ``rel_warn``;
* ``warn`` — within ``rel_fail`` (reported, exit code 0);
* ``fail`` — beyond ``rel_fail``, a structural mismatch (shape,
  missing anchor, claim regression), or a value appearing/disappearing.

Anchor metrics and claims gate first — they are the paper's headline
numbers — then every numeric table cell is checked, so a regression
anywhere in a curve is caught even when the anchors survive.

**Wall-clock metrics are the exception**: any metric named ``wall_s``,
``wall_time_s`` or ``events_per_sec`` (table columns, anchors, and the
record-level ``wall_time_s``) measures the *host*, not the simulation,
so it can never fail a comparison — drift beyond 25% warns, which CI
surfaces as an annotation instead of a red build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bench import baselines
from repro.bench.records import fmt
from repro.bench.schema import BenchRecord

__all__ = ["Tolerance", "MetricDiff", "Comparison", "compare_records", "compare_dirs"]

_ORDER = {"pass": 0, "warn": 1, "fail": 2}

#: Metric names (the last ``.``/``:`` component) that measure host
#: wall-clock rather than simulated results.  The ``serial_s`` /
#: ``parallel_s`` / ``warm_s`` timings and the speedups derived from
#: them come from the sweep meta-benchmark (``bench run sweep``).
_WALL_METRICS = frozenset({
    "wall_s", "wall_time_s", "events_per_sec",
    "serial_s", "parallel_s", "warm_s", "single_s",
    "speedup_parallel", "speedup_cache",
})

#: Relative drift a wall-clock metric may show before warning.
WALL_REL_WARN = 0.25


def _is_wall_metric(name: str) -> bool:
    tail = name.replace(":", ".").rsplit(".", 1)[-1]
    return tail in _WALL_METRICS


def _classify_wall(baseline: Optional[float], new: Optional[float]) -> str:
    """pass/warn for a host-timing pair — never ``fail``."""
    if baseline == new:
        return "pass"
    if baseline is None or new is None or baseline == 0:
        return "warn"
    rel = abs(new - baseline) / abs(baseline)
    return "pass" if rel <= WALL_REL_WARN else "warn"


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance bands for numeric metrics."""

    rel_warn: float = 0.01
    rel_fail: float = 0.05

    def classify(self, baseline: Optional[float], new: Optional[float]) -> str:
        """pass/warn/fail for one pair of values (None = drop-out)."""
        if baseline is None and new is None:
            return "pass"
        if baseline is None or new is None:
            return "fail"  # a drop-out appeared or vanished
        if baseline == new:
            return "pass"
        if baseline == 0:
            return "fail"
        rel = abs(new - baseline) / abs(baseline)
        if rel <= self.rel_warn:
            return "pass"
        if rel <= self.rel_fail:
            return "warn"
        return "fail"


@dataclass(frozen=True)
class MetricDiff:
    """One compared metric: where it lives, both values, the verdict."""

    metric: str
    baseline: Optional[float]
    new: Optional[float]
    status: str

    @property
    def rel_delta(self) -> Optional[float]:
        if self.baseline in (None, 0) or self.new is None:
            return None
        return (self.new - self.baseline) / abs(self.baseline)

    def render(self) -> str:
        delta = self.rel_delta
        pct = f"{delta:+.2%}" if delta is not None else "n/a"
        return (f"  [{self.status.upper():4}] {self.metric}: "
                f"{fmt(self.baseline)} -> {fmt(self.new)} ({pct})")


@dataclass
class Comparison:
    """Outcome of comparing one experiment against its baseline."""

    experiment: str
    diffs: List[MetricDiff] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)  # structural failures

    @property
    def status(self) -> str:
        worst = "fail" if self.problems else "pass"
        if not self.problems:
            for d in self.diffs:
                if _ORDER[d.status] > _ORDER[worst]:
                    worst = d.status
        return worst

    @property
    def counts(self) -> dict:
        c = {"pass": 0, "warn": 0, "fail": len(self.problems)}
        for d in self.diffs:
            c[d.status] += 1
        return c

    def render(self, verbose: bool = False) -> str:
        c = self.counts
        lines = [f"{self.experiment}: {self.status.upper()} "
                 f"({c['pass']} pass, {c['warn']} warn, {c['fail']} fail)"]
        for p in self.problems:
            lines.append(f"  [FAIL] {p}")
        for d in self.diffs:
            if verbose or d.status != "pass":
                lines.append(d.render())
        return "\n".join(lines)


def compare_records(
    new: BenchRecord,
    baseline: BenchRecord,
    tol: Tolerance = Tolerance(),
) -> Comparison:
    """Compare a fresh run against the committed baseline record."""
    comp = Comparison(new.experiment)

    if new.schema_version != baseline.schema_version:
        comp.problems.append(
            f"schema version changed: baseline v{baseline.schema_version} "
            f"vs run v{new.schema_version}")
        return comp
    if new.quick != baseline.quick:
        comp.problems.append(
            f"axis mismatch: baseline is a {'quick' if baseline.quick else 'full'} "
            f"run, this is a {'quick' if new.quick else 'full'} run "
            "(rerun with matching --quick, or refresh the baseline)")
        return comp

    # Host timing: warn-only, both at record level and below.
    comp.diffs.append(MetricDiff(
        "record:wall_time_s", baseline.wall_time_s, new.wall_time_s,
        _classify_wall(baseline.wall_time_s, new.wall_time_s)))
    if (baseline.events_processed is not None
            and new.events_processed is not None):
        # Deterministic cost counter (schema v2): gated like any metric.
        comp.diffs.append(MetricDiff(
            "record:events_processed",
            float(baseline.events_processed), float(new.events_processed),
            tol.classify(float(baseline.events_processed),
                         float(new.events_processed))))

    # Anchors: the calibrated headline metrics.
    base_anchors = {a["key"]: a for a in baseline.anchors}
    new_anchors = {a["key"]: a for a in new.anchors}
    for key in sorted(base_anchors.keys() | new_anchors.keys()):
        if key not in new_anchors:
            comp.problems.append(f"anchor {key!r} vanished from the run")
            continue
        if key not in base_anchors:
            comp.problems.append(f"anchor {key!r} has no committed baseline")
            continue
        bval = base_anchors[key]["measured"]
        nval = new_anchors[key]["measured"]
        comp.diffs.append(MetricDiff(
            f"anchor:{key}", bval, nval,
            _classify_wall(bval, nval) if _is_wall_metric(key)
            else tol.classify(bval, nval)))
        if not new_anchors[key]["ok"] and base_anchors[key]["ok"]:
            comp.problems.append(
                f"anchor {key!r} fell outside its paper tolerance "
                f"(paper {fmt(new_anchors[key]['paper'])}, "
                f"measured {fmt(new_anchors[key]['measured'])})")

    # Claims: structural statements must not regress.
    base_claims = {c["key"]: c["passed"] for c in baseline.claims}
    for c in new.claims:
        was = base_claims.get(c["key"])
        if was is None:
            continue
        if was and not c["passed"]:
            comp.problems.append(f"claim regressed: {c['description']}")
        elif not was and c["passed"]:
            comp.diffs.append(MetricDiff(
                f"claim:{c['key']} (now passes; refresh baseline?)",
                0.0, 1.0, "warn"))

    # Every numeric table cell.
    for panel in sorted(baseline.tables.keys() | new.tables.keys()):
        if panel not in new.tables:
            comp.problems.append(f"panel {panel!r} missing from the run")
            continue
        if panel not in baseline.tables:
            comp.problems.append(f"panel {panel!r} has no committed baseline")
            continue
        bt, nt = baseline.tables[panel], new.tables[panel]
        if bt["columns"] != nt["columns"] or len(bt["rows"]) != len(nt["rows"]):
            comp.problems.append(
                f"panel {panel!r} shape changed: "
                f"{len(bt['rows'])}x{len(bt['columns'])} -> "
                f"{len(nt['rows'])}x{len(nt['columns'])}")
            continue
        for i, (brow, nrow) in enumerate(zip(bt["rows"], nt["rows"])):
            for col, bval, nval in zip(bt["columns"], brow, nrow):
                if isinstance(bval, str) or isinstance(nval, str):
                    if bval != nval:
                        comp.problems.append(
                            f"{panel}[{i}].{col}: {bval!r} != {nval!r}")
                    continue
                comp.diffs.append(MetricDiff(
                    f"{panel}[{i}].{col}", bval, nval,
                    _classify_wall(bval, nval) if col in _WALL_METRICS
                    else tol.classify(bval, nval)))
    return comp


def compare_dirs(
    results: Optional[str] = None,
    baseline: Optional[str] = None,
    experiments: Optional[List[str]] = None,
    tol: Tolerance = Tolerance(),
) -> List[Comparison]:
    """Compare every (or the named) result record against its baseline.

    Records present only in the results directory fail (no baseline to
    gate against); baselines without a fresh run are skipped — CI runs
    a subset of the suites.
    """
    results_dir = baselines.results_dir(results)
    baseline_dir = baselines.baseline_dir(baseline)
    found = baselines.discover(results_dir)
    names = sorted(found) if experiments is None else experiments
    comparisons = []
    for exp in names:
        comp = Comparison(exp)
        if exp not in found:
            comp.problems.append(f"no run output in {results_dir!r} "
                                 "(did `bench run` succeed?)")
            comparisons.append(comp)
            continue
        try:
            base = baselines.load_record(baseline_dir, exp)
        except FileNotFoundError:
            comp.problems.append(
                f"no committed baseline in {baseline_dir!r}; create one with "
                f"`python -m repro bench run {exp} --update-baseline`")
            comparisons.append(comp)
            continue
        comparisons.append(
            compare_records(BenchRecord.load(found[exp]), base, tol))
    return comparisons
