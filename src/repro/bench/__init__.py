"""The measurement layer: benchmarks, baselines, and generated docs.

Submodules
----------
``figures`` / ``microbench`` / ``*bench``
    The experiments — a ``*_points()`` sweep decomposition per
    figure panel, or a meta panel that times the host — and, next to
    them, each module's suite declarations (panels, anchors, claims).
``suites``
    The declaration types (``Panel``, ``Anchor``, ``Claim``,
    ``BenchSuite``) and the loader: ``get_suite``, ``suite_names`` and
    ``get_panel``.
``executor`` / ``cache``
    The point-sweep executor: serial or process-pool fan-out over pure
    figure points, with a content-addressed on-disk result cache.
``runner`` / ``schema`` / ``baselines``
    Execute a suite, capture it as a schema-versioned
    ``BENCH_<experiment>.json`` record, and manage the committed
    baselines under ``benchmarks/baselines/``.
``comparator``
    Regression gate: diff a run against its baseline with tolerance
    bands (``pass``/``warn``/``fail``).
``report``
    Regenerate ``docs/EXPERIMENTS_GENERATED.md`` and the marked tables
    in ``EXPERIMENTS.md`` from the committed records.

The CLI front end is ``python -m repro bench run|compare|report|list``;
the pytest benchmarks under ``benchmarks/`` are thin adapters over the
same suites.
"""

from repro.bench.cache import ResultCache, code_fingerprint
from repro.bench.comparator import Comparison, MetricDiff, Tolerance, compare_records
from repro.bench.executor import Point, PointPlan, SweepExecutor
from repro.bench.records import ExperimentTable, fmt, ratio
from repro.bench.runner import TraceAggregator, run_experiment
from repro.bench.schema import SCHEMA_VERSION, BenchRecord, SchemaError
from repro.bench.suites import (
    Anchor,
    BenchSuite,
    Claim,
    Panel,
    get_panel,
    get_suite,
    suite_names,
)

__all__ = [
    "ExperimentTable",
    "fmt",
    "ratio",
    "BenchRecord",
    "SchemaError",
    "SCHEMA_VERSION",
    "Anchor",
    "Claim",
    "BenchSuite",
    "Panel",
    "get_suite",
    "get_panel",
    "suite_names",
    "run_experiment",
    "TraceAggregator",
    "Point",
    "PointPlan",
    "SweepExecutor",
    "ResultCache",
    "code_fingerprint",
    "Tolerance",
    "MetricDiff",
    "Comparison",
    "compare_records",
]
