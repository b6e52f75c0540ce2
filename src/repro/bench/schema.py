"""The machine-readable benchmark record (``BENCH_<experiment>.json``).

One :class:`BenchRecord` captures everything a benchmark run produced:
the result tables (the same rows the paper plots), the anchor metrics
with their paper-claim deltas, the structural claims, a per-layer trace
summary, and enough provenance (git sha, seed, schema version, wall
time) to interpret the numbers later.

The serialized form is deliberately boring — a single JSON object,
``sort_keys=True``, ``indent=1``, trailing newline — so committed
baselines diff cleanly and re-serialization is byte-stable.  Bump
:data:`SCHEMA_VERSION` whenever a field changes meaning; the loader
rejects versions it does not understand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.records import ExperimentTable

__all__ = ["SCHEMA_VERSION", "BenchRecord", "SchemaError"]

#: Current serialization format.  History: 1 = initial (PR 2);
#: 2 = adds ``events_processed`` (simulation events the run consumed —
#: deterministic, unlike ``wall_time_s``); 3 = added a simulation-mode
#: field for a second mode that no longer exists.  Records no longer
#: write that field and readers ignore it, so version-3 files load
#: with or without it.
SCHEMA_VERSION = 3

#: Versions :meth:`BenchRecord.from_dict` accepts.  Version-1 records
#: load with ``events_processed = None``.
_SUPPORTED_VERSIONS = (1, 2, 3)

_REQUIRED_KEYS = frozenset({
    "schema_version", "experiment", "title", "git_sha", "seed", "quick",
    "wall_time_s", "tables", "anchors", "claims", "layers", "kinds",
})


class SchemaError(ValueError):
    """A benchmark record failed structural validation."""


@dataclass
class BenchRecord:
    """One benchmark run, ready to persist or compare.

    Attributes
    ----------
    experiment:
        Suite id (``fig04``); the file is named ``BENCH_<experiment>.json``.
    tables:
        Panel id -> :meth:`ExperimentTable.to_dict` payload.
    anchors / claims:
        Serialized :class:`~repro.bench.suites.Anchor` /
        :class:`~repro.bench.suites.Claim` dicts, in extraction order.
    layers / kinds:
        Per-layer and per-trace-kind event counts and time-in-layer
        (seconds of instrumented cost), from the run's trace stream.
    seed:
        Explicit RNG seed, or None for the drivers' built-in defaults.
    events_processed:
        Simulation events consumed across every panel of the run — a
        deterministic cost measure (None in version-1 records).
    wall_time_s / git_sha:
        ``git_sha`` is provenance only; ``wall_time_s`` is gated
        warn-only by the comparator (>25% drift warns, never fails).
    """

    experiment: str
    title: str
    tables: Dict[str, Dict[str, Any]]
    anchors: List[Dict[str, Any]] = field(default_factory=list)
    claims: List[Dict[str, Any]] = field(default_factory=list)
    layers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    kinds: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    git_sha: str = "unknown"
    seed: Optional[int] = None
    quick: bool = False
    wall_time_s: float = 0.0
    events_processed: Optional[int] = None
    schema_version: int = SCHEMA_VERSION

    # -- structured access ---------------------------------------------------

    def table(self, panel: str) -> ExperimentTable:
        """One panel's table, rebuilt as an :class:`ExperimentTable`."""
        d = self.tables[panel]
        table = ExperimentTable(d["experiment_id"], d["title"], d["columns"])
        for row in d["rows"]:
            table.add_row(*row)
        for note in d["notes"]:
            table.add_note(note)
        return table

    def anchor(self, key: str) -> Dict[str, Any]:
        """One anchor dict by key (KeyError when absent)."""
        for a in self.anchors:
            if a["key"] == key:
                return a
        raise KeyError(f"{self.experiment}: no anchor {key!r}")

    @property
    def anchors_ok(self) -> bool:
        """All paper-tied anchors within tolerance."""
        return all(a["ok"] for a in self.anchors)

    @property
    def claims_ok(self) -> bool:
        """All structural claims hold."""
        return all(c["passed"] for c in self.claims)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "title": self.title,
            "git_sha": self.git_sha,
            "seed": self.seed,
            "quick": self.quick,
            "wall_time_s": self.wall_time_s,
            "events_processed": self.events_processed,
            "tables": self.tables,
            "anchors": self.anchors,
            "claims": self.claims,
            "layers": self.layers,
            "kinds": self.kinds,
        }

    def to_json(self) -> str:
        """Canonical serialized form (byte-stable for equal content)."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BenchRecord":
        """Validate and rebuild; raises :class:`SchemaError` on bad input."""
        if not isinstance(d, dict):
            raise SchemaError(f"bench record must be an object, got {type(d).__name__}")
        missing = _REQUIRED_KEYS - d.keys()
        if missing:
            raise SchemaError(f"bench record missing keys: {sorted(missing)}")
        version = d["schema_version"]
        if version not in _SUPPORTED_VERSIONS:
            raise SchemaError(
                f"unsupported bench schema version {version!r} "
                f"(supported: {list(_SUPPORTED_VERSIONS)})")
        if not isinstance(d["tables"], dict) or not d["tables"]:
            raise SchemaError("bench record has no result tables")
        for panel, t in d["tables"].items():
            for key in ("experiment_id", "title", "columns", "rows", "notes"):
                if key not in t:
                    raise SchemaError(f"table {panel!r} missing {key!r}")
        return cls(
            experiment=d["experiment"],
            title=d["title"],
            tables=d["tables"],
            anchors=list(d["anchors"]),
            claims=list(d["claims"]),
            layers=dict(d["layers"]),
            kinds=dict(d["kinds"]),
            git_sha=d["git_sha"],
            seed=d["seed"],
            quick=bool(d["quick"]),
            wall_time_s=float(d["wall_time_s"]),
            events_processed=(
                None if d.get("events_processed") is None
                else int(d["events_processed"])),
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchRecord":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"bench record is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "BenchRecord":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_json())
        return path
