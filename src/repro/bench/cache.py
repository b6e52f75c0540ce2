"""Content-addressed result cache for sweep points.

Every figure sweep decomposes into pure :class:`~repro.bench.executor.Point`
work items (see ``repro.bench.executor``); this module memoizes their
results on disk so a rerun whose inputs have not changed never
re-simulates.  The design follows the network-data-cache idea the
sweep executor borrows from the WAN visualization literature: address
results by *content*, not by run, so any execution — serial, parallel,
pytest, CI — shares one store.

Key anatomy (SHA-256 over a canonical JSON document)::

    {
      "cache_schema": 2,          # bump to invalidate every entry
      "figure": "8a",             # panel the point belongs to
      "fn": "fig8_rate",          # registry name of the point function
      "params": {...},            # sort_keys canonical JSON kwargs
      "code": "<fingerprint>",    # hash over src/repro/**/*.py + git sha
      "context": {...}            # RunContext.current().fingerprint()
    }

Everything a point's result depends on that is *not* in its ``params``
is ambient run state, and :class:`RunContext` is the one list of it:
the effective simulation mode (``"packet"`` or ``"fluid"``, so
packet-mode and fluid-mode results never alias even when their values
agree) and the ambient :class:`~repro.faults.FaultPlan` (so results
measured inside ``with injecting(plan):`` can never be confused with
fault-free ones, or with a different plan's).  The same object is what
:class:`~repro.bench.executor.SweepExecutor` ships to its pool workers,
so a knob cannot reach the key without reaching the workers, or the
other way round.  Scenario knobs (cache placement, stripe width,
replication factor, a chaos point's own plan) ride in ``params``.

The *code fingerprint* hashes the installed ``repro`` package sources
(sorted relative paths + file contents) together with
:func:`repro.bench.runner.git_sha`, so editing any simulator source —
committed or not — invalidates every entry while doc-only edits
outside the package keep the cache warm.

Values are small JSON documents carrying the point's return value plus
its deterministic execution profile (simulation events consumed,
per-trace-kind counts), so a cache hit reproduces the full
:class:`~repro.bench.schema.BenchRecord` — tables, ``events_processed``,
``kinds``/``layers`` — bit-for-bit, not just the rows.

Storage is one file per entry under ``benchmarks/cache/`` (gitignored;
override with ``REPRO_BENCH_CACHE``), capped LRU-style by total size
(``REPRO_BENCH_CACHE_MAX_MB``, default 64): hits refresh the file
mtime, and inserts evict the stalest entries once the cap is exceeded.
Writes are atomic (tempfile + rename), so concurrent writers — the
process pool, parallel pytest — never expose a torn entry; a corrupt
or unreadable file is treated as a miss and rewritten.

CLI: ``python -m repro bench cache stats|clear``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.faults.plan import FaultPlan, active_plan, injecting
from repro.sim.flow import effective_sim_mode, simulation_mode

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MAX_BYTES",
    "cache_dir",
    "code_fingerprint",
    "RunContext",
    "ResultCache",
]

#: Bump to orphan every existing entry (key and payload format changes).
CACHE_SCHEMA_VERSION = 2

#: Default size cap for the on-disk store (64 MB ~ tens of thousands of
#: points; one entry is typically well under a kilobyte).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

_SUFFIX = ".json"


def cache_dir(override: Optional[str] = None) -> str:
    """The cache directory (override > ``REPRO_BENCH_CACHE`` > default)."""
    return (override
            or os.environ.get("REPRO_BENCH_CACHE")
            or os.path.join("benchmarks", "cache"))


def _max_bytes_from_env() -> int:
    raw = os.environ.get("REPRO_BENCH_CACHE_MAX_MB", "")
    try:
        return int(float(raw) * 1024 * 1024) if raw else DEFAULT_MAX_BYTES
    except ValueError:
        return DEFAULT_MAX_BYTES


_fingerprint: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """Hash of the ``repro`` package sources plus the git sha.

    Memoized per process — the sweep executor computes thousands of
    cache keys per run, and the tree does not change underneath one.
    """
    global _fingerprint
    if _fingerprint is not None and not refresh:
        return _fingerprint
    import repro
    from repro.bench.runner import git_sha

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    digest.update(git_sha().encode())
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                sources.append((os.path.relpath(path, root), path))
    for rel, path in sorted(sources):
        digest.update(rel.encode())
        digest.update(b"\0")
        try:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\0")
    _fingerprint = digest.hexdigest()
    return _fingerprint


@dataclass(frozen=True)
class RunContext:
    """The ambient run state a point's result depends on.

    One field per knob: :meth:`ResultCache.key` hashes
    :meth:`fingerprint`, and the sweep executor ships :meth:`to_dict`
    to every point and reinstalls it with :meth:`running`, so pool
    workers run under exactly the state the key records.
    """

    mode: str = "packet"                 # effective simulation mode
    faults: Optional[FaultPlan] = None   # ambient fault plan; None = none

    @classmethod
    def current(cls) -> "RunContext":
        """The context in effect now: the effective mode plus the
        ambient plan (``None`` when no plan or an empty one is
        installed — both leave every fault hook off)."""
        plan = active_plan()
        return cls(mode=effective_sim_mode(),
                   faults=None if plan is None or plan.is_empty else plan)

    @contextmanager
    def running(self) -> Iterator["RunContext"]:
        """Install this context for the duration of the block."""
        with simulation_mode(self.mode), injecting(self.faults):
            yield self

    def to_dict(self) -> Dict[str, Any]:
        return {"mode": self.mode,
                "faults": None if self.faults is None
                else self.faults.to_dict()}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunContext":
        faults = d["faults"]
        return cls(mode=d["mode"],
                   faults=None if faults is None
                   else FaultPlan.from_dict(faults))

    def fingerprint(self) -> Dict[str, Optional[str]]:
        """The cache-key field.  An empty plan keys like no plan, and a
        plan's display name never partitions the key (it is not part
        of :meth:`FaultPlan.fingerprint`)."""
        plan = self.faults
        return {"mode": self.mode,
                "faults": None if plan is None or plan.is_empty
                else plan.fingerprint()}


class ResultCache:
    """Content-addressed point-result store with an LRU size cap.

    ``hits`` / ``misses`` count lookups over this instance's lifetime;
    the executor surfaces them per run and CI gates the cached-rerun
    hit rate on them.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_bytes: Optional[int] = None) -> None:
        self.directory = cache_dir(directory)
        self.max_bytes = _max_bytes_from_env() if max_bytes is None else max_bytes
        self.hits = 0
        self.misses = 0

    # -- keys ----------------------------------------------------------------

    def key(self, figure: str, fn: str, params: Dict[str, Any]) -> str:
        """SHA-256 cache key for one point (see module docstring)."""
        doc = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "figure": figure,
            "fn": fn,
            "params": params,
            "code": code_fingerprint(),
            "context": RunContext.current().fingerprint(),
        }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + _SUFFIX)

    # -- lookups -------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for *key*, or None (counted as hit/miss).

        A hit refreshes the entry's mtime so eviction stays LRU; a
        structurally invalid or unreadable entry is a miss.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if (not isinstance(payload, dict)
                or payload.get("cache_schema") != CACHE_SCHEMA_VERSION
                or "value" not in payload
                or not isinstance(payload.get("kinds"), dict)):
            self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return payload

    def put(self, key: str, figure: str, fn: str, params: Dict[str, Any],
            value: Any, events: int, kinds: Dict[str, Dict[str, float]]) -> str:
        """Store one point result atomically; returns the entry path."""
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "figure": figure,
            "fn": fn,
            "params": params,
            "value": value,
            "events": events,
            "kinds": kinds,
        }
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
        except BaseException:
            os.unlink(tmp)
            raise
        os.replace(tmp, path)
        self._evict()
        return path

    # -- maintenance ---------------------------------------------------------

    def _entries(self):
        """[(mtime, size, path)] for every entry, oldest first."""
        if not os.path.isdir(self.directory):
            return []
        entries = []
        for name in os.listdir(self.directory):
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
        entries.sort()
        return entries

    def _evict(self) -> int:
        """Drop least-recently-used entries until under the size cap."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry count, bytes on disk, cap, and this instance's hit/miss."""
        entries = self._entries()
        return {
            "directory": self.directory,
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for _, _, path in self._entries():
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
        return removed
