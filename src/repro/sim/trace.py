"""Lightweight structured tracing.

Subsystems emit trace records — ``tracer.emit("tcp.segment", size=1460)`` —
and tests or debugging sessions subscribe to kinds they care about.  When
nothing is subscribed and recording is off, :attr:`Tracer.enabled` is
False; hot paths guard their ``emit`` behind that one attribute check
(``if tracer.enabled: tracer.emit(...)``) so an idle trace point costs a
single bool test — traces can stay in hot paths permanently.

The permanent emit points threaded through the library (the *trace-point
catalog*, see docs/API.md) cover every layer: ``tcp.segment`` /
``tcp.kernel`` / ``udp.kernel`` (kernel path), ``via.doorbell`` /
``via.credit`` (user-level path), ``sockets.send`` / ``sockets.recv``
(the unified API), ``datacutter.uow`` (runtime), ``cluster.link``
(every wire transmission), and the ``faults.*`` family (flaps,
deferrals, crashes, restarts, rescheduling — emitted only when a fault
plan is installed; see ``repro.faults``).

Components pick their tracer up from the :class:`~repro.cluster.topology.
Cluster` that builds them.  Code that constructs its own clusters (the
benchmark drivers) can be traced without plumbing a tracer argument
through every call by installing a *default tracer* for the duration of
a run — see :func:`tracing` — which newly built clusters adopt.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = [
    "TraceRecord",
    "Tracer",
    "NULL_TRACER",
    "default_tracer",
    "set_default_tracer",
    "tracing",
    "TRACE_LAYERS",
    "layer_of",
]

#: Trace-point kind prefix -> the architectural layer it instruments.
#: The CLI ``trace`` command and the benchmark harness both aggregate
#: per-layer statistics through this one mapping.
TRACE_LAYERS = {
    "tcp.": "transport",
    "udp.": "transport",
    "via.": "transport",
    "sockets.": "sockets",
    "datacutter.": "datacutter",
    "cluster.": "cluster",
    "faults.": "faults",
    "cache.": "cache",
}


def layer_of(kind: str) -> str:
    """The architectural layer a trace kind belongs to (``"other"`` when
    the kind matches no catalogued prefix)."""
    for prefix, layer in TRACE_LAYERS.items():
        if kind.startswith(prefix):
            return layer
    return "other"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace event: a timestamp, a dotted kind, and free-form fields.

    ``slots=True``: traced runs allocate one of these per emitted point
    (fig10/fig11 emit hundreds of thousands), so the per-instance dict
    is worth eliding."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def __repr__(self) -> str:  # pragma: no cover
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time:.9f}] {self.kind} {kv}"


class Tracer:
    """Collects and dispatches :class:`TraceRecord` objects.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulated) time.
    max_records:
        Ring-buffer size when recording is enabled; oldest records drop.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_records: int = 100_000,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self._recording = False
        #: True iff recording is on or anyone is subscribed.  Hot paths
        #: read this plain attribute to skip ``emit`` (and its kwargs
        #: construction) entirely when tracing is idle.
        self.enabled = False
        self.records: Deque[TraceRecord] = deque(maxlen=max_records)
        self._subscribers: Dict[str, List[Callable[[TraceRecord], None]]] = {}

    @property
    def recording(self) -> bool:
        """Whether records are appended to the ring buffer."""
        return self._recording

    @recording.setter
    def recording(self, value: bool) -> None:
        self._recording = bool(value)
        self.enabled = self._recording or bool(self._subscribers)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach (or replace) the time source."""
        self._clock = clock

    def subscribe(self, kind: str, fn: Callable[[TraceRecord], None]) -> None:
        """Call *fn* for every record of *kind* (exact match, or ``""`` = all)."""
        self._subscribers.setdefault(kind, []).append(fn)
        self.enabled = True

    def emit(self, point: str, **fields: Any) -> None:
        """Emit a record of kind *point*; cheap when nobody is listening.

        (The first parameter is deliberately not named ``kind`` so that
        records may carry a ``kind=`` field — e.g. a message kind.)
        """
        if not self.enabled:
            return
        rec = TraceRecord(self._clock(), point, fields)
        if self._recording:
            self.records.append(rec)
        for fn in self._subscribers.get(point, ()):
            fn(rec)
        for fn in self._subscribers.get("", ()):
            fn(rec)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All recorded records whose kind equals or is prefixed by *kind*."""
        return [
            r
            for r in self.records
            if r.kind == kind or r.kind.startswith(kind + ".")
        ]

    def clear(self) -> None:
        """Drop all recorded records."""
        self.records.clear()


#: Shared do-nothing tracer for components created without one.
NULL_TRACER = Tracer()

#: The tracer newly built clusters adopt when none is passed explicitly.
_default_tracer: Tracer = NULL_TRACER


def default_tracer() -> Tracer:
    """The process-wide default tracer (``NULL_TRACER`` unless installed)."""
    return _default_tracer


def set_default_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install *tracer* as the process-wide default; returns the previous
    one so callers can restore it (``None`` resets to ``NULL_TRACER``)."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(
    tracer: Optional[Tracer] = None, record: bool = True
) -> Iterator[Tracer]:
    """Scope within which newly built clusters trace by default.

    Usage::

        with tracing() as tracer:
            figures.fig4a_points().run()     # clusters built here trace
        print(len(tracer.records))

    A fresh :class:`Tracer` is created unless one is passed; *record*
    turns its ring buffer on.  The previous default is restored on exit.
    """
    t = tracer if tracer is not None else Tracer()
    if record:
        t.recording = True
    previous = set_default_tracer(t)
    try:
        yield t
    finally:
        set_default_tracer(previous)
