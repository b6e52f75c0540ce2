"""Filter base class and per-copy execution context.

The paper's filter interface (Section 4.1) is three functions:

* ``init``     — called once after placement; pre-allocate resources;
* ``process``  — called per unit of work; read input streams, work on
  buffers, write output streams;
* ``finalize`` — called when the filter group is torn down.

``process`` (and optionally ``init``/``finalize``) are *simulation
generators*: every potentially-blocking step is a ``yield from`` on the
context::

    class Subsample(Filter):
        def process(self, ctx):
            while True:
                buf = yield from ctx.read()
                if buf is None:          # end of work
                    return
                yield from ctx.compute_bytes(buf.size)
                yield from ctx.write_new(buf.size // 4)

The runtime sends end-of-work markers on all output streams when
``process`` returns; filters never emit EOW themselves.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Generator, Optional, TYPE_CHECKING

from repro.cluster.host import Host
from repro.datacutter.buffers import DataBuffer
from repro.errors import DataCutterError
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacutter.runtime import AppInstance, UnitOfWork
    from repro.datacutter.streams import InputPort, OutputPort

__all__ = ["Filter", "FilterContext", "maybe_generator"]


def maybe_generator(result: Any) -> Generator[Event, Any, Any]:
    """Adapt a filter hook that may be plain or a generator.

    ``yield from maybe_generator(filt.init(ctx))`` works for both
    styles.
    """
    if inspect.isgenerator(result):
        value = yield from result
        return value
    return result


class Filter:
    """Base class for user filters.  Subclass and implement ``process``."""

    def init(self, ctx: "FilterContext") -> Any:
        """One-time setup (may be a generator for simulated setup time)."""

    def process(self, ctx: "FilterContext") -> Any:
        """Handle one unit of work.  Must be a generator."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement process()"
        )

    def finalize(self, ctx: "FilterContext") -> Any:
        """Tear-down (may be a generator)."""


class FilterContext:
    """Everything one transparent copy of a filter can touch.

    Created by the runtime; carries the copy's host, its input/output
    ports, and the current unit of work.
    """

    def __init__(
        self,
        app: "AppInstance",
        filter_name: str,
        copy_index: int,
        host: Host,
    ) -> None:
        self.app = app
        self.sim = host.sim
        self.filter_name = filter_name
        self.copy_index = copy_index
        self.host = host
        self.inputs: Dict[str, "InputPort"] = {}
        self.outputs: Dict[str, "OutputPort"] = {}
        self.uow: Optional["UnitOfWork"] = None
        #: Free-form per-copy state surviving across UOWs (filters that
        #: need scratch space allocate it in init).
        self.state: Dict[str, Any] = {}

    # -- stream selection --------------------------------------------------------------

    def _one(self, table: Dict[str, Any], kind: str, name: Optional[str]) -> Any:
        if name is not None:
            try:
                return table[name]
            except KeyError:
                raise DataCutterError(
                    f"{self.filter_name!r} has no {kind} stream {name!r} "
                    f"(has {sorted(table)})"
                ) from None
        if len(table) != 1:
            raise DataCutterError(
                f"{self.filter_name!r} has {len(table)} {kind} streams "
                f"({sorted(table)}); name one explicitly"
            )
        return next(iter(table.values()))

    # -- I/O -----------------------------------------------------------------------------

    def read(self, stream: Optional[str] = None) -> Generator[Event, Any, Optional[DataBuffer]]:
        """Next buffer from an input stream, or ``None`` at end of work.

        Reading a buffer acknowledges it to its producer (the
        demand-driven protocol's "started processing" signal).
        """
        port = self._one(self.inputs, "input", stream)
        buf = yield from port.read()
        return buf

    def write(self, buffer: DataBuffer, stream: Optional[str] = None) -> Generator[Event, Any, None]:
        """Send *buffer* downstream (blocks on scheduling + transport)."""
        port = self._one(self.outputs, "output", stream)
        if self.uow is not None:
            buffer.uow_id = self.uow.uow_id
        yield from port.write(buffer)

    def write_new(
        self, size: int, stream: Optional[str] = None, data: Any = None, **meta: Any
    ) -> Generator[Event, Any, DataBuffer]:
        """Create and send a fresh buffer in one step; returns it."""
        buf = DataBuffer(
            size=size,
            data=data,
            uow_id=self.uow.uow_id if self.uow else 0,
            meta=meta,
        )
        yield from self.write(buf, stream)
        return buf

    # -- computation ------------------------------------------------------------------------

    def compute(self, seconds: float) -> Generator[Event, Any, None]:
        """Charge application CPU time (subject to host slowdown)."""
        yield from self.host.compute(seconds)

    def compute_bytes(self, nbytes: float, ns_per_byte: Optional[float] = None) -> Generator[Event, Any, None]:
        """Charge linear computation (paper default: 18 ns/byte)."""
        yield from self.host.compute_bytes(nbytes, ns_per_byte)

    # -- metrics -------------------------------------------------------------------------------

    def record(self, metric: str, value: float) -> None:
        """Record a sample into the app-wide metric *metric*."""
        self.app.record(metric, value)

    @property
    def name(self) -> str:
        """``filter[copy]`` label for logs and traces."""
        return f"{self.filter_name}[{self.copy_index}]"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FilterContext {self.name} on {self.host.name}>"
