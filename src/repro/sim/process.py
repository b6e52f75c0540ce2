"""Generator-based simulation processes.

A *process* is a Python generator that models concurrent activity: each
``yield <event>`` suspends the process until the event is processed by the
kernel, at which point the event's value is sent back into the generator
(or its exception is thrown in).  A process is itself an :class:`Event`
that fires when the generator returns, so processes can wait on each other.

Example
-------
::

    def worker(sim, store):
        while True:
            job = yield store.get()
            yield sim.timeout(job.cost)

    sim.process(worker(sim, store))
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import ProcessError
from repro.sim.events import _PROCESSED_MARK, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Process"]


class Process(Event):
    """An event representing a running generator.

    Fires with the generator's return value when it finishes, or fails with
    the exception that escaped it.  Use :meth:`Simulator.process` rather
    than constructing directly.
    """

    __slots__ = ("_generator", "name", "_resume_cb", "_send", "_throw")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The resume path runs once per event the process waits on; bind
        # the bound-method callback and the generator entry points once
        # instead of allocating them per resume.
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        # Kick-start the generator via an immediately-successful event so
        # the first resume happens inside the event loop, not re-entrantly.
        start = Event(sim)
        start._ok = True
        start._value = None
        start.callbacks = self._resume_cb  # fresh event: single-waiter store
        sim.schedule(start, priority=sim.URGENT)

    # -- core resume loop -----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*.

        Loops over events that are already processed so a process can chew
        through a chain of completed waits without re-entering the kernel.
        """
        while True:
            try:
                if event._ok:
                    next_target = self._send(event._value)
                else:
                    # The process observes the failure; mark it defused
                    # so an uncaught failure surfaces *here*, in the
                    # process, not in the kernel loop.
                    event.defused = True
                    next_target = self._throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                # Re-attach a traceback-bearing failure to this process.
                self.fail(exc)
                return

            if not isinstance(next_target, Event):
                err = ProcessError(
                    f"process {self.name!r} yielded non-event "
                    f"{next_target!r}"
                )
                self.fail(err)
                return
            if next_target.sim is not self.sim:
                err = ProcessError(
                    f"process {self.name!r} yielded an event from a "
                    f"different simulator"
                )
                self.fail(err)
                return

            cbs = next_target.callbacks
            if cbs is _PROCESSED_MARK:
                # Already done: resume synchronously with its outcome.
                event = next_target
                continue
            if cbs is None:
                # Single-waiter fast path: no list, no method call.
                next_target.callbacks = self._resume_cb
            else:
                next_target.add_callback(self._resume_cb)
            return

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} state={self.state}>"
