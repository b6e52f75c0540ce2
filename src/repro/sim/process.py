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

Interrupts
----------
``proc.interrupt(cause)`` asynchronously throws :class:`Interrupt` into the
generator at its current suspension point.  The interrupted process keeps
running (it may catch the interrupt and continue waiting on something else),
mirroring SimPy semantics.  Interrupting a finished process raises
:class:`~repro.errors.ProcessError`.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import ProcessError
from repro.sim.events import _PROCESSED_MARK, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Interrupt", "Process"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever object the interrupter passed,
    typically a short string or a reference to the resource that went away.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The object passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(Event):
    """An event representing a running generator.

    Fires with the generator's return value when it finishes, or fails with
    the exception that escaped it.  Use :meth:`Simulator.process` rather
    than constructing directly.
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb", "_send", "_throw")

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
        #: The event this process is currently suspended on (None when
        #: running or finished).  Exposed for debugging and for interrupts.
        self._target: Optional[Event] = None
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

    # -- state ---------------------------------------------------------------

    @property
    def target(self) -> Optional[Event]:
        """Event the process is currently waiting on (``None`` if running)."""
        return self._target

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
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = None
                # Re-attach a traceback-bearing failure to this process.
                self.fail(exc)
                return

            if not isinstance(next_target, Event):
                err = ProcessError(
                    f"process {self.name!r} yielded non-event "
                    f"{next_target!r}"
                )
                self._target = None
                self.fail(err)
                return
            if next_target.sim is not self.sim:
                err = ProcessError(
                    f"process {self.name!r} yielded an event from a "
                    f"different simulator"
                )
                self._target = None
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
            self._target = next_target
            return

    # -- interrupts -----------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        The interrupt is delivered through the event heap (urgent priority)
        so multiple interrupts at the same instant are serialized and the
        interrupter's own stack frame is never re-entered.
        """
        if self.triggered:
            raise ProcessError(f"cannot interrupt finished process {self.name!r}")
        ev = Event(self.sim)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev.defused = True
        ev.callbacks = self._deliver_interrupt  # fresh event: single waiter
        self.sim.schedule(ev, priority=self.sim.URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # finished in the meantime; drop the interrupt
        if self._target is not None:
            # Detach from whatever we were waiting on; the wait target stays
            # valid and may be re-yielded by the interrupted process.
            self._target.remove_callback(self._resume_cb)
            self._target = None
        self._resume(event)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} state={self.state}>"
