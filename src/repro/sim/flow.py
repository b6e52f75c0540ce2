"""Fluid-flow machinery: analytic bulk-transfer modeling.

The packet-mode kernel charges one event chain per segment/descriptor,
which is exact but makes bulk transfers cost O(bytes / MTU) events.
Steady-state bulk flow has simple analytic structure (the three-stage
send/wire/receive pipeline is a flow-shop recurrence; a shared link
drains competing flows at an equal share), so a transfer whose edges
are quiet can be collapsed into a handful of rate events:

* :func:`solve_pipeline` solves the store-and-forward flow-shop
  recurrence for a unit sequence in O(n) *arithmetic* (no simulator
  events), returning the uplink-exit and receiver-completion offsets
  that the per-unit event chain would have produced.
* :class:`FlowModel` is a piecewise-constant processor-sharing
  integrator: each registered flow holds its remaining wire work
  (seconds of exclusive link time) and drains at rate ``1/n`` while
  ``n`` flows are active.  Arrivals and departures re-solve the single
  completion timer, so a bulk transfer costs O(#rate-changes) events
  instead of O(#segments).

Mode selection lives here too so every layer gates its fast path the
same way: ``resolve_sim_mode`` reads an explicit argument, then the
process-global override (the :func:`simulation_mode` context
manager), then the ``REPRO_SIM_MODE``
environment variable, and defaults to ``"packet"``.  ``fluid_active``
additionally forces packet fidelity whenever a ``repro.faults`` plan
is ambient — fault windows need per-segment interception, and the
chaos suite must stay bit-identical.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.core import Simulator, Timeout

__all__ = [
    "MODES",
    "FlowModel",
    "FluidFlow",
    "effective_sim_mode",
    "fluid_active",
    "resolve_sim_mode",
    "simulation_mode",
    "solve_pipeline",
]

#: Valid simulation modes.  ``fluid`` means "fluid where safe": the
#: per-transfer gates fall back to packet fidelity whenever a transfer
#: does not qualify.
MODES = ("packet", "fluid")

_ENV_VAR = "REPRO_SIM_MODE"

#: Process-global override installed by :func:`simulation_mode`;
#: ``None`` defers to the environment.
_mode_override: Optional[str] = None


def _validate(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(
            f"unknown simulation mode {mode!r}; expected one of {MODES}"
        )
    return mode


def resolve_sim_mode(explicit: Optional[str] = None) -> str:
    """The simulation mode in effect: *explicit* argument, else the
    process-global override, else ``$REPRO_SIM_MODE``, else
    ``"packet"``."""
    if explicit is not None:
        return _validate(explicit)
    if _mode_override is not None:
        return _mode_override
    env = os.environ.get(_ENV_VAR)
    if env:
        return _validate(env)
    return "packet"


@contextmanager
def simulation_mode(mode: Optional[str]) -> Iterator[None]:
    """Run a block under *mode* (``None`` = leave the ambient mode)."""
    if mode is None:
        yield
        return
    global _mode_override
    prev = _mode_override
    _mode_override = _validate(mode)
    try:
        yield
    finally:
        _mode_override = prev


def fluid_active() -> bool:
    """True when transfers may take the fluid fast path: mode is
    ``fluid`` *and* no fault plan is ambient.  Fault windows
    need per-segment interception, so an active plan forces packet
    fidelity for its whole scope (keeping the chaos suite
    bit-identical with all-packet runs)."""
    if resolve_sim_mode() == "packet":
        return False
    from repro.faults.plan import active_plan  # local: avoids a cycle

    plan = active_plan()
    return plan is None or plan.is_empty


def effective_sim_mode() -> str:
    """The mode transfers will actually run under right now —
    ``"fluid"`` only when :func:`fluid_active`.  This is what the
    bench cache key and ``BenchRecord.sim_mode`` record, so results
    from different effective modes can never alias."""
    return "fluid" if fluid_active() else "packet"


# ---------------------------------------------------------------------------
# analytic pipeline solver
# ---------------------------------------------------------------------------


def solve_pipeline(
    snd: Sequence[float],
    wire: Sequence[float],
    rcv: Sequence[float],
) -> Tuple[float, float]:
    """Solve the three-stage flow-shop recurrence for one transfer.

    Stage 1 is the sender host (serialized unit costs ``snd``), stage 2
    the wire (FIFO link, service ``wire``), stage 3 the receiver host
    (``rcv``).  Returns ``(C2, C3)``: the offsets, from transfer start,
    at which the *last* unit leaves the wire and finishes receiver
    processing.  Identical to the per-unit event chain (and to column
    pairs of :func:`repro.net.segsim.flow_shop_completion_times`) in
    O(n) arithmetic.
    """
    c1 = c2 = c3 = 0.0
    for s, w, r in zip(snd, wire, rcv):
        c1 += s
        c2 = max(c1, c2) + w
        c3 = max(c2, c3) + r
    return c2, c3


# ---------------------------------------------------------------------------
# processor-sharing fluid integrator
# ---------------------------------------------------------------------------


class FluidFlow:
    """One flow registered with a :class:`FlowModel`: remaining wire
    work (seconds of exclusive link time) plus the drain callback."""

    __slots__ = ("remaining", "callback", "done")

    def __init__(self, work: float, callback: Callable[[], Any]) -> None:
        self.remaining = float(work)
        self.callback = callback
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FluidFlow remaining={self.remaining:.6g} done={self.done}>"


class FlowModel:
    """Piecewise-constant-rate fluid link model (processor sharing).

    ``n`` concurrent flows each drain at rate ``1/n`` of the link;
    every arrival or departure is one rate-change event that re-solves
    a single completion timer.  Between events nothing is scheduled —
    remaining work is integrated lazily in :meth:`_advance`.  The
    drain order is deterministic (registration order breaks ties), so
    fluid runs are exactly reproducible.
    """

    #: Relative drain tolerance: a flow whose remaining work is below
    #: ``EPSILON * max(1, now)`` is considered drained.  The tolerance
    #: must scale with the clock — it absorbs float dust from the
    #: repeated integrate/re-solve cycle, and once residual work times
    #: the flow count drops under one ULP of ``now`` (~2.2e-16
    #: relative) the completion timer cannot make representable clock
    #: progress at all, so an absolute cutoff would livelock.
    EPSILON = 1e-15

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._flows: List[FluidFlow] = []
        self._last_advance = sim.now
        self._timer: Optional[Timeout] = None
        #: Completed-flow count (observability).
        self.drained = 0

    @property
    def active(self) -> int:
        """Flows currently draining."""
        return len(self._flows)

    def add(self, work: float, callback: Callable[[], Any]) -> FluidFlow:
        """Register a flow with *work* seconds of exclusive link time;
        *callback* fires when its share has drained.  Zero-work flows
        complete on the next rate event (still strictly causally — the
        timer fires at the current time)."""
        self._advance()
        flow = FluidFlow(work, callback)
        self._flows.append(flow)
        self._reschedule()
        return flow

    # -- internals --------------------------------------------------------

    def _advance(self) -> None:
        """Integrate elapsed time into every active flow's remaining
        work at the current equal-share rate."""
        now = self.sim.now
        elapsed = now - self._last_advance
        self._last_advance = now
        if elapsed <= 0.0 or not self._flows:
            return
        share = elapsed / len(self._flows)
        for flow in self._flows:
            flow.remaining -= share

    def _reschedule(self) -> None:
        """Re-solve the single completion timer: the next flow to
        finish needs ``min(remaining) * n`` more wall time at the
        current share."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._flows:
            return
        next_in = min(f.remaining for f in self._flows) * len(self._flows)
        self._timer = self.sim.timeout(max(next_in, 0.0))
        self._timer.add_callback(self._on_timer)

    def _on_timer(self, _value: Any) -> None:
        self._timer = None
        self._advance()
        tol = self.EPSILON * max(1.0, self.sim.now)
        finished = [f for f in self._flows if f.remaining <= tol]
        if finished:
            self._flows = [
                f for f in self._flows if f.remaining > tol
            ]
            self.drained += len(finished)
        self._reschedule()
        # Callbacks run after the model is consistent: a callback may
        # register follow-on flows (descriptor pipelining).
        for flow in finished:
            flow.done = True
            flow.callback()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FlowModel {self.name!r} active={self.active}>"
