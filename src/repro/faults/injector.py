"""Runtime fault injection: install a :class:`FaultPlan` into a cluster.

A :class:`FaultInjector` is built by
:class:`~repro.cluster.topology.Cluster` when a non-empty plan is
ambient (see :func:`repro.faults.plan.injecting`), and attaches fault
state as the topology grows:

* **links** — every :class:`~repro.cluster.link.LinkDirection` the plan
  names gets a :class:`_LinkFaultState` consulted at delivery time:
  flap windows buffer deliveries and release them FIFO at the window
  end.  Unfaulted links keep ``faults = None`` and pay one attribute
  check.
* **hosts** — a host with a crash window gets a
  :class:`_HostFaultState` its transport stacks consult on receive:
  while down, arriving items are *deferred* (the NIC queue outlives an
  OS blackout) and replayed in order at restart.  Slowdown windows wrap
  the host's heterogeneity model in :class:`WindowedSlowdown`.

Every fault is a window of simulated time, so a plan alone fixes the
fault sequence (asserted by ``tests/test_faults_determinism.py``).

Trace points (the ``faults`` layer): ``faults.flap``, ``faults.defer``,
``faults.crash``, ``faults.restart`` here; ``faults.reschedule`` from
DataCutter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, HostFault, LinkFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.cluster.link import LinkDirection, Port, Switch, Transmission

__all__ = ["FaultInjector", "WindowedSlowdown"]


class WindowedSlowdown:
    """Heterogeneity model composing transient slowdown windows over a
    base model: inside a ``(start, end, factor)`` window the base
    factor is multiplied by ``factor``.  Sampled per :meth:`Host.compute`
    call, i.e. per data block, like the paper's slow-node emulation."""

    def __init__(self, base: Any,
                 windows: Tuple[Tuple[float, float, float], ...]) -> None:
        self.base = base
        self.windows = tuple(windows)

    def factor(self, host: "Host") -> float:
        f = self.base.factor(host)
        now = host.sim.now
        for start, end, wf in self.windows:
            if start <= now < end:
                f *= wf
        return f

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WindowedSlowdown base={self.base!r} windows={self.windows}>"


class _LinkFaultState:
    """Per-link flap windows, consulted by
    :class:`~repro.cluster.link.LinkDirection` at delivery time."""

    __slots__ = ("injector", "link", "cfg", "_flap_held")

    def __init__(self, injector: "FaultInjector", link: "LinkDirection",
                 cfg: LinkFault) -> None:
        self.injector = injector
        self.link = link
        self.cfg = cfg
        #: window end -> transmissions held until that end.
        self._flap_held: Dict[float, List["Transmission"]] = {}

    def deliver(self, tx: "Transmission") -> None:
        """Window-filtered delivery; the caller guarantees the link has
        a delivery callback."""
        now = self.link.sim.now
        for start, end in self.cfg.flap_windows:
            if start <= now < end:
                self._hold(end, tx)
                return
        self.link._deliver(tx)

    def _hold(self, end: float, tx: "Transmission") -> None:
        held = self._flap_held.get(end)
        if held is None:
            self._flap_held[end] = held = []
            ev = self.link.sim.timeout(end - self.link.sim.now)
            ev.add_callback(lambda _e, end=end: self._release(end))
        held.append(tx)
        self.injector.stats["flapped"] += 1
        tracer = self.injector.tracer
        if tracer.enabled:
            tracer.emit("faults.flap", link=self.link.name, size=tx.size,
                        dst=tx.dst, until=end)

    def _release(self, end: float) -> None:
        for tx in self._flap_held.pop(end, ()):
            self.deliver(tx)  # a window opening at this end holds it again


class _HostFaultState:
    """Crash-blackout state shared by every transport stack on one
    host.  Stacks check ``down`` on their receive enqueue (one
    attribute check via ``stack.faults``) and defer arrivals while the
    host is crashed; :meth:`replay` drains them in order at restart."""

    __slots__ = ("injector", "host", "down", "_deferred")

    def __init__(self, injector: "FaultInjector", host: "Host") -> None:
        self.injector = injector
        self.host = host
        self.down = False
        self._deferred: List[Tuple[Callable[[Any], None], Any]] = []

    def defer(self, replay: Callable[[Any], None], item: Any) -> None:
        self._deferred.append((replay, item))
        self.injector.stats["deferred"] += 1
        tracer = self.injector.tracer
        if tracer.enabled:
            tracer.emit("faults.defer", host=self.host.name,
                        item=type(item).__name__)

    def replay(self) -> None:
        deferred, self._deferred = self._deferred, []
        for replay, item in deferred:
            replay(item)


class FaultInjector:
    """Installs one plan into one cluster and owns its runtime state.

    Built by :class:`~repro.cluster.topology.Cluster` (which calls
    :meth:`attach_host` / :meth:`attach_port` as the topology grows) —
    drivers normally never construct one directly; they wrap the run in
    ``with injecting(plan):``.

    DataCutter (or any runtime) registers crash/restart listeners via
    :meth:`on_crash` / :meth:`on_restart` to reschedule work around
    dead hosts; see ``repro.datacutter.runtime``.
    """

    def __init__(self, plan: FaultPlan, cluster: Any) -> None:
        self.plan = plan
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self._crash_listeners: Dict[str, List[Callable[[], None]]] = {}
        self._restart_listeners: Dict[str, List[Callable[[], None]]] = {}
        self._host_states: Dict[str, _HostFaultState] = {}
        self.stats: Dict[str, int] = {
            "flapped": 0, "deferred": 0, "crashes": 0, "restarts": 0,
        }

    # -- topology attachment (called by Cluster) -----------------------------

    def attach_port(self, switch: "Switch", port: "Port") -> None:
        """Install link fault state on the port's directions the plan
        names (delivery-side hooks; directions without a delivery
        callback never consult theirs)."""
        for link in (port.downlink, port.uplink):
            if link is None or link.faults is not None:
                continue
            cfg = self.plan.links.get(link.name)
            if cfg is not None and not cfg.is_trivial:
                link.faults = _LinkFaultState(self, link, cfg)

    def attach_host(self, host: "Host") -> None:
        """Install host fault state: slowdown windows wrap the
        heterogeneity model now; crash/restart events go on the heap."""
        cfg: Optional[HostFault] = self.plan.hosts.get(host.name)
        if cfg is None or cfg.is_trivial:
            return
        if cfg.slowdown_windows:
            host.slowdown = WindowedSlowdown(host.slowdown,
                                             cfg.slowdown_windows)
        if cfg.crash_at is not None:
            state = _HostFaultState(self, host)
            self._host_states[host.name] = state
            host.fault_state = state
            ev = self.sim.timeout(max(0.0, cfg.crash_at - self.sim.now))
            ev.add_callback(lambda _e, h=host: self._crash(h))
            if cfg.restart_at is not None:
                ev = self.sim.timeout(
                    max(0.0, cfg.restart_at - self.sim.now))
                ev.add_callback(lambda _e, h=host: self._restart(h))

    # -- crash/restart listeners ---------------------------------------------

    def on_crash(self, host_name: str, fn: Callable[[], None]) -> None:
        """Call *fn* when *host_name* crashes (no-op name: never)."""
        self._crash_listeners.setdefault(host_name, []).append(fn)

    def on_restart(self, host_name: str, fn: Callable[[], None]) -> None:
        self._restart_listeners.setdefault(host_name, []).append(fn)

    def _crash(self, host: "Host") -> None:
        state = self._host_states[host.name]
        state.down = True
        host.crashed = True
        self.stats["crashes"] += 1
        if self.tracer.enabled:
            self.tracer.emit("faults.crash", host=host.name)
        for fn in self._crash_listeners.get(host.name, ()):
            fn()

    def _restart(self, host: "Host") -> None:
        state = self._host_states[host.name]
        state.down = False
        host.crashed = False
        self.stats["restarts"] += 1
        if self.tracer.enabled:
            self.tracer.emit("faults.restart", host=host.name)
        # Replay the blackout backlog before listeners run, so restart
        # handlers observe a live, caught-up host.
        state.replay()
        for fn in self._restart_listeners.get(host.name, ()):
            fn()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FaultInjector plan={self.plan.name!r} stats={self.stats}>"
