"""Declarative fault plans and the ambient-plan context.

A :class:`FaultPlan` describes *what* goes wrong in a run — link flap
(blackout) windows, host crash/restart events, transient host
slowdowns — separately from *how* the simulation reacts
(``repro.faults.injector`` installs the hooks; DataCutter carries the
resilience mechanisms).  The fabric itself never drops, corrupts or
reorders a frame: every fault class delays, stops or slows work.

Plans are pure data: JSON round-trippable (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`), hashable into a canonical
:meth:`fingerprint` that keys the bench result cache, and validated at
construction so a malformed plan fails loudly before a simulation
starts.

Ambient installation mirrors :func:`repro.sim.trace.tracing`: wrap any
driver in ``with injecting(plan):`` and every
:class:`~repro.cluster.topology.Cluster` built inside the block adopts
the plan — no plumbing through driver signatures.  An empty plan (or
no plan) installs nothing: the fault hooks stay ``None`` and every hot
path pays a single attribute check, so fault-free runs are
bit-identical to a tree without this module.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import FaultPlanError

__all__ = [
    "LinkFault",
    "HostFault",
    "FaultPlan",
    "active_plan",
    "set_active_plan",
    "injecting",
]


def _windows(raw) -> Tuple[Tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in w) for w in raw)


@dataclass(frozen=True)
class LinkFault:
    """Fault behavior of one link direction.

    ``flap_windows`` are absolute simulated-time ``(start, end)``
    intervals during which the link buffers deliveries and releases
    them FIFO at ``end`` (a blackout with receiver-side buffering —
    nothing is lost, so flapped runs always terminate).
    """

    flap_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "flap_windows", _windows(self.flap_windows))
        for start, end in self.flap_windows:
            if not 0.0 <= start < end:
                raise FaultPlanError(
                    f"flap window ({start}, {end}) needs 0 <= start < end")

    @property
    def is_trivial(self) -> bool:
        return not self.flap_windows

    def to_dict(self) -> Dict[str, Any]:
        return {"flap_windows": [list(w) for w in self.flap_windows]}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LinkFault":
        return cls(flap_windows=_windows(d.get("flap_windows", ())))


@dataclass(frozen=True)
class HostFault:
    """Fault behavior of one host.

    ``crash_at``/``restart_at`` bound one blackout window: from the
    crash the host's stacks defer every arriving item and DataCutter
    schedulers stop routing new work to its filter copies; at the
    restart deferred items replay in arrival order and the copies are
    marked alive again.  A crash with no restart is permanent — valid
    for scheduler-level experiments, but a run whose completion needs
    the host will (correctly) never finish, so bench plans always pair
    the two.

    ``slowdown_windows`` are ``(start, end, factor)`` intervals during
    which the host's application computation is multiplied by
    ``factor`` on top of its configured heterogeneity model — the
    transient-slowdown fault class, sampled per block exactly like
    :class:`repro.cluster.hetero.RandomSlowdown`.
    """

    crash_at: Optional[float] = None
    restart_at: Optional[float] = None
    slowdown_windows: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.restart_at is not None:
            if self.crash_at is None:
                raise FaultPlanError("restart_at without crash_at")
            if self.restart_at <= self.crash_at:
                raise FaultPlanError(
                    f"restart_at {self.restart_at} must follow "
                    f"crash_at {self.crash_at}")
        if self.crash_at is not None and self.crash_at < 0:
            raise FaultPlanError(f"crash_at must be >= 0, got {self.crash_at}")
        object.__setattr__(
            self, "slowdown_windows", _windows(self.slowdown_windows))
        for start, end, factor in self.slowdown_windows:
            if not 0.0 <= start < end:
                raise FaultPlanError(
                    f"slowdown window ({start}, {end}) needs 0 <= start < end")
            if factor < 1.0:
                raise FaultPlanError(
                    f"slowdown factor must be >= 1, got {factor}")

    @property
    def is_trivial(self) -> bool:
        return self.crash_at is None and not self.slowdown_windows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "crash_at": self.crash_at,
            "restart_at": self.restart_at,
            "slowdown_windows": [list(w) for w in self.slowdown_windows],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "HostFault":
        crash = d.get("crash_at")
        restart = d.get("restart_at")
        return cls(
            crash_at=None if crash is None else float(crash),
            restart_at=None if restart is None else float(restart),
            slowdown_windows=_windows(d.get("slowdown_windows", ())),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one run.

    ``links`` maps exact link-direction names to :class:`LinkFault`.
    Names follow ``{fabric}.{host}.{up|down}`` (e.g.
    ``clan.node09.down``).  Faults act at the *delivery* (receive) end
    of a direction, so ``.down`` names are the ones that matter on
    switch fabrics.  ``hosts`` maps exact host names to
    :class:`HostFault`.  Every fault is a window of simulated time, so
    the plan alone fixes the fault sequence.
    """

    name: str = "unnamed"
    links: Dict[str, LinkFault] = field(default_factory=dict)
    hosts: Dict[str, HostFault] = field(default_factory=dict)

    @classmethod
    def empty(cls, name: str = "none") -> "FaultPlan":
        """A plan that installs nothing (bit-identical to no plan)."""
        return cls(name=name)

    @property
    def is_empty(self) -> bool:
        return (all(lf.is_trivial for lf in self.links.values())
                and all(hf.is_trivial for hf in self.hosts.values()))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "links": {k: v.to_dict() for k, v in sorted(self.links.items())},
            "hosts": {k: v.to_dict() for k, v in sorted(self.hosts.items())},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPlan":
        return cls(
            name=str(d.get("name", "unnamed")),
            links={k: LinkFault.from_dict(v)
                   for k, v in d.get("links", {}).items()},
            hosts={k: HostFault.from_dict(v)
                   for k, v in d.get("hosts", {}).items()},
        )

    def fingerprint(self) -> str:
        """SHA-256 over the plan's *behavioral* content (links and
        hosts — the display name is excluded): the value threaded into
        the bench result-cache key so faulted results can never be
        confused with fault-free ones."""
        doc = self.to_dict()
        doc.pop("name")
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        """Human-readable multi-line summary (CLI ``faults describe``)."""
        lines = [f"fault plan {self.name!r}  "
                 f"(fingerprint={self.fingerprint()[:12]})"]
        if self.is_empty:
            lines.append("  empty: installs nothing")
            return "\n".join(lines)
        for link in sorted(self.links):
            lf = self.links[link]
            if lf.is_trivial:
                continue
            parts = [f"flap[{start:g}s..{end:g}s]"
                     for start, end in lf.flap_windows]
            lines.append(f"  link {link}: " + ", ".join(parts))
        for host in sorted(self.hosts):
            hf = self.hosts[host]
            if hf.is_trivial:
                continue
            parts = []
            if hf.crash_at is not None:
                restart = ("never" if hf.restart_at is None
                           else f"{hf.restart_at:g}s")
                parts.append(f"crash at {hf.crash_at:g}s, restart {restart}")
            for start, end, factor in hf.slowdown_windows:
                parts.append(f"slowdown x{factor:g} [{start:g}s..{end:g}s]")
            lines.append(f"  host {host}: " + ", ".join(parts))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ambient plan (the tracing() pattern)
# ---------------------------------------------------------------------------

_active: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The ambient fault plan, or None (fault-free)."""
    return _active


def set_active_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install *plan* as the ambient plan; returns the previous one."""
    global _active
    previous = _active
    _active = plan
    return previous


@contextmanager
def injecting(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Make *plan* ambient for the duration of the block.

    Every :class:`~repro.cluster.topology.Cluster` constructed inside
    adopts it (builds a :class:`~repro.faults.injector.FaultInjector`
    unless the plan is empty), exactly as clusters adopt the ambient
    tracer from :func:`repro.sim.trace.tracing`.
    """
    previous = set_active_plan(plan)
    try:
        yield plan
    finally:
        set_active_plan(previous)
