"""Deterministic fault injection and resilience (see docs/RESILIENCE.md).

Quick tour::

    from repro.faults import FaultPlan, LinkFault, HostFault, injecting

    plan = FaultPlan(
        name="demo",
        links={"clan.node09.down": LinkFault(flap_windows=((0.01, 0.02),))},
        hosts={"worker01": HostFault(crash_at=0.01, restart_at=0.03)},
    )
    with injecting(plan):
        result = run_loadbalance(cfg)   # cluster built inside adopts it

The subsystem has two halves:

* **injection** — :class:`FaultPlan` (declarative, JSON round-trip,
  fingerprinted) installed by a
  :class:`~repro.faults.injector.FaultInjector` into link delivery,
  stack receive paths, and host compute (``repro.faults.plan`` /
  ``repro.faults.injector``);
* **resilience** — DataCutter's dead-host rescheduling and filter
  restart, and replicated dispatch (``repro.datacutter``).  The fabric
  never loses a frame, so the transports carry no retry or timeout
  paths.

``python -m repro faults list|describe`` exposes the named presets in
``repro.faults.presets``; the ``chaos`` bench suite measures Figure 8
and Figure 11 under two of them.
"""

from repro.faults.injector import FaultInjector, WindowedSlowdown
from repro.faults.plan import (
    FaultPlan,
    HostFault,
    LinkFault,
    active_plan,
    injecting,
    set_active_plan,
)
from repro.faults.presets import PRESETS, get_preset, preset_names

__all__ = [
    "FaultPlan",
    "LinkFault",
    "HostFault",
    "FaultInjector",
    "WindowedSlowdown",
    "active_plan",
    "set_active_plan",
    "injecting",
    "PRESETS",
    "get_preset",
    "preset_names",
]
