"""Named, calibrated fault plans.

These are the plans the chaos bench suite commits baselines for, plus
small examples for the CLI (``python -m repro faults describe <name>``).
Calibration means two things: the fault times fall inside the driven
workload's simulated duration (for both full and ``--quick`` axes, so
CI exercises the same fault classes), and the fault classes are chosen
so every run still terminates — flap windows buffer rather than drop,
and crashes are paired with restarts so deferred work replays.

Plans are immutable module constants; :func:`get_preset` looks one up
by name and :data:`PRESETS` lists them all.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import FaultPlanError
from repro.faults.plan import FaultPlan, HostFault, LinkFault

__all__ = ["PRESETS", "get_preset", "preset_names"]


#: Empty plan: installs nothing; bit-identical to running without one.
NONE = FaultPlan.empty()

#: Figure 8 chaos leg.  The update-rate metric measures the window
#: between the first and last *completed* update, so one-shot faults in
#: the warmup would be invisible; instead the visualization sink's
#: receive side flaps on a duty cycle — a 30 ms blackout (buffer, then
#: replay in order) at the top of every 100 ms, spanning the whole run
#: for every block size — and one clip-stage host (node04) browns out,
#: computing 8x slower throughout (demand-driven scheduling routes
#: around it).  Calibrated effect: 20-35% update-rate loss per cell.
CHAOS_FIG8 = FaultPlan(
    name="chaos-fig8",
    links={
        "clan.node09.down": LinkFault(
            flap_windows=tuple(
                (0.1 * k, 0.1 * k + 0.030) for k in range(30)
            ),
        ),
    },
    hosts={
        "node04": HostFault(slowdown_windows=((0.0, 3.0, 8.0),)),
    },
)

#: Figure 11 chaos leg: one worker blacks out for 20 ms mid-run.  The
#: demand-driven scheduler reroutes around it (its copies are marked
#: dead on crash) and its deferred blocks replay at restart; execution
#: time rises by roughly the lost capacity.  Times sit inside even the
#: quick run (~60 ms simulated).
CHAOS_FIG11 = FaultPlan(
    name="chaos-fig11",
    hosts={
        "worker01": HostFault(crash_at=0.010, restart_at=0.030),
    },
)

#: Example transient-slowdown plan (not benched): one worker computes
#: 8x slower during two windows — the fault-plan equivalent of the
#: paper's dynamically slow node.
BROWNOUT = FaultPlan(
    name="brownout",
    hosts={
        "worker01": HostFault(
            slowdown_windows=((0.005, 0.015, 8.0), (0.030, 0.040, 8.0)),
        ),
    },
)

#: Straggler plan for the replicated-dispatch (``tails``) scenario:
#: the two classic straggler mechanisms, each on its own worker and
#: staggered in time so at any instant at most one worker straggles
#: (a hedged replica therefore has a healthy copy to land on).  One
#: worker's inbound link flaps on a duty cycle — a 10 ms delivery
#: blackout (queries buffer on the wire, then replay in order) at the
#: top of every 25 ms — and another browns out, computing 8x slower
#: during 8 ms windows placed in the flap gaps.  Windows repeat across
#: both the quick (~30 ms) and full (~100 ms) tails horizons, so CI
#: exercises both mechanisms.
#: Unreplicated (k=1) queries caught behind either straggler stall for
#: many milliseconds; hedged replicas (k>=2) reroute them to a healthy
#: copy — the tails suite's p999 claim measures exactly that rescue.
STRAGGLER = FaultPlan(
    name="straggler",
    links={
        "clan.tworker02.down": LinkFault(
            flap_windows=tuple(
                (0.025 * k + 0.002, 0.025 * k + 0.012) for k in range(8)
            ),
        ),
    },
    hosts={
        "tworker01": HostFault(
            slowdown_windows=tuple(
                (0.025 * k + 0.014, 0.025 * k + 0.022, 8.0)
                for k in range(8)
            ),
        ),
    },
)

#: Example slowdown-only straggler (not benched): the brownout half of
#: :data:`STRAGGLER` alone, for isolating compute stragglers from
#: delivery stragglers when exploring replication policies by hand.
STRAGGLER_SLOW = FaultPlan(
    name="straggler-slow",
    hosts={
        "tworker01": HostFault(
            slowdown_windows=tuple(
                (0.025 * k + 0.014, 0.025 * k + 0.022, 8.0)
                for k in range(8)
            ),
        ),
    },
)

PRESETS: Dict[str, FaultPlan] = {
    plan.name: plan
    for plan in (
        NONE,
        CHAOS_FIG8,
        CHAOS_FIG11,
        BROWNOUT,
        STRAGGLER,
        STRAGGLER_SLOW,
    )
}


def preset_names() -> list:
    return sorted(PRESETS)


def get_preset(name: str) -> FaultPlan:
    """Look a preset plan up by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise FaultPlanError(
            f"unknown fault plan {name!r}; have {preset_names()}"
        ) from None
