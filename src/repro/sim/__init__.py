"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Resource, Store, Container
    from repro.sim import RandomStreams, Tally, SeriesRecorder, Summary
    from repro.sim.units import usec, MB

See the module docstrings for semantics; :mod:`repro.sim.core` documents
the event-loop contract (one ``heapq`` list of pending events, one run
loop behind ``run``/``run_all``/``step``).
"""

from repro.sim.core import Simulator, simulation_mode
from repro.sim.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.monitor import SeriesRecorder, Tally
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Container, PriorityResource, Request, Resource, Store
from repro.sim.rng import RandomStreams
from repro.sim.stats import Summary
from repro.sim.trace import NULL_TRACER, TraceRecord, Tracer
from repro.sim import units

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "simulation_mode",
    "Process",
    "Interrupt",
    "Resource",
    "PriorityResource",
    "Request",
    "Store",
    "Container",
    "RandomStreams",
    "Tally",
    "SeriesRecorder",
    "Summary",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
    "units",
]
