"""The DataCutter filter-stream component framework (paper Section 4.1).

Build a :class:`FilterGroup` of :class:`Filter` subclasses connected by
logical streams, place transparent copies on cluster hosts, and run
units of work over either transport through
:class:`DataCutterRuntime`.
"""

from repro.datacutter.buffers import (
    ACK_BYTES,
    BUFFER_HEADER_BYTES,
    DataBuffer,
    EOW,
    EOW_BYTES,
)
from repro.datacutter.filters import Filter, FilterContext, maybe_generator
from repro.datacutter.group import FilterGroup, FilterSpec, Placement, StreamSpec
from repro.datacutter.runtime import AppInstance, DataCutterRuntime, UnitOfWork
from repro.datacutter.scheduling import (
    AdmissionQueue,
    DemandDrivenScheduler,
    RoundRobinScheduler,
    WriteScheduler,
    make_scheduler,
)
from repro.datacutter.streams import InputPort, OutputPort

__all__ = [
    "DataBuffer",
    "EOW",
    "BUFFER_HEADER_BYTES",
    "EOW_BYTES",
    "ACK_BYTES",
    "Filter",
    "FilterContext",
    "maybe_generator",
    "FilterGroup",
    "FilterSpec",
    "StreamSpec",
    "Placement",
    "DataCutterRuntime",
    "AppInstance",
    "UnitOfWork",
    "WriteScheduler",
    "RoundRobinScheduler",
    "DemandDrivenScheduler",
    "make_scheduler",
    "AdmissionQueue",
    "InputPort",
    "OutputPort",
]
