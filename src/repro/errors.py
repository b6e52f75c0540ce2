"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing Python
built-ins.  Subsystems define narrower subclasses here (rather than in their
own modules) so the full hierarchy is visible in one place.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class StopSimulation(SimulationError):
    """Internal control-flow signal used by :meth:`Simulator.run` to halt.

    Users never see this unless they poke at kernel internals.
    """


class EventLifecycleError(SimulationError):
    """An event was triggered, succeeded, or failed in an invalid state.

    Typical causes: calling ``succeed()`` twice on the same event, or
    scheduling an event that already sits on the event heap.
    """


class ProcessError(SimulationError):
    """A simulation process misbehaved (e.g. yielded a non-event)."""


# ---------------------------------------------------------------------------
# Cluster / hardware models
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for cluster-model errors (hosts, links, switches)."""


class TopologyError(ClusterError):
    """The requested topology is malformed (unknown host, duplicate name...)."""


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for transport-level failures."""


class AddressError(NetworkError):
    """Bad address: not bound, already bound, or no listener present."""


class ConnectionRefused(NetworkError):
    """The remote endpoint had no listening socket for the address."""


class ConnectionReset(NetworkError):
    """The peer closed the connection while data was still in flight."""


class SocketClosedError(NetworkError):
    """Operation attempted on a socket that has been closed locally."""


class ProtocolError(NetworkError):
    """Violation of a transport protocol invariant (credits, descriptors)."""


class ConnectTimeout(NetworkError):
    """A connection attempt exceeded its timeout (no retry configured)."""


class ReceiveTimeout(NetworkError):
    """``recv_message(timeout=...)`` expired before a message arrived."""


class RetryExhausted(NetworkError):
    """Every attempt of a :class:`repro.faults.retry.RetryPolicy` timed
    out.  Carries the diagnosis the caller needs: ``attempts`` actually
    made and the ``backoff`` delays waited between them."""

    def __init__(self, message: str, attempts: int = 0,
                 backoff: tuple = ()) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.backoff = tuple(backoff)


class StripedTransferError(NetworkError):
    """Every stripe of a :class:`repro.transport.striped.StripedStream`
    failed, so the logical read cannot complete."""


class ViaError(ProtocolError):
    """VIA-provider specific failure (bad descriptor, unregistered memory)."""


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class FaultPlanError(ReproError):
    """A fault plan or retry policy is malformed (bad rate, inverted
    window, unknown preset)."""


# ---------------------------------------------------------------------------
# DataCutter runtime
# ---------------------------------------------------------------------------


class DataCutterError(ReproError):
    """Base class for filter-stream runtime errors."""


class FilterGraphError(DataCutterError):
    """The filter group is malformed (cycle, dangling stream, bad copies)."""


class PlacementError(DataCutterError):
    """A filter could not be placed on the requested host."""


class StreamClosedError(DataCutterError):
    """A filter wrote to (or read from) a stream after end-of-work."""


# ---------------------------------------------------------------------------
# Applications / benchmark harness
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """A workload/query specification is invalid."""


class ExperimentError(ReproError):
    """An experiment could not be configured or produced no data."""
