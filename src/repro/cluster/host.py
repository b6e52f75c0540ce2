"""Host (compute node) model.

A :class:`Host` owns a set of CPU cores (a :class:`~repro.sim.Resource`),
a registry of NICs attached by the transports, and a *slowdown model*
governing how fast application computation runs (Section 5.2.3 of the
paper emulates slow nodes by repeating computation).

Two kinds of CPU time are charged:

* **Application computation** — via :meth:`Host.compute`, scaled by the
  heterogeneity model.  This is the 18 ns/byte visualization work.
* **Protocol processing** — transports call ``host.cpu.use(...)``
  directly, *not* scaled.  The paper's heterogeneity experiments assume
  "communication time remains constant and only the computation time
  varies"; keeping protocol costs unscaled implements that assumption
  (and mirrors how a VIA NIC offloads work from the host).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.errors import ClusterError
from repro.sim import Event, Resource, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import NULL_TRACER, Tracer

from repro.cluster.hetero import ConstantSpeed, SlowdownModel

__all__ = ["Host"]

#: Computation cost measured by the paper for the Virtual Microscope
#: visualization filter: 18 nanoseconds per byte of message.
VIRTUAL_MICROSCOPE_NS_PER_BYTE = 18.0


class Host:
    """A cluster node: named CPU cores plus attachment points for NICs.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Unique host name within its cluster.
    cores:
        Number of CPU cores (the paper's nodes are dual Pentium III;
        experiments effectively use one application core per filter, so
        the default is 2).
    compute_ns_per_byte:
        Default per-byte application computation cost used by
        :meth:`compute_bytes`; defaults to the paper's 18 ns/byte.
    slowdown:
        Heterogeneity model for application computation.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int = 2,
        compute_ns_per_byte: float = VIRTUAL_MICROSCOPE_NS_PER_BYTE,
        slowdown: Optional[SlowdownModel] = None,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.cpu = Resource(sim, capacity=cores, name=f"{name}.cpu")
        self.compute_ns_per_byte = float(compute_ns_per_byte)
        self.slowdown = slowdown or ConstantSpeed()
        self.rng = rng or RandomStreams(0)
        #: Trace sink inherited by every stack/NIC built on this host
        #: (the owning cluster points it at its own tracer).
        self.tracer: Tracer = NULL_TRACER
        #: True while a fault-plan crash window is in effect (see
        #: ``repro.faults``); fault-free runs never flip it.
        self.crashed = False
        #: Per-host crash state installed by a
        #: :class:`~repro.faults.injector.FaultInjector`; transport
        #: stacks pick it up at construction and gate their receive
        #: enqueue on it (None = fault-free fast path).
        self.fault_state = None
        #: NICs attached by transports, keyed by an arbitrary label
        #: (stacks use ``"{tag}.{fabric}"``, e.g. ``"tcp.clan"``).
        self.nics: Dict[str, Any] = {}
        #: Scratch attribute space for runtimes (DataCutter stores its
        #: per-host daemon here).
        self.services: Dict[str, Any] = {}

    # -- NIC management --------------------------------------------------------

    def attach_nic(self, label: str, nic: Any) -> None:
        """Register a NIC under *label*; one NIC per label per host."""
        if label in self.nics:
            raise ClusterError(f"host {self.name!r} already has NIC {label!r}")
        self.nics[label] = nic

    def nic(self, label: str) -> Any:
        """Look up an attached NIC."""
        try:
            return self.nics[label]
        except KeyError:
            raise ClusterError(
                f"host {self.name!r} has no NIC {label!r} "
                f"(has {sorted(self.nics)})"
            ) from None

    # -- computation ------------------------------------------------------------

    def compute(self, seconds: float) -> Generator[Event, Any, None]:
        """Charge *seconds* of application CPU time, scaled by slowdown.

        Usage: ``yield from host.compute(t)``.  The slowdown factor is
        sampled *once per call* — one call models processing one data
        block, matching the paper's per-block slow/fast coin flip.
        """
        factor = self.slowdown.factor(self)
        yield from self.cpu.use(seconds * factor)

    def compute_bytes(
        self,
        nbytes: float,
        ns_per_byte: Optional[float] = None,
    ) -> Generator[Event, Any, None]:
        """Charge linear-in-size computation (default 18 ns/byte)."""
        rate = self.compute_ns_per_byte if ns_per_byte is None else ns_per_byte
        yield from self.compute(nbytes * rate * 1e-9)

    def compute_time(self, nbytes: float, ns_per_byte: Optional[float] = None) -> float:
        """The *unscaled* application time for *nbytes* (no slowdown)."""
        rate = self.compute_ns_per_byte if ns_per_byte is None else ns_per_byte
        return nbytes * rate * 1e-9

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name!r} cores={self.cpu.capacity}>"
