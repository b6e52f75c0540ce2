"""Cluster assembly: hosts + switch fabrics in one object.

:class:`Cluster` is the root container every experiment builds first::

    cluster = Cluster(seed=7)
    cluster.add_fabric("clan")
    nodes = cluster.add_hosts("node", 16)      # node00 .. node15
    # transports attach NICs to cluster.fabric("clan")

:func:`paper_testbed` mirrors the paper's testbed: 16 dual-CPU nodes
on a GigaNet cLAN fabric.  Both transports run over it — SocketVIA on
VIA, TCP over cLAN's LAN-emulation path — so every figure compares
them on the same wire.

:func:`serving_topology` is the wide variant behind the ``serve``
scenario (docs/SERVING.md): 64–1024 hosts on a single cLAN fabric,
with O(1) positional host access via :meth:`Cluster.host_at` so
shard-indexed demux never scans the host table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TopologyError
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer, default_tracer

from repro.cluster.hetero import SlowdownModel
from repro.cluster.host import Host
from repro.cluster.link import Port, Switch

__all__ = [
    "Cluster",
    "paper_testbed",
    "serving_topology",
    "wan_topology",
    "wan_model",
    "WAN_ONE_WAY_S",
    "WAN_RATE_BPS",
]


def _active_fault_plan():
    """The ambient fault plan, without importing ``repro.faults`` at
    module load (the plan module is dependency-free, so this lazy hop
    only exists to keep cluster importable before faults)."""
    from repro.faults.plan import active_plan

    return active_plan()


class Cluster:
    """A simulator plus named hosts plus named switch fabrics."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim or Simulator()
        self.rng = RandomStreams(seed)
        # No explicit tracer → the process default, so drivers that
        # build their own clusters are traceable via ``with tracing():``.
        self.tracer = tracer or default_tracer()
        self.tracer.bind_clock(lambda: self.sim.now)
        self.hosts: Dict[str, Host] = {}
        #: Hosts in insertion order — O(1) positional access for
        #: shard-indexed placement (serve) without sorting the name
        #: table on every lookup.
        self.host_list: List[Host] = []
        self._fabrics: Dict[str, Switch] = {}
        # Same adoption pattern for the ambient fault plan (``with
        # injecting(plan):`` — see repro.faults): a non-empty plan
        # builds an injector that attaches fault state as hosts and
        # fabrics are added.  ``faults`` stays None on fault-free runs,
        # and every downstream hook keys off that.
        self.faults = None
        plan = _active_fault_plan()
        if plan is not None and not plan.is_empty:
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(plan, self)

    # -- hosts -------------------------------------------------------------------

    def add_host(
        self,
        name: str,
        cores: int = 2,
        slowdown: Optional[SlowdownModel] = None,
        compute_ns_per_byte: Optional[float] = None,
    ) -> Host:
        """Create one host and a port on every existing fabric."""
        if name in self.hosts:
            raise TopologyError(f"duplicate host name {name!r}")
        kwargs = {}
        if compute_ns_per_byte is not None:
            kwargs["compute_ns_per_byte"] = compute_ns_per_byte
        host = Host(
            self.sim,
            name,
            cores=cores,
            slowdown=slowdown,
            rng=self.rng.spawn(f"host.{name}"),
            **kwargs,
        )
        host.tracer = self.tracer
        self.hosts[name] = host
        self.host_list.append(host)
        for fabric in self._fabrics.values():
            port = fabric.add_port(name)
            if self.faults is not None:
                self.faults.attach_port(fabric, port)
        if self.faults is not None:
            self.faults.attach_host(host)
        return host

    def add_hosts(self, prefix: str, count: int, **kwargs) -> List[Host]:
        """Create ``count`` hosts named ``{prefix}00..`` and return them."""
        return [self.add_host(f"{prefix}{i:02d}", **kwargs) for i in range(count)]

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise TopologyError(
                f"no host {name!r} (have {sorted(self.hosts)})"
            ) from None

    def host_at(self, index: int) -> Host:
        """The *index*-th host in insertion order (O(1))."""
        try:
            return self.host_list[index]
        except IndexError:
            raise TopologyError(
                f"host index {index} out of range (have {len(self.host_list)})"
            ) from None

    @property
    def n_hosts(self) -> int:
        return len(self.host_list)

    # -- fabrics ------------------------------------------------------------------

    def add_fabric(self, name: str, propagation: float = 0.0) -> Switch:
        """Create a switch fabric; existing hosts get ports on it."""
        if name in self._fabrics:
            raise TopologyError(f"duplicate fabric {name!r}")
        switch = Switch(
            self.sim, propagation=propagation, name=name, tracer=self.tracer
        )
        self._fabrics[name] = switch
        for host_name in self.hosts:
            port = switch.add_port(host_name)
            if self.faults is not None:
                self.faults.attach_port(switch, port)
        return switch

    def fabric(self, name: str) -> Switch:
        """Look up a fabric by name."""
        try:
            return self._fabrics[name]
        except KeyError:
            raise TopologyError(
                f"no fabric {name!r} (have {sorted(self._fabrics)})"
            ) from None

    def port(self, fabric: str, host: str) -> Port:
        """The given host's port on the given fabric."""
        return self.fabric(fabric).port(host)

    @property
    def fabric_names(self) -> List[str]:
        return sorted(self._fabrics)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Cluster hosts={len(self.hosts)} "
            f"fabrics={self.fabric_names}>"
        )


def paper_testbed(
    nodes: int = 16,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Cluster:
    """The paper's testbed: *nodes* dual-CPU hosts on one cLAN fabric.

    Host names are ``node00`` .. ``node{nodes-1:02d}``.
    """
    cluster = Cluster(seed=seed, tracer=tracer)
    cluster.add_fabric("clan")
    cluster.add_hosts("node", nodes, cores=2)
    return cluster


def serving_topology(
    hosts: int = 256,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    cores: int = 2,
    first_host: int = 0,
) -> Cluster:
    """A wide serving cluster: *hosts* nodes on a single cLAN fabric.

    Designed for the 64–1024-host range of the ``serve`` scenario
    (docs/SERVING.md).  It differs from :func:`paper_testbed` in its
    host names: they are four-digit (``host0000`` ..), so
    lexicographic and positional order agree all the way to 1024 hosts
    (the two-digit ``{prefix}{i:02d}`` scheme of
    :meth:`Cluster.add_hosts` stops zero-padding at 100).

    Shard-indexed code should address hosts positionally via
    :meth:`Cluster.host_at`, which is O(1) in cluster size.

    ``first_host`` builds a *sub-cluster*: ``hosts`` nodes carrying the
    global names ``host{first_host:04d}`` onward.  Because every
    per-host RNG stream is keyed by host *name* (not position), a
    sub-cluster reproduces bit-identical host behaviour to the same
    span inside the full cluster — the property
    :func:`repro.bench.servebench.run_serve_parallel` leans on to shard
    a serving simulation across worker processes.
    """
    if hosts < 2:
        raise TopologyError("serving topology needs at least 2 hosts")
    if first_host < 0:
        raise TopologyError(f"first_host must be >= 0, got {first_host}")
    cluster = Cluster(seed=seed, tracer=tracer)
    cluster.add_fabric("clan")
    for i in range(first_host, first_host + hosts):
        cluster.add_host(f"host{i:04d}", cores=cores)
    return cluster


# -- WAN presets (docs/CACHING.md) -------------------------------------------------

#: One-way WAN propagation (seconds): 15 ms, i.e. a 30 ms RTT — the
#: coast-to-coast class of link the LBNL visualization work measured.
WAN_ONE_WAY_S = 0.015

#: WAN line rate: OC-12 (622 Mbit/s), the era's wide-area backbone.
WAN_RATE_BPS = 622_000_000.0


def wan_model(base):
    """A protocol cost model re-rated for the OC-12 WAN.

    Only the per-byte wire gap changes (OC-12 pacing instead of the
    LAN's); propagation stays in the *fabric* —
    :func:`wan_topology` builds the ``"wan"`` switch with
    ``propagation=WAN_ONE_WAY_S``, so hosts keep one cost model per
    stack while the long haul lives in the topology, composed onto
    every traversal.  Because protocol stacks are cached per
    ``(protocol, fabric)`` on each host, a WAN-model stack must be
    created with ``fabric="wan"`` (see :func:`repro.apps.wancache`'s
    assembly) — it then never collides with the same protocol's LAN
    stack.
    """
    return base.with_updates(g_wire=8.0 / WAN_RATE_BPS)


def wan_topology(
    storage_hosts: int = 4,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    cores: int = 2,
) -> Cluster:
    """A two-site WAN topology for the block-cache scenario.

    Hosts and fabrics:

    * ``client00`` — the frontend host (runs the DataCutter filters);
    * ``edge00`` — a cache host on the frontend's LAN (DPSS-style);
    * ``store00`` .. — *storage_hosts* storage nodes;
    * fabric ``"clan"`` — the LAN (zero added propagation, LAN rates);
    * fabric ``"wan"`` — the high bandwidth-delay-product long haul:
      every traversal pays :data:`WAN_ONE_WAY_S` switch propagation on
      top of the cost model's own wire time, so the RTT is ~30 ms.
      Pair it with :func:`wan_model` for OC-12 per-byte pacing.

    Every host gets ports on both fabrics (the physical picture:
    dual-homed gateways); the *scenario* decides which legs ride which
    fabric — frontend↔edge on the LAN, frontend↔storage on the WAN.
    A single-stream transfer's in-flight bytes are capped by its
    window/credits at a fraction of the WAN's bandwidth-delay product
    (~2.3 MB), which is exactly why striped reads
    (:class:`repro.transport.striped.StripedStream`) pay off here and
    not on the LAN.
    """
    if storage_hosts < 1:
        raise TopologyError("wan topology needs at least 1 storage host")
    cluster = Cluster(seed=seed, tracer=tracer)
    cluster.add_fabric("clan")
    cluster.add_fabric("wan", propagation=WAN_ONE_WAY_S)
    cluster.add_host("client00", cores=cores)
    cluster.add_host("edge00", cores=cores)
    cluster.add_hosts("store", storage_hosts, cores=cores)
    return cluster
