"""Open-loop multi-tenant serving scenario (docs/SERVING.md).

Where :mod:`repro.apps.vizserver` reproduces the paper's single-client
figures, this module restates Figs 7–9 as a *capacity* question: how
much open-loop load can a sharded visualization service sustain per
transport before latency SLOs and drop rates give way?

Architecture
------------
The dataset is sharded: a cluster of ``hosts`` nodes (built by
:func:`repro.cluster.topology.serving_topology`) is carved into
``hosts // 2`` independent two-stage pipelines — a *repository* filter
on one host streaming query responses to a *frontend* filter on its
neighbour over the transport under test.  Each tenant's data lives
wholly on one shard (``tenant_index % n_shards``, an O(1) indexed
lookup), so the per-query work is independent of cluster size: growing
from 64 to 1024 hosts multiplies the shards and the aggregate load but
leaves the events-per-query cost flat, which the ``serve_scale`` panel
asserts to ±10%.

Admission control
-----------------
Arrivals come from a pre-drawn :class:`~repro.apps.workload.OpenLoopSchedule`
(see that module for the open-loop and determinism guarantees).  Each
shard runs its *own* dispatcher process replaying only that shard's
slice of the schedule, routing each arrival to the shard's bounded
:class:`~repro.datacutter.scheduling.AdmissionQueue` via ``offer()``: a
full queue refuses the query and the refusal is *counted* as a drop —
the overload signal the suite reports — never blocking the arrival
clock.  After its last arrival each dispatcher closes its queue;
admitted items drain, filters see end-of-stream, and the simulation
quiesces with ``offered == completed + dropped``.

Per-shard everything is a *determinism* decision, not just tidiness:
a shard's float timeline (dispatch wake-ups, per-query latencies) is
computed only from that shard's own events, so running a shard alone
in a sub-cluster reproduces it bit-for-bit.  :func:`run_serve` relies
on it: it simulates each shard on its own two-host simulator and
merges the parts (:func:`run_shard_span`), so a heap and working set
never hold more than one shard, and
:func:`repro.bench.servebench.run_serve_parallel` fans the same
per-shard runs across worker processes.  Either way the
merged result is digest-identical (:meth:`ServeResult.digest`) to one
:class:`ServeApp` simulating the whole cluster.

Metrics
-------
The frontend records per-query latency (admission to last byte
assembled) into raw per-kind lists; :class:`ServeResult` reports exact
nearest-rank p50/p99 (:func:`repro.sim.stats.percentile`), sustained
throughput, and drop rate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.dataset import ImageDataset
from repro.apps.workload import (
    FIG9_SERVING_MIX,
    OpenLoopSchedule,
    QUERY_KINDS,
    QueryMix,
    TenantSpec,
    build_schedule,
    uniform_tenants,
)
from repro.cluster.topology import Cluster, serving_topology
from repro.datacutter import DataCutterRuntime, Filter, FilterGroup
from repro.datacutter.scheduling import AdmissionQueue
from repro.errors import ExperimentError
from repro.sim.core import global_events_processed
from repro.sim.stats import percentile

__all__ = [
    "ServeConfig",
    "ServeResult",
    "ServeApp",
    "run_serve",
    "run_shard_span",
    "SERVE_IMAGE_BYTES",
    "SERVE_BLOCK_BYTES",
]

#: Serving-sized per-tenant dataset: a 256 KB viewport image in 32 KB
#: blocks (complete = 8 blocks, zoom = 4, partial = 1).  Much smaller
#: than the 16 MB archive image of the figure reproductions — a
#: serving tier answers from a working set, not the archive.
SERVE_IMAGE_BYTES = 256 * 1024
SERVE_BLOCK_BYTES = 32 * 1024


@dataclass
class ServeConfig:
    """Knobs of one serving run."""

    protocol: str = "socketvia"
    hosts: int = 64                  #: cluster width; shards = hosts // 2
    rate_per_shard: float = 200.0    #: offered queries/second per shard
    horizon: float = 0.05            #: arrival window (seconds)
    queue_capacity: int = 8          #: admission queue depth per shard
    arrival: str = "poisson"         #: "poisson" or "bursty" (MMPP)
    tenants: int = 0                 #: 0 -> one tenant per shard
    clients_per_tenant: int = 64
    mix: QueryMix = FIG9_SERVING_MIX
    image_bytes: int = SERVE_IMAGE_BYTES
    block_bytes: int = SERVE_BLOCK_BYTES
    partial_blocks: int = 1
    zoom_chunks: int = 4
    compute_ns_per_byte: float = 0.0
    policy: str = "dd"
    max_outstanding: int = 2
    seed: int = 17

    def __post_init__(self) -> None:
        if self.hosts < 2:
            raise ExperimentError("serve needs >= 2 hosts (one shard)")
        if self.rate_per_shard <= 0:
            raise ExperimentError("rate_per_shard must be > 0")

    @property
    def n_shards(self) -> int:
        return self.hosts // 2

    def dataset(self) -> ImageDataset:
        return ImageDataset.with_block_bytes(self.image_bytes, self.block_bytes)

    def response_blocks(self) -> Dict[str, int]:
        """Response size of every query kind, in dataset blocks."""
        n_blocks = self.dataset().n_blocks
        return {
            "complete": n_blocks,
            "partial": min(self.partial_blocks, n_blocks),
            "zoom": min(self.zoom_chunks, n_blocks),
        }

    def blocks_for(self, kind: str) -> int:
        """Response size of one query kind, in dataset blocks."""
        try:
            return self.response_blocks()[kind]
        except KeyError:
            raise ExperimentError(f"unknown query kind {kind!r}") from None

    def tenant_specs(self) -> List[TenantSpec]:
        """The tenant population: by default one tenant per shard, so
        the aggregate offered load is ``rate_per_shard * n_shards``."""
        n = self.tenants or self.n_shards
        total_rate = self.rate_per_shard * self.n_shards
        return uniform_tenants(
            n,
            rate_per_tenant=total_rate / n,
            clients=self.clients_per_tenant,
            mix=self.mix,
            arrival=self.arrival,
        )


@dataclass
class _ServeState:
    """Objects the dispatchers and every shard's filters share.

    ``queues`` and ``latencies`` are indexed by *local* shard position
    (0-based within this app, whatever global shard span it covers).
    Latencies are recorded per shard so the merged view is a
    concatenation in shard order — the same order a partitioned run
    produces — rather than global completion order, which would differ
    between the two.
    """

    config: ServeConfig
    bytes_for: Dict[str, int]
    queues: List[AdmissionQueue] = field(default_factory=list)
    latencies: List[Dict[str, List[float]]] = field(default_factory=list)
    dispatch_dropped: int = 0


class _RepositoryFilter(Filter):
    """Drains one shard's admission queue; emits the response bytes of
    each admitted query as a single coalesced buffer."""

    def __init__(self, state: _ServeState, shard: int) -> None:
        self.state = state
        self.shard = shard

    def process(self, ctx):
        cfg = self.state.config
        queue = self.state.queues[self.shard]
        while True:
            item = yield from queue.get()
            if item is None:
                return
            arrival, submitted = item
            nbytes = self.state.bytes_for[arrival.kind]
            if cfg.compute_ns_per_byte > 0:
                yield from ctx.compute_bytes(
                    nbytes, ns_per_byte=cfg.compute_ns_per_byte
                )
            yield from ctx.write_new(
                nbytes,
                kind=arrival.kind,
                tenant=arrival.tenant,
                client=arrival.client,
                submitted=submitted,
            )


class _FrontendFilter(Filter):
    """Receives responses; records admission-to-assembly latency."""

    def __init__(self, state: _ServeState, shard: int) -> None:
        self.state = state
        self.shard = shard

    def process(self, ctx):
        latencies = self.state.latencies[self.shard]
        while True:
            buf = yield from ctx.read()
            if buf is None:
                return
            latency = ctx.sim.now - buf.meta["submitted"]
            latencies[buf.meta["kind"]].append(latency)


@dataclass
class ServeResult:
    """Measured outcome of one serving run."""

    config: ServeConfig
    offered: int
    admitted: int
    dropped: int
    completed: int
    elapsed: float
    latencies: Dict[str, List[float]]
    events: int
    high_water: int      #: max admission-queue depth over all shards

    def __post_init__(self) -> None:
        if self.offered != self.admitted + self.dropped:
            raise ExperimentError(
                f"conservation violated: offered={self.offered} != "
                f"admitted={self.admitted} + dropped={self.dropped}"
            )

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def throughput(self) -> float:
        """Sustained completions per second over the measured run."""
        if self.elapsed <= 0:
            raise ExperimentError("no elapsed time measured")
        return self.completed / self.elapsed

    @property
    def events_per_query(self) -> float:
        """Kernel events per completed query — the cost-flatness metric."""
        if not self.completed:
            raise ExperimentError("no queries completed")
        return self.events / self.completed

    def all_latencies(self) -> List[float]:
        out: List[float] = []
        for kind in QUERY_KINDS:
            out.extend(self.latencies[kind])
        return out

    def latency_p(self, q: float, kind: Optional[str] = None) -> float:
        """Exact nearest-rank percentile latency (seconds)."""
        values = self.latencies[kind] if kind else self.all_latencies()
        if not values:
            raise ExperimentError(
                f"no completed queries for kind={kind!r}"
            )
        return percentile(values, q)

    @property
    def p50(self) -> float:
        return self.latency_p(50)

    @property
    def p99(self) -> float:
        return self.latency_p(99)

    def digest(self) -> str:
        """SHA-256 over every simulation-determined output, bit-exact.

        Floats enter as ``float.hex()`` so ULP-level divergence is
        caught.  The kernel ``events`` count is deliberately excluded:
        it depends on how the run was orchestrated (one simulator per
        shard vs one for the whole cluster have different bookkeeping
        events), not on what the simulation computed.  Every partition
        (:func:`run_serve`,
        :func:`repro.bench.servebench.run_serve_parallel`) must produce
        the digest of one :class:`ServeApp` over the whole cluster.
        """
        h = hashlib.sha256()
        cfg = self.config
        h.update(
            (
                f"{cfg.protocol}|{cfg.hosts}|{cfg.rate_per_shard!r}|"
                f"{cfg.horizon!r}|{cfg.queue_capacity}|{cfg.arrival}|"
                f"{cfg.tenants}|{cfg.seed}\n"
            ).encode()
        )
        h.update(
            f"{self.offered},{self.admitted},{self.dropped},"
            f"{self.completed},{self.high_water}\n".encode()
        )
        h.update(self.elapsed.hex().encode())
        for kind in QUERY_KINDS:
            h.update(f"\n{kind}:".encode())
            for value in self.latencies[kind]:
                h.update(value.hex().encode())
                h.update(b";")
        return h.hexdigest()

    @classmethod
    def merged(cls, config: ServeConfig,
               parts: List["ServeResult"]) -> "ServeResult":
        """Combine per-shard-span results into the whole-cluster result.

        *parts* must be in ascending shard order; latencies concatenate
        per kind in that order (matching the whole-cluster app's
        recording order), counters sum, and ``elapsed``/``high_water`` take the
        max — elapsed is already "slowest shard" within each part.
        """
        if not parts:
            raise ExperimentError("nothing to merge")
        return cls(
            config=config,
            offered=sum(p.offered for p in parts),
            admitted=sum(p.admitted for p in parts),
            dropped=sum(p.dropped for p in parts),
            completed=sum(p.completed for p in parts),
            elapsed=max(p.elapsed for p in parts),
            latencies={
                kind: [v for p in parts for v in p.latencies[kind]]
                for kind in QUERY_KINDS
            },
            events=sum(p.events for p in parts),
            high_water=max(p.high_water for p in parts),
        )


class ServeApp:
    """Builds the sharded pipelines and replays an open-loop schedule
    in one simulation.

    :func:`run_serve` builds one of these per shard; one app over the
    whole cluster is the oracle the partitioned runs are tested against.

    Parameters
    ----------
    cluster:
        The hosts to build on.  For a whole-cluster run this is
        ``serving_topology(config.hosts)``; for a partitioned run it is
        the sub-cluster covering exactly ``shard_range``
        (``serving_topology(2 * span, first_host=2 * lo)``).
    config:
        The *global* run configuration — ``config.n_shards`` is the
        whole cluster's shard count and drives tenant routing even when
        this app only hosts a span of it.
    shard_range:
        Global ``(lo, hi)`` shard span this app owns.  Defaults to all
        of them.  Hosts are addressed positionally, so the cluster must
        contain exactly the span's hosts when a proper sub-range is
        given.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: ServeConfig,
        shard_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        lo, hi = shard_range if shard_range is not None else (0, config.n_shards)
        if not 0 <= lo < hi <= config.n_shards:
            raise ExperimentError(
                f"shard_range {lo, hi} outside [0, {config.n_shards})"
            )
        span = hi - lo
        if cluster.n_hosts < 2 * span:
            raise ExperimentError(
                f"shards [{lo}, {hi}) need {2 * span} hosts, cluster has "
                f"{cluster.n_hosts}"
            )
        expect_first = f"host{2 * lo:04d}"
        if cluster.host_at(0).name != expect_first:
            raise ExperimentError(
                f"cluster starts at {cluster.host_at(0).name!r}, but shard "
                f"span [{lo}, {hi}) must start at {expect_first!r} for "
                "bit-identical partitioning"
            )
        self.cluster = cluster
        self.config = config
        self.shard_lo = lo
        self.shard_hi = hi
        #: Global shard count (routing modulus), not the local span.
        self.n_shards = config.n_shards
        self.state = _ServeState(
            config=config,
            bytes_for={
                kind: blocks * config.block_bytes
                for kind, blocks in config.response_blocks().items()
            },
        )
        self.runtime = DataCutterRuntime(
            cluster,
            protocol=config.protocol,
            max_outstanding=config.max_outstanding,
        )
        self.instances = []
        for local, shard in enumerate(range(lo, hi)):
            # Filter-group names stay global so a sub-cluster run is
            # event-for-event the run the full cluster gives this span.
            group = FilterGroup(f"serve{shard:04d}", default_policy=config.policy)
            group.add_filter(
                "repo", lambda s=local: _RepositoryFilter(self.state, s)
            )
            group.add_filter(
                "front", lambda s=local: _FrontendFilter(self.state, s)
            )
            group.connect("responses", "repo", "front")
            # Global shard s lives on hosts 2s / 2s+1; positionally the
            # sub-cluster starts at host 2*lo — O(1) either way.
            placement = group.place({
                "repo": [cluster.host_at(2 * local).name],
                "front": [cluster.host_at(2 * local + 1).name],
            })
            instance = self.runtime.instantiate(group, placement)
            self.state.queues.append(
                instance.admission_queue("ingress", config.queue_capacity)
            )
            self.state.latencies.append({kind: [] for kind in QUERY_KINDS})
            self.instances.append(instance)

    # -- dispatch -------------------------------------------------------------------

    def _dispatch_shard(self, local: int, arrivals: list):
        """Replay one shard's arrival slice against its queue.

        The wake-up chain (``due - sim.now`` timeouts) is computed only
        from this shard's own arrivals and start time, so its float
        timeline is independent of every other shard — the invariant
        that keeps partitioned runs digest-identical.
        """
        sim = self.cluster.sim
        state = self.state
        queue = state.queues[local]
        start = sim.now
        for arrival in arrivals:
            due = start + arrival.at
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            if not queue.offer((arrival, sim.now)):
                state.dispatch_dropped += 1
        queue.close()

    # -- run -------------------------------------------------------------------------

    def run(self, schedule: OpenLoopSchedule) -> ServeResult:
        """Execute this app's span of the schedule in one simulation."""
        slices = _split_by_shard(schedule, self.n_shards)
        return self._replay(slices[self.shard_lo:self.shard_hi])

    def _replay(self, slices: List[list]) -> ServeResult:
        """Run the span's per-shard arrival slices; owns the simulation."""
        sim = self.cluster.sim
        elapsed: List[float] = [0.0] * len(self.instances)
        events_before = global_events_processed()

        def shard_main(local, inst, arrivals):
            # Each shard clocks from its *own* start completion: shard
            # timelines never reference a cross-shard barrier, so a
            # sub-cluster run reproduces them exactly.
            yield sim.process(inst.start(), name=f"{inst.group.name}.start")
            t0 = sim.now
            sim.process(
                self._dispatch_shard(local, arrivals),
                name=f"{inst.group.name}.dispatch",
            )
            yield sim.process(inst.run_uow(payload=None),
                              name=f"{inst.group.name}.uow")
            elapsed[local] = sim.now - t0

        def main():
            shards = [
                sim.process(shard_main(local, inst, slices[local]),
                            name=f"{inst.group.name}.shard")
                for local, inst in enumerate(self.instances)
            ]
            yield sim.all_of(shards)
            for inst in self.instances:
                yield from inst.finalize()

        done = sim.process(main(), name="serve.main")
        sim.run(done)

        offered = sum(len(s) for s in slices)
        admitted = sum(q.admitted for q in self.state.queues)
        dropped = sum(q.dropped for q in self.state.queues)
        if dropped != self.state.dispatch_dropped:
            raise ExperimentError(
                f"drop accounting mismatch: queues counted {dropped}, "
                f"dispatcher saw {self.state.dispatch_dropped}"
            )
        completed = sum(
            len(v) for shard in self.state.latencies for v in shard.values()
        )
        if completed != admitted:
            raise ExperimentError(
                f"admitted {admitted} queries but completed {completed} "
                "(admitted work must drain before close)"
            )
        return ServeResult(
            config=self.config,
            offered=offered,
            admitted=admitted,
            dropped=dropped,
            completed=completed,
            # "Slowest shard" — invariant under partitioning, unlike a
            # shared-barrier wall measurement.
            elapsed=max(elapsed),
            latencies={
                kind: [
                    v for shard in self.state.latencies for v in shard[kind]
                ]
                for kind in QUERY_KINDS
            },
            events=global_events_processed() - events_before,
            high_water=max((q.high_water for q in self.state.queues),
                           default=0),
        )


def _split_by_shard(schedule: OpenLoopSchedule, n_shards: int) -> List[list]:
    """The schedule's per-shard arrival slices, in one pass.

    Tenant -> global shard is ``tenant_index % n_shards`` (O(1),
    independent of cluster width); a slice keeps schedule order, which
    is time order.
    """
    slices: List[list] = [[] for _ in range(n_shards)]
    for arrival in schedule.arrivals:
        slices[arrival.tenant_index % n_shards].append(arrival)
    return slices


def _run_shard(config: ServeConfig, shard: int, arrivals: list) -> ServeResult:
    # A function of its own so the shard's app and cluster go out of
    # scope with it: memory holds one shard's simulation at a time.
    cluster = serving_topology(2, seed=config.seed, first_host=2 * shard)
    app = ServeApp(cluster, config, shard_range=(shard, shard + 1))
    return app._replay([arrivals])


def run_shard_span(
    config: ServeConfig,
    schedule: OpenLoopSchedule,
    lo: int,
    hi: int,
) -> ServeResult:
    """Run shards ``[lo, hi)`` of *schedule*, each on its own two-host
    simulator, and merge them in shard order.

    Shards never exchange a message, so each one's simulation is the
    one the whole cluster computes for it (``ServeApp`` over
    ``serving_topology(config.hosts)`` is the oracle the partition
    tests hold this to), while every heap and working set stays one
    shard small.
    """
    slices = _split_by_shard(schedule, config.n_shards)
    return ServeResult.merged(config, [
        _run_shard(config, shard, slices[shard]) for shard in range(lo, hi)
    ])


def run_serve(
    config: ServeConfig,
    schedule: Optional[OpenLoopSchedule] = None,
) -> ServeResult:
    """Draw the schedule (unless given), run every shard on its own
    simulator, and return the merged measured results."""
    if schedule is None:
        schedule = build_schedule(
            config.tenant_specs(), config.horizon, config.seed
        )
    return run_shard_span(config, schedule, 0, config.n_shards)
