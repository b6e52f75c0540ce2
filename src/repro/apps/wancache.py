"""The WAN block-cache scenario (docs/CACHING.md).

The source paper holds data locality fixed: every query pays the full
repository→frontend transfer.  This scenario breaks that assumption
the way the related WAN-visualization work does — a
:class:`~repro.cache.BlockCache` tier sits between storage and the
DataCutter frontend, and cold blocks cross the WAN via
:class:`~repro.transport.striped.StripedStream` striped reads:

* **topology** — :func:`repro.cluster.topology.wan_topology`:
  ``client00`` (frontend + render filters), ``edge00`` (edge cache
  host), ``store00..`` (storage) on a LAN fabric plus a ~30 ms-RTT
  OC-12 WAN fabric;
* **pipeline** — a two-filter DataCutter group on ``client00``:
  ``frontend`` resolves each query's block set, *consults the cache
  before issuing storage reads*, striped-fetches the misses, and
  forwards every block downstream; ``render`` assembles queries and
  records latency;
* **placement** — where the cache lives decides what a hit costs:
  ``client`` hits are local lookups, ``edge`` hits pay one LAN
  store-and-forward hop (the whole data path then routes through the
  edge host, DPSS-style), ``storage`` hits still cross the WAN but
  skip the storage read penalty (the stripe servers consult the
  storage-side cache);
* **temperature** — ``cold`` starts empty, ``warm`` pre-warms the
  first half of the block space, ``hot`` pre-warms everything.

:func:`run_wan_queries` is the query-latency entry point (the
``wcq`` bench panel);  :func:`run_wan_bulk` is the pure bulk-transfer
driver behind the stripe-scaling panel (``wcb``) — no cache, no
pipeline, just one striped read of the whole block space with its
reassembly digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache import BlockCache
from repro.cluster.topology import Cluster, wan_model, wan_topology
from repro.datacutter import DataCutterRuntime, Filter, FilterGroup
from repro.errors import SocketClosedError
from repro.sim import Store
from repro.sim.stats import percentile
from repro.sockets.factory import ProtocolAPI
from repro.transport.registry import get_transport
from repro.transport.striped import (
    StripedStream,
    block_token,
    reassembly_digest,
    stripe_server,
)

__all__ = [
    "WAN_PORT",
    "EDGE_PORT",
    "PLACEMENTS",
    "WanCacheConfig",
    "WanQueryResult",
    "WanBulkConfig",
    "WanBulkResult",
    "run_wan_queries",
    "run_wan_bulk",
]

WAN_PORT = 7100
EDGE_PORT = 7200

#: Where the cache host sits relative to the WAN (docs/CACHING.md):
#: ``client`` — on the frontend host itself (a hit is a local lookup);
#: ``edge`` — on a dedicated host one LAN hop from the frontend (the
#: DPSS arrangement: a hit pays a LAN round trip at LAN rates);
#: ``storage`` — on the storage side (a hit still crosses the WAN but
#: skips the storage read penalty).
PLACEMENTS = ("client", "edge", "storage")

#: Default storage read penalty (ns/byte): ~200 MB/s media — what a
#: storage-side cache hit skips.
STORAGE_READ_NS_PER_BYTE = 5.0


def _wan_api(cluster: Cluster, protocol: str) -> ProtocolAPI:
    """A protocol API for the WAN fabric with the OC-12-rated model."""
    base = get_transport(protocol).default_model()
    return ProtocolAPI(cluster, protocol, fabric="wan",
                       model=wan_model(base))


def _stripe_addresses(width: int, storage_hosts: int) -> List[Tuple[str, int]]:
    """Stripe s terminates on storage host ``s % storage_hosts``."""
    return [(f"store{s % storage_hosts:02d}", WAN_PORT)
            for s in range(width)]


# ---------------------------------------------------------------------------
# query scenario
# ---------------------------------------------------------------------------


@dataclass
class WanCacheConfig:
    """Knobs of the WAN query scenario.

    ``placement`` (one of :data:`PLACEMENTS`) decides where the cache
    sits; ``stripe_width`` is how many parallel stripes a logical read
    fans across.  The cache is unbounded, so ``temperature``, not
    eviction pressure, sets how many lookups hit.
    """

    protocol: str = "socketvia"
    placement: str = "edge"
    stripe_width: int = 1
    temperature: str = "cold"
    n_blocks: int = 64
    block_bytes: int = 64 * 1024
    blocks_per_query: int = 8
    n_queries: int = 6
    storage_hosts: int = 4
    read_ns_per_byte: float = STORAGE_READ_NS_PER_BYTE
    compute_ns_per_byte: float = 0.0
    seed: int = 13

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.placement!r}")
        if self.stripe_width < 1:
            raise ValueError("stripe_width must be >= 1")
        if self.temperature not in ("cold", "warm", "hot"):
            raise ValueError(
                f"temperature must be cold/warm/hot, "
                f"got {self.temperature!r}")

    def query_blocks(self, q: int) -> List[int]:
        """Block ids of query *q*: a contiguous run, wrapping at the
        end of the block space — deterministic, so cold runs whose
        queries fit the space without wrapping see zero hits."""
        return [(q * self.blocks_per_query + j) % self.n_blocks
                for j in range(self.blocks_per_query)]

    def warm_blocks(self) -> List[int]:
        if self.temperature == "hot":
            return list(range(self.n_blocks))
        if self.temperature == "warm":
            return list(range((self.n_blocks + 1) // 2))
        return []


@dataclass
class WanQueryResult:
    """Measured outcome of one query run."""

    config: WanCacheConfig
    latencies: List[float]
    elapsed: float
    hits: int
    misses: int
    insertions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies)

    @property
    def p50_latency(self) -> float:
        return percentile(self.latencies, 50.0)


@dataclass
class _Shared:
    """State the filters, the edge agent, and the client share."""

    config: WanCacheConfig
    cache: BlockCache
    queries: Store
    completions: Dict[int, object]
    ready: object  # Event: pipeline connections are up
    edge_ready: object  # Event: edge agent's WAN stripes are open


class _FrontendFilter(Filter):
    """Resolves queries to blocks, consulting the cache tier first."""

    def __init__(self, shared: _Shared, wan_api: ProtocolAPI,
                 lan_api: ProtocolAPI) -> None:
        self.shared = shared
        self.wan_api = wan_api
        self.lan_api = lan_api

    def process(self, ctx):
        cfg = self.shared.config
        placement = cfg.placement
        cache = self.shared.cache
        edge_sock = None
        stream = None
        if placement == "edge":
            # The whole data path routes through the edge cache host.
            # Wait for the agent's WAN stripes first — connecting only
            # needs the bound listener, so without the barrier the
            # first query would absorb the agent's stripe setup.
            yield self.shared.edge_ready
            edge_sock = self.lan_api.socket(ctx.host)
            yield from edge_sock.connect(("edge00", EDGE_PORT))
        else:
            stream = yield from StripedStream.open(
                self.wan_api, ctx.host,
                _stripe_addresses(cfg.stripe_width, cfg.storage_hosts))
        self.shared.ready.succeed()
        while True:
            item = yield self.shared.queries.get()
            if item is None:
                if edge_sock is not None:
                    edge_sock.close()
                if stream is not None:
                    stream.close()
                return
            query_id, block_ids, submitted = item
            if placement == "client":
                # Consult the local cache before issuing storage reads.
                missing = [b for b in block_ids if not cache.get(b)]
                if missing:
                    fetched = yield from stream.read_blocks(
                        missing, cfg.block_bytes)
                    for block_id, _token in fetched:
                        cache.put(block_id)
            elif placement == "edge":
                # Ask the edge agent; it serves hits at LAN speed and
                # striped-fetches misses across the WAN.
                yield from edge_sock.send_message(
                    64 + 8 * len(block_ids),
                    payload=("query", cfg.block_bytes, tuple(block_ids)),
                    kind="query")
                for _ in block_ids:
                    yield from edge_sock.recv_message()
            else:  # storage-side cache: every block crosses the WAN
                yield from stream.read_blocks(block_ids, cfg.block_bytes)
            for block_id in block_ids:
                yield from ctx.write_new(
                    cfg.block_bytes,
                    block=block_id,
                    query_id=query_id,
                    chunks_total=len(block_ids),
                    submitted=submitted,
                )


class _RenderFilter(Filter):
    """Assembles query results and signals completion."""

    def __init__(self, shared: _Shared) -> None:
        self.shared = shared

    def init(self, ctx):
        ctx.state["pending"] = {}

    def process(self, ctx):
        rate = self.shared.config.compute_ns_per_byte
        pending: Dict[int, int] = ctx.state["pending"]
        while True:
            buf = yield from ctx.read()
            if buf is None:
                return
            if rate > 0:
                yield from ctx.compute_bytes(buf.size, ns_per_byte=rate)
            qid = buf.meta["query_id"]
            remaining = pending.get(qid, buf.meta["chunks_total"]) - 1
            if remaining > 0:
                pending[qid] = remaining
                continue
            pending.pop(qid, None)
            latency = ctx.sim.now - buf.meta["submitted"]
            ctx.record("latency.query", latency)
            done = self.shared.completions.get(qid)
            if done is not None and not done.triggered:
                done.succeed()


def _edge_agent(shared: _Shared, lan_api: ProtocolAPI,
                wan_api: ProtocolAPI):
    """The edge cache host's agent: lookup, serve, fetch-on-miss."""
    cfg = shared.config
    cache = shared.cache
    listener = lan_api.listen("edge00", EDGE_PORT)
    stream = yield from StripedStream.open(
        wan_api, "edge00",
        _stripe_addresses(cfg.stripe_width, cfg.storage_hosts))
    shared.edge_ready.succeed()
    sock = yield from listener.accept()
    while True:
        try:
            msg = yield from sock.recv_message()
        except SocketClosedError:
            stream.close()
            return
        _op, block_bytes, block_ids = msg.payload
        missing = [b for b in block_ids if not cache.get(b)]
        if missing:
            fetched = yield from stream.read_blocks(missing, block_bytes)
            for block_id, _token in fetched:
                cache.put(block_id)
        for block_id in block_ids:
            yield from sock.send_message(
                block_bytes,
                payload=(block_id, block_token(block_id)),
                kind="block")


def run_wan_queries(config: WanCacheConfig,
                    cluster: Optional[Cluster] = None) -> WanQueryResult:
    """Build the WAN topology, run the query workload, return stats."""
    cluster = cluster or wan_topology(storage_hosts=config.storage_hosts,
                                      seed=config.seed)
    sim = cluster.sim
    lan_api = ProtocolAPI(cluster, config.protocol)
    wan_api = _wan_api(cluster, config.protocol)

    cache_host = {"client": "client00", "edge": "edge00",
                  "storage": "store00"}[config.placement]
    cache = BlockCache(cluster.host(cache_host), tracer=cluster.tracer)
    cache.warm(config.warm_blocks())

    shared = _Shared(config=config, cache=cache,
                     queries=Store(sim), completions={},
                     ready=sim.event(), edge_ready=sim.event())

    # Storage servers: one stripe endpoint per storage host.  With a
    # storage-side placement they consult the (shared) cache before
    # paying the read penalty.
    storage_cache = cache if config.placement == "storage" else None
    for i in range(config.storage_hosts):
        sim.process(
            stripe_server(wan_api, f"store{i:02d}", WAN_PORT,
                          read_ns_per_byte=config.read_ns_per_byte,
                          cache=storage_cache),
            name=f"wancache.store{i:02d}")
    if config.placement == "edge":
        sim.process(_edge_agent(shared, lan_api, wan_api),
                    name="wancache.edge")

    group = FilterGroup("wancache")
    group.add_filter(
        "frontend", lambda: _FrontendFilter(shared, wan_api, lan_api))
    group.add_filter("render", lambda: _RenderFilter(shared))
    group.connect("blocks", "frontend", "render")
    placement = group.place({"frontend": ["client00"],
                             "render": ["client00"]})
    runtime = DataCutterRuntime(cluster, protocol=config.protocol)
    app = runtime.instantiate(group, placement)

    latencies: List[float] = []
    results: Dict[str, float] = {}

    def client():
        yield shared.ready
        t0 = sim.now
        for q in range(config.n_queries):
            done = sim.event()
            shared.completions[q] = done
            submitted = sim.now
            shared.queries.put_nowait((q, config.query_blocks(q), submitted))
            yield done
            latencies.append(sim.now - submitted)
        results["elapsed"] = sim.now - t0
        shared.queries.put_nowait(None)

    def main():
        yield from app.start()
        sim.process(client(), name="wancache.client")
        yield from app.run_uow(payload=None)
        yield from app.finalize()

    done = sim.process(main(), name="wancache.main")
    sim.run(done)
    return WanQueryResult(
        config=config,
        latencies=latencies,
        elapsed=results["elapsed"],
        hits=cache.hits,
        misses=cache.misses,
        insertions=cache.insertions,
    )


# ---------------------------------------------------------------------------
# bulk scenario
# ---------------------------------------------------------------------------


@dataclass
class WanBulkConfig:
    """Knobs of the bulk striped-transfer driver (no cache tier)."""

    protocol: str = "socketvia"
    stripe_width: int = 1
    n_blocks: int = 64
    block_bytes: int = 256 * 1024
    storage_hosts: int = 4
    read_ns_per_byte: float = 0.0
    seed: int = 13


@dataclass
class WanBulkResult:
    """One bulk transfer: wall clock on the simulated clock plus the
    order-sensitive reassembly digest."""

    config: WanBulkConfig
    elapsed: float
    digest: str

    @property
    def total_bytes(self) -> int:
        return self.config.n_blocks * self.config.block_bytes

    @property
    def mb_per_s(self) -> float:
        return self.total_bytes / self.elapsed / 1e6


def run_wan_bulk(config: WanBulkConfig,
                 cluster: Optional[Cluster] = None) -> WanBulkResult:
    """One striped bulk read of the whole block space across the WAN."""
    cluster = cluster or wan_topology(storage_hosts=config.storage_hosts,
                                      seed=config.seed)
    sim = cluster.sim
    wan_api = _wan_api(cluster, config.protocol)
    for i in range(config.storage_hosts):
        sim.process(
            stripe_server(wan_api, f"store{i:02d}", WAN_PORT,
                          read_ns_per_byte=config.read_ns_per_byte),
            name=f"wanbulk.store{i:02d}")
    out: Dict[str, object] = {}

    def client():
        stream = yield from StripedStream.open(
            wan_api, "client00",
            _stripe_addresses(config.stripe_width, config.storage_hosts))
        t0 = sim.now
        payloads = yield from stream.read_blocks(
            list(range(config.n_blocks)), config.block_bytes)
        out["elapsed"] = sim.now - t0
        out["digest"] = reassembly_digest(payloads)
        stream.close()

    done = sim.process(client(), name="wanbulk.client")
    sim.run(done)
    return WanBulkResult(config=config, elapsed=out["elapsed"],
                         digest=out["digest"])
