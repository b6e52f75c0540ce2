"""Latency / bandwidth micro-benchmarks (paper Section 5.1, Figure 4).

Three experiments, each on a fresh two-node cluster:

* :func:`ping_pong_latency` — sockets ping-pong; reports one-way
  latency (half the mean round trip), the Figure 4(a) measurement.
* :func:`streaming_bandwidth` — sockets one-way stream with several
  messages outstanding; reports receiver-observed goodput, the
  Figure 4(b) measurement.
* :func:`via_ping_pong_latency` / :func:`via_streaming_bandwidth` —
  the same two measurements against the raw VIA provider (descriptors
  and completion queues, no sockets layer), giving the "VIA" series.

All functions build their own simulator and are deterministic.

The module also declares the **kernel throughput suite**
(:func:`kernel_suite`, ``python -m repro bench run kernel``): six
workloads exercising the simulation kernel itself — timeout chains,
process ping-pong, store churn, a TCP-style retransmit timer wheel,
deadline-timer cancellation, and a huge-pending-set timer flood.
Event counts, peak heap sizes, and the ``pool_hits`` / ``compactions``
fast-path counters are deterministic (and gated exactly by the
comparator); the wall-clock columns measure the host and are gated
warn-only.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.records import ExperimentTable
from repro.bench.suites import Anchor, BenchSuite, Claim, Panel
from repro.cluster.topology import Cluster
from repro.net.calibration import VIA_CLAN
from repro.net.model import ProtocolCostModel
from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sockets.factory import ProtocolAPI
from repro.via.descriptors import Descriptor
from repro.via.nic import ViaNic

__all__ = [
    "ping_pong_latency",
    "streaming_bandwidth",
    "via_ping_pong_latency",
    "via_streaming_bandwidth",
    "KernelPoint",
    "kernel_timeout_chain",
    "kernel_process_pingpong",
    "kernel_store_churn",
    "kernel_timer_wheel",
    "kernel_timer_cancel",
    "kernel_timer_flood",
    "kernel_suite",
    "BENCH_SUITES",
]

PORT = 5000


def _two_nodes(seed: int = 1) -> Cluster:
    cluster = Cluster(seed=seed)
    cluster.add_fabric("clan")
    cluster.add_hosts("node", 2)
    return cluster


# ---------------------------------------------------------------------------
# Sockets-level benchmarks
# ---------------------------------------------------------------------------


def ping_pong_latency(
    protocol: str,
    msg_size: int,
    iterations: int = 16,
    warmup: int = 2,
    **api_options,
) -> float:
    """Mean one-way latency (seconds) of *msg_size*-byte messages."""
    cluster = _two_nodes()
    api = ProtocolAPI(cluster, protocol, **api_options)
    sim = cluster.sim
    samples: List[float] = []

    def server():
        listener = api.listen("node01", PORT)
        sock = yield from listener.accept()
        for _ in range(iterations + warmup):
            msg = yield from sock.recv_message()
            yield from sock.send_message(msg.size)

    def client():
        sock = api.socket("node00")
        yield from sock.connect(("node01", PORT))
        for i in range(iterations + warmup):
            t0 = sim.now
            yield from sock.send_message(msg_size)
            yield from sock.recv_message()
            if i >= warmup:
                samples.append((sim.now - t0) / 2.0)

    sim.process(server())
    done = sim.process(client())
    sim.run(done)
    return sum(samples) / len(samples)


def streaming_bandwidth(
    protocol: str,
    msg_size: int,
    n_messages: int = 64,
    warmup: int = 8,
    **api_options,
) -> float:
    """Receiver-observed goodput (bytes/s) streaming *n_messages*.

    The first *warmup* messages prime the pipeline and are excluded
    from the measured window.
    """
    cluster = _two_nodes()
    api = ProtocolAPI(cluster, protocol, **api_options)
    sim = cluster.sim
    marks: Dict[str, float] = {}

    def server():
        listener = api.listen("node01", PORT)
        sock = yield from listener.accept()
        for i in range(n_messages):
            yield from sock.recv_message()
            if i == warmup - 1:
                marks["start"] = sim.now
        marks["end"] = sim.now

    def client():
        sock = api.socket("node00")
        yield from sock.connect(("node01", PORT))
        for _ in range(n_messages):
            yield from sock.send_message(msg_size)

    srv = sim.process(server())
    sim.process(client())
    sim.run(srv)
    span = marks["end"] - marks["start"]
    return (n_messages - warmup) * msg_size / span


# ---------------------------------------------------------------------------
# Raw VIA benchmarks (descriptor-level, no sockets layer)
# ---------------------------------------------------------------------------


def _via_pair(cluster: Cluster, model: Optional[ProtocolCostModel] = None):
    """Two connected VIs with generous pre-posted receive pools."""
    model = model or VIA_CLAN
    nic0 = ViaNic(cluster.host("node00"), cluster.fabric("clan"), model=model)
    nic1 = ViaNic(cluster.host("node01"), cluster.fabric("clan"), model=model)
    return nic0, nic1


def via_ping_pong_latency(
    msg_size: int,
    iterations: int = 16,
    warmup: int = 2,
    model: Optional[ProtocolCostModel] = None,
) -> float:
    """Raw-VIA one-way latency (seconds): post_send / reap_recv loop."""
    cluster = _two_nodes()
    sim = cluster.sim
    model = model or VIA_CLAN
    nic0, nic1 = _via_pair(cluster, model)
    samples: List[float] = []
    total = iterations + warmup

    def post_pool(nic, vi, n):
        for _ in range(n):
            vi.post_recv(Descriptor(memory=nic.memory.register_now(max(msg_size, 64))))

    def server():
        listener = nic1.listen(7)
        vi = yield from listener.wait_connection()
        post_pool(nic1, vi, total + 1)
        send_mem = nic1.memory.register_now(max(msg_size, 64))
        for _ in range(total):
            yield from vi.reap_recv()
            yield from vi.post_send(Descriptor(memory=send_mem, length=msg_size))

    def client():
        vi = nic0.make_vi()
        post_pool(nic0, vi, total + 1)
        yield from nic0.connect(vi, "node01", 7)
        send_mem = nic0.memory.register_now(max(msg_size, 64))
        for i in range(total):
            t0 = sim.now
            yield from vi.post_send(Descriptor(memory=send_mem, length=msg_size))
            yield from vi.reap_recv()
            if i >= warmup:
                samples.append((sim.now - t0) / 2.0)

    sim.process(server())
    done = sim.process(client())
    sim.run(done)
    return sum(samples) / len(samples)


def via_streaming_bandwidth(
    msg_size: int,
    n_messages: int = 64,
    warmup: int = 8,
    model: Optional[ProtocolCostModel] = None,
) -> float:
    """Raw-VIA goodput (bytes/s); descriptors pre-posted for the whole run."""
    cluster = _two_nodes()
    sim = cluster.sim
    model = model or VIA_CLAN
    nic0, nic1 = _via_pair(cluster, model)
    marks: Dict[str, float] = {}
    # VIA segments at its MTU internally; a "message" here is one
    # descriptor, so cap at the model MTU like a real descriptor would.
    per_desc = min(msg_size, model.mtu)
    n_descs = -(-msg_size // per_desc) * n_messages

    def server():
        listener = nic1.listen(7)
        vi = yield from listener.wait_connection()
        for _ in range(n_descs):
            vi.post_recv(Descriptor(memory=nic1.memory.register_now(per_desc)))
        got = 0
        for i in range(n_descs):
            yield from vi.reap_recv()
            got += 1
            if got == warmup:
                marks["start"] = sim.now
        marks["end"] = sim.now

    def client():
        vi = nic0.make_vi()
        yield from nic0.connect(vi, "node01", 7)
        send_mem = nic0.memory.register_now(per_desc)
        for _ in range(n_descs):
            yield from vi.post_send(Descriptor(memory=send_mem, length=per_desc))

    srv = sim.process(server())
    sim.process(client())
    sim.run(srv)
    span = marks["end"] - marks["start"]
    return (n_descs - warmup) * per_desc / span


# ---------------------------------------------------------------------------
# Kernel throughput suite (`python -m repro bench run kernel`)
# ---------------------------------------------------------------------------
#
# Each workload builds a fresh Simulator, drives it to completion, and
# reports (events processed, the closed-form expected count, peak heap
# size, host wall time).  The expected count is part of the table so the
# suite's claims can assert exactness without re-deriving workload
# parameters: cancelled timers must contribute *zero* processed events.


@dataclass
class KernelPoint:
    """One kernel-workload measurement.

    ``pool_hits`` (events served from the timeout/event free lists) and
    ``compactions`` (tombstone sweeps triggered by cancellation churn)
    are deterministic kernel counters — they gate the fast paths
    exactly, like ``events`` and ``heap_peak``.
    """

    workload: str
    events: int
    expected: int
    heap_peak: int
    wall_s: float
    pool_hits: int = 0
    compactions: int = 0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def _point(workload: str, sim: Simulator, expected: int,
           wall: float) -> KernelPoint:
    """Package one finished workload run with its kernel counters."""
    return KernelPoint(
        workload, sim.events_processed, expected, sim.heap_peak, wall,
        pool_hits=sim.pool_hits, compactions=sim.compactions)


def kernel_timeout_chain(n: int = 200_000) -> KernelPoint:
    """One process yielding *n* back-to-back timeouts — the pure
    timeout-pool fast path (pop, fire, recycle; heap stays tiny)."""
    sim = Simulator()

    def proc(sim):
        t = sim.timeout
        for _ in range(n):
            yield t(1.0)

    Process(sim, proc(sim))
    t0 = _time.perf_counter()
    sim.run_all()
    wall = _time.perf_counter() - t0
    return _point("timeout_chain", sim, n + 2, wall)


def kernel_process_pingpong(rounds: int = 100_000) -> KernelPoint:
    """Two processes alternating on bare events — the single-waiter
    resume fast path (no callback lists, no intermediate objects)."""
    sim = Simulator()
    state: Dict[str, Event] = {}

    def ping(sim):
        for _ in range(rounds):
            ev = Event(sim)
            state["ball"] = ev
            yield ev

    def pong(sim):
        for _ in range(rounds):
            yield sim.timeout(0)
            state["ball"].succeed()

    Process(sim, ping(sim))
    Process(sim, pong(sim))
    t0 = _time.perf_counter()
    sim.run_all()
    wall = _time.perf_counter() - t0
    return _point("process_pingpong", sim, 2 * rounds + 4, wall)


def kernel_store_churn(n: int = 100_000, capacity: int = 16) -> KernelPoint:
    """Producer/consumer through a bounded Store — resource events,
    waiter queues, and the Event free list."""
    sim = Simulator()
    store = Store(sim, capacity=capacity)

    def producer(sim):
        for i in range(n):
            yield store.put(i)

    def consumer(sim):
        for _ in range(n):
            yield store.get()

    Process(sim, producer(sim))
    Process(sim, consumer(sim))
    t0 = _time.perf_counter()
    sim.run_all()
    wall = _time.perf_counter() - t0
    return _point("store_churn", sim, 2 * n + 4, wall)


def kernel_timer_wheel(
    conns: int = 20_000,
    rearms_per_tick: int = 1_000,
    ticks: int = 200,
    horizon: float = 100.0,
) -> KernelPoint:
    """TCP-style retransmit timers: a far-horizon timer per connection,
    re-armed (cancel + new timeout) in bulk every tick.  Almost every
    scheduled timer is cancelled before it can fire — the lazy-
    cancellation path.  Only the last-armed timer per
    connection, the tick timeouts, and process bookkeeping fire."""
    sim = Simulator()

    def noop(ev):
        pass

    timers: List[Optional[Event]] = [None] * conns

    def driver(sim):
        nxt = 0
        for _ in range(ticks):
            for _ in range(rearms_per_tick):
                old = timers[nxt]
                if old is not None and not old.processed:
                    old.cancel()
                t = sim.timeout(horizon)
                t.add_callback(noop)
                timers[nxt] = t
                nxt = (nxt + 1) % conns
            yield sim.timeout(1.0)

    Process(sim, driver(sim))
    t0 = _time.perf_counter()
    sim.run_all()
    wall = _time.perf_counter() - t0
    return _point("timer_wheel", sim, conns + ticks + 2, wall)


def kernel_timer_cancel(
    live: int = 2_048, cancels: int = 20_000, horizon: float = 1_000.0,
) -> KernelPoint:
    """A fixed population of deadline timers, repeatedly cancelled and
    replaced while references are held.  Exactly the *live* survivors
    fire; every cancelled timer must be dropped without a heap rebuild."""
    sim = Simulator()
    timers = [sim.timeout(horizon + i) for i in range(live)]
    t0 = _time.perf_counter()
    for k in range(cancels):
        j = k % live
        timers[j].cancel()
        timers[j] = sim.timeout(horizon + j)
    sim.run_all()
    wall = _time.perf_counter() - t0
    return _point("timer_cancel", sim, live, wall)


def kernel_timer_flood(n: int = 100_000, span: int = 512) -> KernelPoint:
    """*n* pre-armed timers spread across *span* simulated seconds,
    scheduled up front and drained to empty — the huge-pending-set
    regime, where every heap push/pop pays O(log n) on the full
    population.  Every timer fires (no cancellation), so expected == n
    exactly."""
    sim = Simulator()
    timeout = sim.timeout
    t0 = _time.perf_counter()
    for i in range(n):
        # A full-period stride through [0, span): every bucket is hit,
        # in a deterministic shuffled order.
        timeout(((i * 7919) % (span * 1000)) / 1000.0)
    sim.run_all()
    wall = _time.perf_counter() - t0
    return _point("timer_flood", sim, n, wall)


def kernel_suite(quick: bool = False) -> ExperimentTable:
    """Run the six kernel workloads and tabulate them.

    ``events``, ``expected_events``, ``heap_peak``, ``pool_hits`` and
    ``compactions`` are deterministic simulation outputs; ``wall_s`` /
    ``events_per_sec`` measure the host running the suite (the
    comparator gates them warn-only).
    """
    if quick:
        points = [
            kernel_timeout_chain(20_000),
            kernel_process_pingpong(10_000),
            kernel_store_churn(10_000),
            kernel_timer_wheel(conns=2_000, rearms_per_tick=100, ticks=50),
            kernel_timer_cancel(live=256, cancels=2_000),
            kernel_timer_flood(10_000, span=64),
        ]
    else:
        points = [
            kernel_timeout_chain(),
            kernel_process_pingpong(),
            kernel_store_churn(),
            kernel_timer_wheel(),
            kernel_timer_cancel(),
            kernel_timer_flood(100_000),
        ]
    table = ExperimentTable(
        "kernel",
        "Simulation-kernel throughput (events/sec per workload)",
        ["workload", "events", "expected_events", "heap_peak",
         "pool_hits", "compactions", "wall_s", "events_per_sec"],
    )
    total_ev = 0
    total_wall = 0.0
    for p in points:
        total_ev += p.events
        total_wall += p.wall_s
        table.add_row(p.workload, p.events, p.expected, p.heap_peak,
                      p.pool_hits, p.compactions,
                      round(p.wall_s, 4), round(p.events_per_sec, 1))
    table.add_row("TOTAL", total_ev, sum(p.expected for p in points),
                  max(p.heap_peak for p in points),
                  sum(p.pool_hits for p in points),
                  sum(p.compactions for p in points),
                  round(total_wall, 4),
                  round(total_ev / total_wall, 1) if total_wall > 0 else 0.0)
    table.add_note(
        "events/expected_events/heap_peak/pool_hits/compactions are "
        "deterministic; wall_s and events_per_sec measure the host and "
        "vary run to run.")
    return table


# ---------------------------------------------------------------------------
# The kernel suite: anchors, claims, and its one meta panel (not a paper
# figure; gates the event-loop fast path every figure runs on)
# ---------------------------------------------------------------------------


def _kernel_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    table = tables.get("kernel")
    if table is None:
        return []
    idx = table.column("workload").index("TOTAL")
    total_events = table.column("events")[idx]
    heap_peak = max(table.column("heap_peak"))
    eps = table.column("events_per_sec")[idx]
    pool_hits = table.column("pool_hits")[idx]
    compactions = table.column("compactions")[idx]
    return [
        Anchor("kernel_total_events",
               "useful events processed across all workloads "
               "(deterministic)",
               float(total_events), group="kernel", unit="events"),
        Anchor("kernel_heap_peak",
               "largest event heap any workload reached (deterministic)",
               float(heap_peak), group="kernel", unit="entries"),
        Anchor("kernel_pool_hits",
               "events served from the timeout/event free lists "
               "(deterministic)",
               float(pool_hits), group="kernel", unit="events"),
        Anchor("kernel_compactions",
               "tombstone compaction sweeps across all workloads "
               "(deterministic)",
               float(compactions), group="kernel", unit="sweeps"),
        Anchor("events_per_sec",
               "aggregate kernel throughput (host-dependent, gated "
               "warn-only)",
               float(eps), group="kernel", unit="events/s"),
    ]


def _kernel_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    table = tables.get("kernel")
    if table is None:
        return []
    names = table.column("workload")
    events = dict(zip(names, table.column("events")))
    expected = dict(zip(names, table.column("expected_events")))
    exact = all(events[w] == expected[w] for w in names)
    return [
        Claim("event_counts_exact",
              "every workload processed exactly its closed-form event "
              "count (cancelled timers contributed zero fired events)",
              exact, "kernel"),
        Claim("wheel_cancellation_lazy",
              "timer-wheel fires only the surviving timer per connection "
              "despite ~10x as many scheduled-then-cancelled",
              events.get("timer_wheel") == expected.get("timer_wheel"),
              "kernel"),
        Claim("cancelled_deadlines_never_fire",
              "deadline-cancel workload processed only its live "
              "survivors",
              events.get("timer_cancel") == expected.get("timer_cancel"),
              "kernel"),
    ]


BENCH_SUITES = (
    BenchSuite("kernel", "Simulation-kernel throughput micro-benchmarks",
               (Panel("kernel", run=kernel_suite),),
               _kernel_anchors, _kernel_claims),
)
