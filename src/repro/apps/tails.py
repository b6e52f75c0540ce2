"""Replicated query dispatch for tail latency (the ``tails`` scenario).

RepNet (PAPERS.md) recovers datacenter tail latency by replicating
work and taking the first finisher; Dean's hedged requests buy most of
that recovery at a fraction of the duplicate load by dispatching the
replica only once the primary has outlived a deadline.  This scenario
combines the two on the DataCutter layer (docs/TAILS.md):

* a **dispatcher** filter on the frontend host receives an open-loop
  Poisson query stream and places each query on the least-loaded
  worker copy (``scheduler.acquire_k`` over the demand-driven unacked
  buckets);
* with :class:`~repro.datacutter.scheduling.ReplicationPolicy` ``k > 1``
  it dispatches up to ``k-1`` more replicas to *distinct* copies —
  immediately when ``hedge_us == 0`` (pure first-finisher racing), or
  after ``hedge_us`` microseconds if the query is still undecided (the
  hedge);
* **worker** copies race their compute against a loss notification:
  the first :meth:`~repro.datacutter.runtime.ReplicaSet.complete` wins
  and every loser is retracted — queued replicas are skipped on
  dequeue, in-flight compute is torn down through the kernel's lazy
  ``Event.cancel``, and the stream-layer retraction guard guarantees a
  retracted unit never emits downstream;
* a **collector** filter back on the frontend timestamps each winning
  result: query latency is collector arrival minus scheduled arrival,
  so dispatch queueing, both transfers, and compute all count.

The measured story (the ``tails`` bench suite): under the ``straggler``
fault preset — duty-cycle delivery blackouts on one worker's inbound
link plus transient 8x compute brownouts on another — k=2 replication
cuts the TCP p999 by >=2x, while in the no-fault case the hedged
duplicates add <=1.15x executed work.  Conservation is exact:
``completed == dispatched - retracted``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.topology import Cluster
from repro.datacutter import DataCutterRuntime, Filter, FilterGroup
from repro.datacutter.buffers import DataBuffer
from repro.datacutter.runtime import ReplicaSet, UnitOfWork
from repro.datacutter.scheduling import ReplicationPolicy
from repro.errors import ExperimentError
from repro.sim import Event, Simulator
from repro.sim.stats import percentile

__all__ = [
    "DEFAULT_HEDGE_US",
    "TailsConfig",
    "TailsResult",
    "ReplicaBoard",
    "run_tails",
]

#: Default hedge deadline: ~2x the unloaded query service time, i.e.
#: only the slowest few percent of queries ever trigger a duplicate in
#: the no-fault case (that is what keeps the duplicate load small).
DEFAULT_HEDGE_US = 2000.0


@dataclass
class TailsConfig:
    """Experiment knobs for the replicated-dispatch scenario.

    The replication knobs (``k``, ``cancel``, ``hedge_us``) are the
    :class:`~repro.datacutter.scheduling.ReplicationPolicy` fields; the
    defaults dispatch unreplicated with the scenario's hedge deadline.
    """

    protocol: str = "socketvia"
    k: int = 1
    cancel: str = "lazy"
    hedge_us: float = DEFAULT_HEDGE_US
    n_workers: int = 6
    n_queries: int = 400
    #: Open-loop Poisson arrival rate (queries/second of simulated time).
    rate: float = 3200.0
    query_bytes: int = 8 * 1024
    result_bytes: int = 1024
    #: Per-byte worker compute: ~0.98 ms unloaded service per query.
    compute_ns_per_byte: float = 120.0
    max_outstanding: int = 8
    seed: int = 29

    def resolved_policy(self) -> ReplicationPolicy:
        """The replication knobs as a validated ReplicationPolicy."""
        return ReplicationPolicy(k=self.k, cancel=self.cancel,
                                 hedge_us=self.hedge_us)


class ReplicaBoard:
    """All the :class:`~repro.datacutter.runtime.ReplicaSet`\\ s of one
    run, plus the conservation ledger the bench claims audit."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.sets: Dict[int, ReplicaSet] = {}
        #: Fires once every opened unit is decided *and* the dispatcher
        #: has sealed the board (no more units coming).
        self.all_done = Event(sim)
        self._undecided = 0
        self._sealed = False
        #: Replicas retracted before their compute started (cheap kind).
        self.retracted_before_start = 0
        #: Replicas retracted during or after compute (the kind lazy
        #: cancellation exists to make cheap).
        self.retracted_started = 0
        self.hedges_sent = 0
        self.hedges_skipped = 0

    def open(self, uow: UnitOfWork) -> ReplicaSet:
        rs = ReplicaSet(self.sim, uow)
        self.sets[uow.uow_id] = rs
        self._undecided += 1
        rs.done.add_callback(self._on_done)
        return rs

    def seal(self) -> None:
        """No further units will be opened; fire ``all_done`` once the
        outstanding ones decide."""
        self._sealed = True
        self._check()

    def _on_done(self, _ev: Event) -> None:
        self._undecided -= 1
        self._check()

    def _check(self) -> None:
        if self._sealed and self._undecided == 0 \
                and not self.all_done.triggered:
            self.all_done.succeed()

    # -- retraction guards (repro.datacutter.streams) -----------------------

    def query_suppressed(self, uow_id: int) -> bool:
        """Dispatch-side guard: no replica of a decided (or retracted)
        unit may be placed on the wire."""
        rs = self.sets.get(uow_id)
        return rs is not None and rs.decided

    def result_suppressed(self, uow_id: int, copy_index: int) -> bool:
        """Worker-side guard: only the winner's result may emit."""
        rs = self.sets.get(uow_id)
        if rs is None:
            return False
        if rs.uow.retracted or copy_index in rs.retracted:
            return True
        return rs.winner is not None and rs.winner != copy_index

    def counts(self) -> Dict[str, int]:
        """Summed conservation counters over every replica set."""
        dispatched = completed = retracted = 0
        for rs in self.sets.values():
            c = rs.counts()
            dispatched += c["dispatched"]
            completed += c["completed"]
            retracted += c["retracted"]
        return {
            "dispatched": dispatched,
            "completed": completed,
            "retracted": retracted,
        }


class TailsDispatcher(Filter):
    """Open-loop frontend: arrivals are a precomputed schedule, so load
    is offered at the configured rate whatever the pipeline does.

    Dispatch and hedge deadlines run off one time-ordered agenda inside
    a single process — every send is serialized, so replica order (and
    therefore the kernel's first-finisher tie-break) is deterministic.
    """

    def __init__(self, config: TailsConfig, policy: ReplicationPolicy,
                 board: ReplicaBoard, arrivals: List[float]) -> None:
        self.config = config
        self.policy = policy
        self.board = board
        self.arrivals = arrivals

    def process(self, ctx):
        cfg, policy, board = self.config, self.policy, self.board
        sim = ctx.sim
        port = ctx.outputs["queries"]
        sched = port.scheduler
        hedge_s = policy.hedge_us * 1e-6
        # agenda entries: (time, tiebreak_seq, kind, qid); kind 0 is an
        # arrival, kind 1 a hedge deadline.
        agenda = [
            (t, qid, 0, qid) for qid, t in enumerate(self.arrivals, start=1)
        ]
        heapq.heapify(agenda)
        seq = len(self.arrivals) + 1

        while agenda:
            t, _s, kind, qid = heapq.heappop(agenda)
            if t > sim.now:
                yield sim.timeout(t - sim.now)
            if kind == 0:
                uow = UnitOfWork(uow_id=qid, submitted_at=t)
                rs = board.open(uow)
                want = policy.k if (policy.k > 1 and hedge_s == 0.0) else 1
                idxs = yield from sched.acquire_k(want)
                buf = DataBuffer(size=cfg.query_bytes, uow_id=qid)
                for i in idxs:
                    rs.add_replica(i)
                    yield from port.write_to(i, buf)
                if policy.k > 1 and hedge_s > 0.0:
                    heapq.heappush(agenda, (sim.now + hedge_s, seq, 1, qid))
                    seq += 1
            else:
                rs = board.sets[qid]
                if rs.decided:
                    board.hedges_skipped += 1
                    continue
                idxs = yield from sched.acquire_k(
                    policy.k - 1, exclude=rs.replicas
                )
                buf = DataBuffer(size=cfg.query_bytes, uow_id=qid)
                for i in idxs:
                    if rs.decided:
                        # Decided while acquire_k blocked on slots: the
                        # reservation is released unsent.
                        sched.cancel_reservation(i)
                        continue
                    rs.add_replica(i)
                    board.hedges_sent += 1
                    yield from port.write_to(i, buf)

        board.seal()
        if not board.all_done.triggered:
            yield board.all_done


class TailsWorker(Filter):
    """One transparent worker copy: compute each replica, racing the
    loss notification under lazy cancellation."""

    def __init__(self, config: TailsConfig, policy: ReplicationPolicy,
                 board: ReplicaBoard) -> None:
        self.config = config
        self.policy = policy
        self.board = board

    def init(self, ctx):
        ctx.state["won"] = 0
        ctx.state["busy"] = 0.0

    def process(self, ctx):
        cfg, policy, board = self.config, self.policy, self.board
        sim, host, me = ctx.sim, ctx.host, ctx.copy_index
        out = ctx.outputs["results"]
        seconds = host.compute_time(cfg.query_bytes, cfg.compute_ns_per_byte)
        lazy = policy.cancel == "lazy"
        while True:
            buf = yield from ctx.read("queries")
            if buf is None:
                return
            qid = buf.uow_id
            rs = board.sets.get(qid)
            if rs is None:
                raise ExperimentError(f"query {qid} has no replica set")
            if rs.decided or me in rs.retracted:
                # Retracted while queued (or while this copy's host was
                # down and the backlog replayed): skip without compute —
                # a retracted unit is never resurrected.
                board.retracted_before_start += 1
                continue
            req = host.cpu.request()
            if not req.processed:
                yield req
            start = sim.now
            if rs.decided or me in rs.retracted:
                # Lost while waiting for a core.
                host.cpu.release(req)
                board.retracted_before_start += 1
                continue
            factor = host.slowdown.factor(host)
            timer = sim.timeout(seconds * factor)
            if lazy:
                rs.arm(me, timer)
                yield sim.any_of([timer, rs.lose_event(me)])
            else:
                rs.started.add(me)
                yield timer
            host.cpu.release(req)
            rs.disarm(me)
            ctx.state["busy"] += sim.now - start
            finished = timer.processed and not timer.cancelled
            if finished and rs.complete(me):
                ctx.state["won"] += 1
                rbuf = DataBuffer(size=cfg.result_bytes, uow_id=qid,
                                  meta={"worker": me})
                yield from out.write(rbuf)
            else:
                # Cancelled mid-flight (lazy) or beaten at the finish
                # line; either way the winner's complete() has already
                # retracted this replica.
                board.retracted_started += 1


class TailsCollector(Filter):
    """Frontend sink: one result per query; stamps end-to-end latency."""

    def __init__(self, board: ReplicaBoard) -> None:
        self.board = board

    def init(self, ctx):
        ctx.state["latencies"] = []

    def process(self, ctx):
        while True:
            buf = yield from ctx.read("results")
            if buf is None:
                return
            rs = self.board.sets[buf.uow_id]
            lat = ctx.sim.now - rs.uow.submitted_at
            ctx.state["latencies"].append(lat)
            ctx.record("query_latency", lat)


@dataclass
class TailsResult:
    """Measured outcome of one replicated-dispatch run."""

    config: TailsConfig
    policy: ReplicationPolicy
    #: End-to-end query latencies (seconds), collector arrival order.
    latencies: List[float]
    elapsed: float
    #: Conservation ledger: ``completed == dispatched - retracted``,
    #: checked when the result is built.
    dispatched: int
    completed: int
    retracted: int
    retracted_before_start: int
    retracted_started: int
    hedges_sent: int
    hedges_skipped: int
    replication_clamped: int
    reservations_cancelled: int
    #: Total worker core-seconds actually executed (winner compute plus
    #: whatever losers burned before cancellation) — the denominator of
    #: the <=1.15x duplicate-load claim.
    work_executed: float
    sent_counts: List[int]
    won_counts: List[int]

    def __post_init__(self) -> None:
        if self.completed != self.dispatched - self.retracted:
            raise ExperimentError(
                f"conservation violated: completed={self.completed} != "
                f"dispatched={self.dispatched} - "
                f"retracted={self.retracted}"
            )

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the latency sample (seconds); the
        exact :func:`repro.sim.stats.percentile` the claims gate on."""
        return percentile(self.latencies, q)


def run_tails(config: TailsConfig) -> TailsResult:
    """Build the tails cluster, run the query schedule, measure."""
    policy = config.resolved_policy()
    if config.n_queries < 1:
        raise ExperimentError("n_queries must be >= 1")
    if config.rate <= 0:
        raise ExperimentError("rate must be > 0")

    cluster = Cluster(seed=config.seed)
    cluster.add_fabric("clan")
    cluster.add_host("frontend")
    worker_hosts = []
    for i in range(config.n_workers):
        host = cluster.add_host(f"tworker{i:02d}")
        worker_hosts.append(host.name)

    board = ReplicaBoard(cluster.sim)
    rng = random.Random(config.seed)
    arrivals: List[float] = []
    t = 0.0
    for _ in range(config.n_queries):
        t += rng.expovariate(config.rate)
        arrivals.append(t)

    group = FilterGroup("tails", default_policy="dd")
    group.add_filter(
        "dispatch", lambda: TailsDispatcher(config, policy, board, arrivals)
    )
    group.add_filter(
        "work", lambda: TailsWorker(config, policy, board),
        copies=config.n_workers,
    )
    group.add_filter("collect", lambda: TailsCollector(board))
    group.connect("queries", "dispatch", "work")
    group.connect("results", "work", "collect")
    placement = group.place({
        "dispatch": ["frontend"],
        "work": worker_hosts,
        "collect": ["frontend"],
    })

    runtime = DataCutterRuntime(
        cluster,
        protocol=config.protocol,
        max_outstanding=config.max_outstanding,
    )
    app = runtime.instantiate(group, placement)

    # Retraction guards: the dispatch port never places a replica of a
    # decided unit, and a worker's result port only passes the winner.
    app.copy("dispatch", 0).ctx.outputs["queries"].retraction = \
        board.query_suppressed
    for i in range(config.n_workers):
        app.copy("work", i).ctx.outputs["results"].retraction = \
            (lambda uid, idx=i: board.result_suppressed(uid, idx))

    out: Dict[str, float] = {}

    def main():
        yield from app.start()
        uow = yield from app.run_uow()
        out["elapsed"] = uow.elapsed
        yield from app.finalize()

    done = cluster.sim.process(main())
    cluster.sim.run(done)

    latencies = app.copy("collect", 0).ctx.state["latencies"]
    if len(latencies) != config.n_queries:
        raise ExperimentError(
            f"collected {len(latencies)} results for "
            f"{config.n_queries} queries"
        )
    sched = app.scheduler("dispatch", 0, "queries")
    counts = board.counts()
    busy = [
        app.copy("work", i).ctx.state["busy"]
        for i in range(config.n_workers)
    ]
    won = [
        app.copy("work", i).ctx.state["won"]
        for i in range(config.n_workers)
    ]
    return TailsResult(
        config=config,
        policy=policy,
        latencies=list(latencies),
        elapsed=out["elapsed"],
        dispatched=counts["dispatched"],
        completed=counts["completed"],
        retracted=counts["retracted"],
        retracted_before_start=board.retracted_before_start,
        retracted_started=board.retracted_started,
        hedges_sent=board.hedges_sent,
        hedges_skipped=board.hedges_skipped,
        replication_clamped=sched.replication_clamped,
        reservations_cancelled=sched.reservations_cancelled,
        work_executed=sum(busy),
        sent_counts=list(sched.sent_counts),
        won_counts=won,
    )
