"""The load-balancing application (paper Figure 6, Sections 5.2.3).

A data repository + load balancer distributes the blocks of a dataset
to three computation nodes, one of which may be slower — statically
(the Figure 10 "factor of heterogeneity" experiment) or dynamically
(the Figure 11 "probability of being slow" experiment).  The
distributor is a DataCutter producer whose write scheduler *is* the
load balancer: Round-Robin or Demand-Driven, with acknowledgment-based
outstanding-buffer tracking.

Measured quantities:

* **execution time** — the unit-of-work makespan (Figure 11's y-axis);
* **reaction time** — how long the balancer stays committed to a
  mistake: the slow consumer's mean ack delay beyond the fast
  consumers' (Figure 10's y-axis).  A block sent to a node that is
  ``n`` times slower is acknowledged roughly ``(n-1) * t_process(block)``
  later than a well-placed one, so the reaction time scales with the
  block size — 16 KB for TCP vs 2 KB for SocketVIA, the paper's 8x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.hetero import SlowdownModel
from repro.cluster.topology import Cluster
from repro.datacutter import DataCutterRuntime, Filter, FilterGroup
from repro.datacutter.scheduling import WriteScheduler
from repro.errors import ExperimentError
from repro.sim import Tally

__all__ = [
    "LoadBalanceConfig",
    "LoadBalanceResult",
    "run_loadbalance",
    "paper_block_size",
]

#: The paper's experimentally-determined perfect-pipelining block sizes.
PAPER_BLOCKS = {"tcp": 16 * 1024, "socketvia": 2 * 1024}


def paper_block_size(protocol: str) -> int:
    """16 KB for TCP, 2 KB for SocketVIA (Section 5.2.3)."""
    try:
        return PAPER_BLOCKS[protocol]
    except KeyError:
        raise ExperimentError(
            f"no paper block size for protocol {protocol!r}"
        ) from None


@dataclass
class LoadBalanceConfig:
    """Experiment knobs for the Figure 6 setup."""

    protocol: str = "socketvia"
    policy: str = "dd"
    block_bytes: int = 2 * 1024
    total_bytes: int = 16 * 1024 * 1024
    n_workers: int = 3
    #: Per-block computation at the workers.  The Figure 10/11 workers
    #: do the Virtual Microscope's work several times per block (that is
    #: also how slowness is emulated), so the default is heavier than
    #: the raw 18 ns/byte visualization cost.
    compute_ns_per_byte: float = 90.0
    #: worker index -> slowdown model (e.g. {2: StaticSlowdown(4)}).
    slow_workers: Dict[int, SlowdownModel] = field(default_factory=dict)
    max_outstanding: int = 2
    seed: int = 23

    @property
    def n_blocks(self) -> int:
        if self.total_bytes % self.block_bytes:
            raise ExperimentError(
                f"block size {self.block_bytes} does not divide "
                f"{self.total_bytes}"
            )
        return self.total_bytes // self.block_bytes


class DistributorFilter(Filter):
    """Repository + load balancer: emits every block of the dataset.

    The destination of each block is chosen by the output stream's
    write scheduler (RR or DD) — the balancing policy under test.
    """

    def __init__(self, config: LoadBalanceConfig) -> None:
        self.config = config

    def process(self, ctx):
        for i in range(self.config.n_blocks):
            yield from ctx.write_new(self.config.block_bytes, block=i)


class ComputeFilter(Filter):
    """Worker: process each block (slowdown applies via the host)."""

    def __init__(self, config: LoadBalanceConfig) -> None:
        self.config = config

    def init(self, ctx):
        ctx.state["processed"] = 0

    def process(self, ctx):
        rate = self.config.compute_ns_per_byte
        while True:
            buf = yield from ctx.read()
            if buf is None:
                return
            yield from ctx.compute_bytes(buf.size, ns_per_byte=rate)
            ctx.state["processed"] += 1


@dataclass
class LoadBalanceResult:
    """Measured outcome of one load-balancing run."""

    config: LoadBalanceConfig
    execution_time: float
    sent_counts: List[int]
    processed_counts: List[int]
    ack_delay: List[Tally]

    def reaction_time(self, slow_index: int) -> float:
        """Mean extra commitment to the slow worker: its mean ack delay
        minus the fast workers' mean ack delay."""
        if not 0 <= slow_index < len(self.ack_delay):
            raise ExperimentError(
                f"no worker {slow_index} (have {len(self.ack_delay)})"
            )
        fast = [
            t.mean for i, t in enumerate(self.ack_delay)
            if i != slow_index and t.count
        ]
        if not fast or not self.ack_delay[slow_index].count:
            raise ExperimentError("not enough acknowledgments to compare")
        return self.ack_delay[slow_index].mean - sum(fast) / len(fast)


def run_loadbalance(config: LoadBalanceConfig) -> LoadBalanceResult:
    """Build the Figure 6 cluster, run one dataset through, measure."""
    cluster = Cluster(seed=config.seed)
    cluster.add_fabric("clan")
    cluster.add_host("balancer")
    worker_hosts = []
    for i in range(config.n_workers):
        slowdown = config.slow_workers.get(i)
        host = cluster.add_host(f"worker{i:02d}", slowdown=slowdown)
        worker_hosts.append(host.name)

    group = FilterGroup("loadbalance", default_policy=config.policy)
    group.add_filter("lb", lambda: DistributorFilter(config))
    group.add_filter("work", lambda: ComputeFilter(config), copies=config.n_workers)
    group.connect("blocks", "lb", "work")
    placement = group.place({"lb": ["balancer"], "work": worker_hosts})

    runtime = DataCutterRuntime(
        cluster,
        protocol=config.protocol,
        max_outstanding=config.max_outstanding,
    )
    app = runtime.instantiate(group, placement)
    out = {}

    def main():
        yield from app.start()
        uow = yield from app.run_uow()
        out["elapsed"] = uow.elapsed
        yield from app.finalize()

    done = cluster.sim.process(main())
    cluster.sim.run(done)

    sched: WriteScheduler = app.scheduler("lb", 0, "blocks")
    processed = [
        app.copy("work", i).ctx.state["processed"]
        for i in range(config.n_workers)
    ]
    return LoadBalanceResult(
        config=config,
        execution_time=out["elapsed"],
        sent_counts=list(sched.sent_counts),
        processed_counts=processed,
        ack_delay=list(sched.ack_delay),
    )
