"""The visualization-server application (paper Figure 5).

A 4-stage pipeline — data repository -> clip -> subsample -> viz — with
three transparent copies of each stage except the final visualization
filter.  The dataset (a 16 MB image) is declustered round-robin across
the repository copies; every query is resolved to its block set, the
owning repository copies emit one data buffer per block, the middle
stages process-and-forward, and the visualization filter assembles
query results and records per-query latency.

A *client* process submits queries either **paced** (at the workload's
arrival times — the Figure 7/8 guarantee experiments, where partial
updates are probed while complete updates stream at the guaranteed
rate) or **closed-loop** (each query submitted when the previous
completes — the Figure 9 response-time experiments).

Everything configurable by the experiments is in
:class:`VizServerConfig`; :func:`run_vizserver` is the one-call entry
point used by the benchmarks and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.dataset import ImageDataset, PAPER_IMAGE_BYTES
from repro.apps.queries import Workload
from repro.cluster.topology import Cluster, paper_testbed
from repro.datacutter import DataCutterRuntime, Filter, FilterGroup
from repro.errors import ExperimentError
from repro.sim import Event, Simulator, Store, Tally

__all__ = ["VizServerConfig", "VizServerResult", "VizServerApp", "run_vizserver"]


@dataclass
class VizServerConfig:
    """Experiment knobs for the visualization pipeline."""

    protocol: str = "socketvia"
    block_bytes: int = 16 * 1024
    image_bytes: int = PAPER_IMAGE_BYTES
    copies: int = 3
    #: Per-stage computation (clip, subsample, viz); 0 disables — the
    #: paper's "No Computation" variants.  18 ns/byte is the measured
    #: Virtual Microscope cost.
    compute_ns_per_byte: float = 0.0
    policy: str = "dd"
    max_outstanding: int = 2
    closed_loop: bool = False
    seed: int = 11

    def dataset(self) -> ImageDataset:
        return ImageDataset.with_block_bytes(self.image_bytes, self.block_bytes)


@dataclass
class _SharedState:
    """Objects the filters and the client process share."""

    config: VizServerConfig
    dataset: ImageDataset
    #: Per-repository-copy queue of (query, submit_time); None = done.
    repo_queues: List[Store] = field(default_factory=list)
    #: query_id -> completion event (fired by the viz filter).
    completions: Dict[int, Event] = field(default_factory=dict)
    submit_times: Dict[int, float] = field(default_factory=dict)


class RepositoryFilter(Filter):
    """Emits the blocks this copy owns for each submitted query."""

    def __init__(self, shared: _SharedState) -> None:
        self.shared = shared

    def process(self, ctx):
        cfg = self.shared.config
        dataset = self.shared.dataset
        queue = self.shared.repo_queues[ctx.copy_index]
        while True:
            item = yield queue.get()
            if item is None:
                return
            query, submit_time = item
            mine = [
                b for b in query.blocks
                if dataset.copy_for_block(b, cfg.copies) == ctx.copy_index
            ]
            for block_id in mine:
                yield from ctx.write_new(
                    dataset.block_bytes,
                    block=block_id,
                    query_id=query.query_id,
                    query_kind=query.kind,
                    chunks_total=query.n_blocks,
                    submitted=submit_time,
                )


class StageFilter(Filter):
    """A processing stage (clip / subsample): compute and forward."""

    def __init__(self, shared: _SharedState) -> None:
        self.shared = shared

    def process(self, ctx):
        rate = self.shared.config.compute_ns_per_byte
        while True:
            buf = yield from ctx.read()
            if buf is None:
                return
            if rate > 0:
                yield from ctx.compute_bytes(buf.size, ns_per_byte=rate)
            yield from ctx.write(buf)


class VizFilter(Filter):
    """Final stage: assemble queries, record latency, signal the client."""

    def __init__(self, shared: _SharedState) -> None:
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
            ctx.record(f"latency.{buf.meta['query_kind']}", latency)
            ctx.record("latency.any", latency)
            if buf.meta["query_kind"] == "complete":
                ctx.record("complete.done_at", ctx.sim.now)
            done = self.shared.completions.get(qid)
            if done is not None and not done.triggered:
                done.succeed()


@dataclass
class VizServerResult:
    """Measured outcome of one vizserver run."""

    config: VizServerConfig
    elapsed: float
    metrics: Dict[str, Tally]
    #: Completion timestamps of complete-update queries.
    complete_done_at: List[float]

    def latency(self, kind: str) -> Tally:
        """Latency tally for one query kind ("partial", "complete"...)."""
        t = self.metrics.get(f"latency.{kind}")
        if t is None:
            raise ExperimentError(f"no {kind!r} queries were completed")
        return t

    @property
    def achieved_update_rate(self) -> float:
        """Completed full updates per second over the measured window."""
        done = self.complete_done_at
        if len(done) < 2:
            raise ExperimentError("need >= 2 complete updates for a rate")
        return (len(done) - 1) / (done[-1] - done[0])


class VizServerApp:
    """Builds and runs the pipeline on a cluster."""

    def __init__(self, cluster: Cluster, config: VizServerConfig) -> None:
        if len(cluster.hosts) < 3 * config.copies + 1:
            raise ExperimentError(
                f"need {3 * config.copies + 1} hosts, cluster has "
                f"{len(cluster.hosts)}"
            )
        self.cluster = cluster
        self.config = config
        self.shared = _SharedState(config=config, dataset=config.dataset())
        sim = cluster.sim
        self.shared.repo_queues = [Store(sim) for _ in range(config.copies)]

        group = FilterGroup("vizserver", default_policy=config.policy)
        group.add_filter("repo", lambda: RepositoryFilter(self.shared), copies=config.copies)
        group.add_filter("clip", lambda: StageFilter(self.shared), copies=config.copies)
        group.add_filter("subsample", lambda: StageFilter(self.shared), copies=config.copies)
        group.add_filter("viz", lambda: VizFilter(self.shared))
        group.connect("raw", "repo", "clip")
        group.connect("clipped", "clip", "subsample")
        group.connect("pixels", "subsample", "viz")
        self.group = group

        hosts = sorted(cluster.hosts)
        c = config.copies
        placement = group.place({
            "repo": hosts[0:c],
            "clip": hosts[c:2 * c],
            "subsample": hosts[2 * c:3 * c],
            "viz": [hosts[3 * c]],
        })
        runtime = DataCutterRuntime(
            cluster,
            protocol=config.protocol,
            max_outstanding=config.max_outstanding,
        )
        self.app = runtime.instantiate(group, placement)

    # -- client ---------------------------------------------------------------------

    def _client(self, workload: Workload):
        """Submit queries per the workload's discipline."""
        sim: Simulator = self.cluster.sim
        shared = self.shared
        start = sim.now
        prev_done: Optional[Event] = None
        for tq in workload:
            if shared.config.closed_loop or tq.after_previous:
                if prev_done is not None and not prev_done.processed:
                    yield prev_done
            if not shared.config.closed_loop:
                due = start + tq.at
                if due > sim.now:
                    yield sim.timeout(due - sim.now)
            done = sim.event()
            shared.completions[tq.query.query_id] = done
            shared.submit_times[tq.query.query_id] = sim.now
            for q in shared.repo_queues:
                q.put_nowait((tq.query, sim.now))
            prev_done = done
        if shared.config.closed_loop and prev_done is not None:
            yield prev_done
        for q in shared.repo_queues:
            q.put_nowait(None)

    # -- run -------------------------------------------------------------------------

    def run(self, workload: Workload) -> VizServerResult:
        """Execute the workload; returns measured results.

        Owns the whole simulation run (call once per cluster).
        """
        sim = self.cluster.sim
        results = {}

        def main():
            yield from self.app.start()
            t0 = sim.now
            self.cluster.sim.process(self._client(workload), name="viz.client")
            yield from self.app.run_uow(payload=workload)
            results["elapsed"] = sim.now - t0
            yield from self.app.finalize()

        done = sim.process(main(), name="viz.main")
        sim.run(done)
        series = self.app.series.get("complete.done_at")
        done_at = list(series.values) if series is not None else []
        return VizServerResult(
            config=self.config,
            elapsed=results["elapsed"],
            metrics=self.app.metrics,
            complete_done_at=done_at,
        )


def run_vizserver(
    config: VizServerConfig,
    workload: Workload,
    cluster: Optional[Cluster] = None,
) -> VizServerResult:
    """Build the paper testbed (unless given), run, return results."""
    cluster = cluster or paper_testbed(seed=config.seed)
    return VizServerApp(cluster, config).run(workload)


def measure_max_update_rate(config: VizServerConfig, frames: int = 4) -> float:
    """Saturation throughput: submit *frames* complete updates
    back-to-back and measure the completion rate (Figure 8's y-axis)."""
    from repro.apps.queries import TimedQuery, complete_update

    dataset = config.dataset()
    workload = Workload(
        [TimedQuery(0.0, complete_update(dataset)) for _ in range(frames)]
    )
    result = run_vizserver(config, workload)
    return result.achieved_update_rate
