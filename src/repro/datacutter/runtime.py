"""The DataCutter filter runtime.

Responsibilities (paper Section 4.1):

* instantiate a validated :class:`~repro.datacutter.group.FilterGroup`
  onto cluster hosts per a placement;
* "establish socket connections between filters placed on different
  hosts before starting the execution of the application query" — a
  full producer-copy x consumer-copy mesh per logical stream, over
  whichever protocol the :class:`~repro.sockets.factory.ProtocolAPI`
  provides (TCP or SocketVIA: the runtime is transport-agnostic, which
  is the paper's point);
* drive units of work: call every copy's ``process``, then broadcast
  end-of-work markers downstream;
* call ``init``/``finalize`` around the query stream.

Usage::

    runtime = DataCutterRuntime(cluster, protocol="socketvia")
    app = runtime.instantiate(group, placement)

    def main():
        yield from app.start()
        uow = yield from app.run_uow(payload=my_query)
        yield from app.finalize()

    cluster.sim.process(main())
    cluster.sim.run()

Units of work run sequentially (concurrent queries belong to separate
filter-group instances, as in the paper).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cluster.topology import Cluster
from repro.datacutter.filters import Filter, FilterContext, maybe_generator
from repro.datacutter.group import FilterGroup, Placement
from repro.datacutter.scheduling import (
    DEFAULT_MAX_OUTSTANDING,
    AdmissionQueue,
    WriteScheduler,
    make_scheduler,
)
from repro.datacutter.streams import InputPort, OutputPort
from repro.errors import DataCutterError
from repro.sim import Event, SeriesRecorder, Tally
from repro.sockets.factory import ProtocolAPI

__all__ = ["UnitOfWork", "ReplicaSet", "DataCutterRuntime", "AppInstance"]

#: First listener port used by filter-group instantiation.
BASE_PORT = 6000


@dataclass
class UnitOfWork:
    """One application query processed by the filter group."""

    uow_id: int
    payload: Any = None
    submitted_at: float = 0.0
    completed_at: Optional[float] = None
    #: Consumer-copy indexes this unit was replicated to, in dispatch
    #: order (empty for unreplicated units).
    replicas: Tuple[int, ...] = ()
    #: The replica that finished first, once one has.
    winner: Optional[int] = None
    #: True once the whole unit has been withdrawn (see :meth:`retract`).
    retracted: bool = False
    retracted_at: Optional[float] = None

    def retract(self, at: Optional[float] = None) -> bool:
        """Withdraw the unit: a retracted unit never emits downstream
        (output ports consult the retraction guard — see
        :class:`repro.datacutter.streams.OutputPort`).

        Retraction after completion is a **no-op** returning False: the
        unit's result already exists, so there is nothing to withdraw.
        Idempotent — a second retraction also returns False.
        """
        if self.completed_at is not None or self.retracted:
            return False
        self.retracted = True
        self.retracted_at = at
        return True

    @property
    def elapsed(self) -> float:
        """Makespan of the unit of work (raises mid-flight)."""
        if self.completed_at is None:
            raise DataCutterError(f"UOW {self.uow_id} not completed yet")
        return self.completed_at - self.submitted_at


class ReplicaSet:
    """First-finisher bookkeeping for one replicated unit of work.

    The :class:`ReplicationPolicy
    <repro.datacutter.scheduling.ReplicationPolicy>` lifecycle
    (docs/TAILS.md): the dispatcher reserves k distinct copies with
    ``scheduler.acquire_k``, records them here via :meth:`add_replica`,
    and sends the unit to each.  Workers :meth:`arm` their in-flight
    compute timer so the set can tear it down, and call
    :meth:`complete` when done — the **first** call wins (the kernel's
    deterministic ``(time, priority, seq)`` event order is the
    tie-break: equal finish times resolve by dispatch sequence, never
    by hash order or interleaving luck).  Completion retracts every
    loser: queued replicas are flagged so the worker skips them on
    dequeue, and in-flight compute is torn down with the kernel's lazy
    ``Event.cancel`` (an O(1) tombstone) plus a loss notification the
    worker races against its own timer.

    A replica retracted once stays retracted: its :meth:`complete` is
    refused, so a crashed copy replaying its backlog can never
    resurrect a unit the winner already settled.

    Conservation is auditable per set: ``len(replicas) ==
    (1 if winner is not None else 0) + len(retracted)`` once decided —
    summed over sets this is the tails suite's
    ``completed == dispatched − retracted`` claim.
    """

    __slots__ = ("sim", "uow", "replicas", "winner", "done", "started",
                 "retracted", "_inflight", "_lose")

    def __init__(self, sim, uow: UnitOfWork) -> None:
        self.sim = sim
        self.uow = uow
        self.replicas: List[int] = []
        self.winner: Optional[int] = None
        #: Succeeds with the winner index (or ``None`` on whole-unit
        #: retraction) when the unit is decided.
        self.done = Event(sim)
        #: Replicas that began compute (diagnostics: a retraction of a
        #: started replica is the expensive kind).
        self.started: set = set()
        #: Replica indexes withdrawn from the race.
        self.retracted: set = set()
        self._inflight: Dict[int, Event] = {}
        self._lose: Dict[int, Event] = {}

    @property
    def decided(self) -> bool:
        """True once a winner exists or the unit was retracted whole."""
        return self.winner is not None or self.uow.retracted

    def add_replica(self, idx: int) -> None:
        """Record one dispatched replica (slot already reserved)."""
        self.replicas.append(idx)
        self.uow.replicas = tuple(self.replicas)

    def lose_event(self, idx: int) -> Event:
        """The loss notification replica *idx* races its compute
        against (created lazily; succeeds at most once)."""
        ev = self._lose.get(idx)
        if ev is None:
            ev = self._lose[idx] = Event(self.sim)
        return ev

    def arm(self, idx: int, cancellable: Event) -> None:
        """Register replica *idx*'s in-flight compute event so a loss
        tears it down (lazy ``Event.cancel``)."""
        self.started.add(idx)
        self._inflight[idx] = cancellable

    def disarm(self, idx: int) -> None:
        self._inflight.pop(idx, None)

    def complete(self, idx: int) -> bool:
        """Replica *idx* finished.  Returns True exactly once per unit
        — for the first finisher — and retracts every other replica.
        Refused (False) for losers, late finishers, retracted replicas
        and retracted units."""
        if self.winner is not None or self.uow.retracted:
            return False
        if idx in self.retracted:
            return False
        self.winner = idx
        self.uow.winner = idx
        self.uow.completed_at = self.sim.now
        self.done.succeed(idx)
        for j in self.replicas:
            if j != idx:
                self._retract_replica(j)
        return True

    def retract(self, idx: Optional[int] = None) -> bool:
        """Withdraw replica *idx*, or with ``idx=None`` the whole unit
        (every replica plus the unit itself).  After a completion both
        forms are no-ops returning False."""
        if idx is None:
            if not self.uow.retract(at=self.sim.now):
                return False
            for j in self.replicas:
                self._retract_replica(j)
            if not self.done.triggered:
                self.done.succeed(None)
            return True
        if idx == self.winner:
            return False
        return self._retract_replica(idx)

    def _retract_replica(self, idx: int) -> bool:
        if idx in self.retracted:
            return False
        self.retracted.add(idx)
        ev = self._inflight.pop(idx, None)
        if ev is not None and ev.triggered and not ev.processed:
            ev.cancel()  # lazy kernel tombstone (PR 3): O(1), no wakeup
        lose = self._lose.get(idx)
        if lose is not None and not lose.triggered:
            lose.succeed("retracted")
        return True

    def counts(self) -> Dict[str, int]:
        """``{dispatched, completed, retracted}`` for this set."""
        return {
            "dispatched": len(self.replicas),
            "completed": 1 if self.winner is not None else 0,
            "retracted": len(self.retracted),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ReplicaSet uow={self.uow.uow_id} replicas={self.replicas} "
                f"winner={self.winner} retracted={sorted(self.retracted)}>")


@dataclass
class _Copy:
    """One transparent copy: the filter object and its context."""

    filter_name: str
    index: int
    filter: Filter
    ctx: FilterContext


class DataCutterRuntime:
    """Factory of :class:`AppInstance` objects on one cluster."""

    _port_counter = itertools.count(BASE_PORT)

    def __init__(
        self,
        cluster: Cluster,
        protocol: str = "socketvia",
        max_outstanding: int = DEFAULT_MAX_OUTSTANDING,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.api = ProtocolAPI(cluster, protocol)
        self.max_outstanding = max_outstanding

    def instantiate(self, group: FilterGroup, placement: Placement) -> "AppInstance":
        """Validate the group and build (but do not start) an instance."""
        group.validate()
        return AppInstance(self, group, placement)


class AppInstance:
    """A placed, connectable, runnable filter group."""

    def __init__(
        self,
        runtime: DataCutterRuntime,
        group: FilterGroup,
        placement: Placement,
    ) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.group = group
        self.placement = placement
        self.metrics: Dict[str, Tally] = {}
        self.series: Dict[str, SeriesRecorder] = {}
        self._uow_counter = itertools.count(1)
        self.started = False
        self._copies: Dict[Tuple[str, int], _Copy] = {}
        self._schedulers: Dict[Tuple[str, int, str], WriteScheduler] = {}
        #: Named bounded ingress queues (open-loop admission control);
        #: see :meth:`admission_queue`.
        self.admission: Dict[str, AdmissionQueue] = {}
        self._build()

    # -- construction -----------------------------------------------------------------

    def _build(self) -> None:
        cluster = self.runtime.cluster
        for spec in self.group.filters.values():
            for idx in range(spec.copies):
                host = cluster.host(self.placement.host_for(spec.name, idx))
                filt = spec.factory()
                if not isinstance(filt, Filter):
                    raise DataCutterError(
                        f"factory for {spec.name!r} returned "
                        f"{type(filt).__name__}, not a Filter"
                    )
                ctx = FilterContext(self, spec.name, idx, host)
                self._copies[(spec.name, idx)] = _Copy(spec.name, idx, filt, ctx)

        # Ports per stream endpoint.
        for stream in self.group.streams:
            producer = self.group.filters[stream.producer]
            consumer = self.group.filters[stream.consumer]
            policy = self.group.policy_for(stream.producer)
            for i in range(producer.copies):
                sched = make_scheduler(
                    policy,
                    self.sim,
                    consumer.copies,
                    max_outstanding=self.runtime.max_outstanding,
                )
                self._schedulers[(stream.producer, i, stream.name)] = sched
                port = OutputPort(self.sim, f"{stream.name}[{i}]", sched)
                self._copies[(stream.producer, i)].ctx.outputs[stream.name] = port
            for j in range(consumer.copies):
                port = InputPort(
                    self.sim, f"{stream.name}->[{j}]", producer.copies
                )
                self._copies[(stream.consumer, j)].ctx.inputs[stream.name] = port

    # -- introspection ------------------------------------------------------------------

    def copy(self, filter_name: str, index: int = 0) -> _Copy:
        """Look up a transparent copy."""
        try:
            return self._copies[(filter_name, index)]
        except KeyError:
            raise DataCutterError(
                f"no copy {filter_name!r}[{index}]"
            ) from None

    def scheduler(self, producer: str, copy: int, stream: str) -> WriteScheduler:
        """The write scheduler of one producer copy on one stream."""
        try:
            return self._schedulers[(producer, copy, stream)]
        except KeyError:
            raise DataCutterError(
                f"no scheduler for {producer!r}[{copy}] on {stream!r}"
            ) from None

    def admission_queue(self, name: str, capacity: int) -> AdmissionQueue:
        """Create and register a bounded ingress queue on this instance.

        Admission control for open-loop workloads (repro.apps.serve):
        an external arrival process ``offer()``\\ s items; a filter
        drains them with ``yield from queue.get()`` and treats ``None``
        as end-of-stream.  Offers beyond *capacity* are refused and
        counted — see :class:`~repro.datacutter.scheduling.AdmissionQueue`.
        """
        if name in self.admission:
            raise DataCutterError(
                f"duplicate admission queue {name!r} on {self.group.name!r}"
            )
        queue = AdmissionQueue(
            self.sim, capacity, name=f"{self.group.name}.{name}"
        )
        self.admission[name] = queue
        return queue

    def record(self, metric: str, value: float) -> None:
        """Record a sample into an app-wide tally and time series."""
        tally = self.metrics.get(metric)
        if tally is None:
            tally = self.metrics[metric] = Tally(metric)
            self.series[metric] = SeriesRecorder(metric)
        tally.record(value)
        self.series[metric].record(self.sim.now, value)

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> Generator[Event, Any, None]:
        """Establish every stream connection, then run filter inits."""
        if self.started:
            raise DataCutterError("instance already started")
        setup_procs = []
        api = self.runtime.api

        for stream in self.group.streams:
            producer_spec = self.group.filters[stream.producer]
            consumer_spec = self.group.filters[stream.consumer]
            for j in range(consumer_spec.copies):
                consumer_copy = self._copies[(stream.consumer, j)]
                port_no = next(DataCutterRuntime._port_counter)
                listener = api.listen(consumer_copy.ctx.host, port_no)
                in_port = consumer_copy.ctx.inputs[stream.name]

                def acceptor(listener=listener, in_port=in_port,
                             n=producer_spec.copies):
                    for k in range(n):
                        sock = yield from listener.accept()
                        in_port.attach(k, sock)

                setup_procs.append(self.sim.process(
                    acceptor(), name=f"accept.{stream.name}[{j}]"
                ))

                for i in range(producer_spec.copies):
                    producer_copy = self._copies[(stream.producer, i)]
                    out_port = producer_copy.ctx.outputs[stream.name]

                    def connector(host=producer_copy.ctx.host,
                                  dst=(consumer_copy.ctx.host.name, port_no),
                                  out_port=out_port, j=j):
                        sock = api.socket(host)
                        yield from sock.connect(dst)
                        out_port.attach(j, sock)

                    setup_procs.append(self.sim.process(
                        connector(), name=f"connect.{stream.name}[{i}->{j}]"
                    ))

        if setup_procs:
            yield self.sim.all_of(setup_procs)
        for copy in self._copies.values():
            yield from maybe_generator(copy.filter.init(copy.ctx))
        self._wire_fault_handlers()
        self.started = True

    def _wire_fault_handlers(self) -> None:
        """Subscribe to the cluster's fault injector (if any): a host
        crash writes its filter copies out of every feeding scheduler;
        the restart writes them back in.  Demand-driven producers route
        around the dead copy immediately; round-robin drops it from the
        rotation (graceful degradation, paper Section 4.1 machinery
        under failure)."""
        faults = getattr(self.runtime.cluster, "faults", None)
        if faults is None:
            return
        for (name, idx), copy in self._copies.items():
            host_name = copy.ctx.host.name
            faults.on_crash(
                host_name,
                lambda n=name, i=idx: self.mark_copy_dead(n, i),
            )
            faults.on_restart(
                host_name,
                lambda n=name, i=idx: self.mark_copy_alive(n, i),
            )

    # -- graceful degradation ------------------------------------------------------------

    def _schedulers_feeding(self, filter_name: str):
        """Every producer-side scheduler that routes buffers to copies
        of *filter_name*."""
        for stream in self.group.streams:
            if stream.consumer != filter_name:
                continue
            producer = self.group.filters[stream.producer]
            for i in range(producer.copies):
                yield self._schedulers[(stream.producer, i, stream.name)]

    def mark_copy_dead(
        self, filter_name: str, index: int, drop_outstanding: bool = False
    ) -> None:
        """Stop routing buffers to copy ``filter_name[index]`` on every
        stream feeding it (its host crashed)."""
        for sched in self._schedulers_feeding(filter_name):
            sched.mark_dead(index, drop_outstanding=drop_outstanding)
        tracer = self.runtime.cluster.tracer
        if tracer.enabled:
            tracer.emit(
                "faults.reschedule", group=self.group.name,
                filter=filter_name, copy=index, action="dead",
            )

    def mark_copy_alive(self, filter_name: str, index: int) -> None:
        """Resume routing to copy ``filter_name[index]`` (host restart;
        the transport layer has already replayed its backlog)."""
        for sched in self._schedulers_feeding(filter_name):
            sched.mark_alive(index)
        tracer = self.runtime.cluster.tracer
        if tracer.enabled:
            tracer.emit(
                "faults.reschedule", group=self.group.name,
                filter=filter_name, copy=index, action="alive",
            )

    def run_uow(self, payload: Any = None) -> Generator[Event, Any, UnitOfWork]:
        """Run one unit of work through every filter copy; returns it
        completed.  UOWs are strictly sequential per instance."""
        if not self.started:
            raise DataCutterError("start() the instance before run_uow()")
        uow = UnitOfWork(
            uow_id=next(self._uow_counter),
            payload=payload,
            submitted_at=self.sim.now,
        )
        tracer = self.runtime.cluster.tracer
        if tracer.enabled:
            tracer.emit(
                "datacutter.uow", uow=uow.uow_id, group=self.group.name,
                phase="submit",
            )
        procs: List[Event] = []
        for copy in self._copies.values():
            copy.ctx.uow = uow
            procs.append(self.sim.process(
                self._copy_proc(copy, uow),
                name=f"{self.group.name}.{copy.ctx.name}.uow{uow.uow_id}",
            ))
        yield self.sim.all_of(procs)
        uow.completed_at = self.sim.now
        if tracer.enabled:
            tracer.emit(
                "datacutter.uow", uow=uow.uow_id, group=self.group.name,
                phase="complete", elapsed=uow.elapsed,
            )
        return uow

    def _copy_proc(self, copy: _Copy, uow: UnitOfWork):
        yield from maybe_generator(copy.filter.process(copy.ctx))
        for port in copy.ctx.outputs.values():
            yield from port.send_eow(uow.uow_id)

    def finalize(self) -> Generator[Event, Any, None]:
        """Run filter finalizers and close all stream connections."""
        for copy in self._copies.values():
            yield from maybe_generator(copy.filter.finalize(copy.ctx))
        for copy in self._copies.values():
            for port in copy.ctx.outputs.values():
                port.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<AppInstance {self.group.name!r} copies={len(self._copies)} "
            f"started={self.started}>"
        )
