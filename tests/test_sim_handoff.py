"""Same-instant hand-offs are exact.

While an unbudgeted ``Simulator.run()`` resumes a process that is its
event's only callback, ``Resource.request``, ``Store.get`` and
``Container.get`` may return their event already processed instead of
scheduling it (see ``Simulator._run_loop``).  ``run_all()`` is budgeted
and never hands off, so it is the oracle: random process programs must
log the same ``(time, process, step, value)`` sequence and process the
same number of events under both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Resource, Simulator, Store

DELAYS = st.sampled_from([0, 0, 1, 2])

OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("use"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("put_nowait"), st.integers(0, 9)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    # Race a one-shot gate against a timer through any_of (the shape
    # of the lazy-cancellation race in apps/tails.py).
    st.tuples(st.just("gate_or_timeout"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("cget"), st.integers(1, 2)),
    st.tuples(st.just("cput"), st.integers(1, 2)),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    # One-shot events several processes may wait on (list callbacks).
    st.tuples(st.just("wait_gate"), st.integers(0, 1)),
    st.tuples(st.just("open_gate"), st.integers(0, 1)),
)

#: A program: up to four process bodies; bodies 0 and 1 start at time 0,
#: a body may spawn any body after it.
PROGRAMS = st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=4)


def build(program):
    """A fresh simulator running *program*, and the log it appends to."""
    sim = Simulator()
    resources = [Resource(sim, 1), Resource(sim, 2)]
    # Store 0 is bounded (putters block), store 1 takes put_nowait.
    stores = [Store(sim, capacity=2), Store(sim)]
    credits = Container(sim, capacity=3, init=1)
    gates = [sim.event(), sim.event()]
    log = []
    spawned = [0]

    def body(index, name):
        for step, op in enumerate(program[index]):
            kind = op[0]
            value = None
            if kind == "timeout":
                yield sim.timeout(op[1])
            elif kind == "use":
                yield from resources[op[1]].use(op[2])
            elif kind == "hold":
                res = resources[op[1]]
                req = res.request()
                yield req
                yield sim.timeout(op[2])
                res.release(req)
            elif kind == "put":
                yield stores[op[1]].put(op[2])
            elif kind == "put_nowait":
                stores[1].put_nowait(op[1])
            elif kind == "get":
                value = yield stores[op[1]].get()
            elif kind == "gate_or_timeout":
                gate = gates[op[1]]
                timer = sim.timeout(op[2])
                yield sim.any_of([timer, gate])
                if timer.processed:
                    value = "timed out"
                else:
                    timer.cancel()
                    value = gate.value
            elif kind == "cget":
                yield credits.get(op[1])
            elif kind == "cput":
                yield credits.put(op[1])
            elif kind == "wait_gate":
                value = yield gates[op[1]]
            elif kind == "open_gate":
                if not gates[op[1]].triggered:
                    gates[op[1]].succeed(name)
            elif kind == "spawn" and op[1] > index and op[1] < len(program):
                spawned[0] += 1
                child = f"{name}/{op[1]}.{spawned[0]}"
                sim.process(body(op[1], child), name=child)
            log.append((sim.now, name, step, value))

    for index in range(min(2, len(program))):
        sim.process(body(index, f"p{index}"), name=f"p{index}")
    return sim, log


def run_program(program, mode):
    sim, log = build(program)
    if mode == "run":
        sim.run()
    elif mode == "run_until":
        for horizon in (0, 0.5, 1, 2.5, 4):
            sim.run(until=horizon)
        sim.run()
    else:
        sim.run_all()
    return log, sim.events_processed, sim.handoffs


class TestHandOffIsExact:
    @given(PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_run_matches_run_all(self, program):
        oracle, events, handoffs = run_program(program, "run_all")
        assert handoffs == 0
        for mode in ("run", "run_until"):
            log, n, _ = run_program(program, mode)
            assert log == oracle
            assert n == events

    def test_pinned_program_hands_off_and_matches(self):
        program = [
            [("use", 0, 1), ("put", 0, 5), ("get", 1), ("cget", 1),
             ("hold", 1, 0), ("spawn", 1), ("gate_or_timeout", 0, 2)],
            [("put_nowait", 7), ("timeout", 1), ("use", 0, 0), ("get", 0),
             ("cput", 2), ("cget", 2)],
        ]
        oracle, events, _ = run_program(program, "run_all")
        log, n, handoffs = run_program(program, "run")
        assert log == oracle
        assert n == events
        assert handoffs > 0

    def test_two_waiters_on_one_event(self):
        """The first waiter's free grant must not run ahead of the
        second waiter: with a list of callbacks there is no hand-off."""
        program = [
            [("spawn", 2), ("wait_gate", 0), ("use", 0, 0)],
            [("wait_gate", 0), ("timeout", 0)],
            [("open_gate", 0), ("timeout", 1)],
        ]
        oracle, events, _ = run_program(program, "run_all")
        log, n, _ = run_program(program, "run")
        assert log == oracle
        assert n == events
        assert [entry[1] for entry in oracle[-3:]] == ["p1", "p0", "p0/2.1"]


def _grant_seen_by(res, seen):
    """Process body: record whether a free grant came back processed."""
    req = res.request()
    seen.append(req.processed)
    yield req
    res.release(req)


class TestWhenNoHandOff:
    """Each case pairs the blocking condition with a control run that
    differs only in that condition and does hand off."""

    def test_under_step(self):
        def grants(drive):
            sim = Simulator()
            res, seen = Resource(sim, 1), []
            sim.process(_grant_seen_by(res, seen))
            drive(sim)
            # The start, the grant and the process's own completion.
            assert sim.events_processed == 3
            return seen, sim.handoffs

        def step_all(sim):
            for _ in range(3):
                sim.step()

        assert grants(step_all) == ([False], 0)
        assert grants(Simulator.run) == ([True], 1)

    def test_while_the_stop_event_is_dispatched(self):
        def grants(until_stop):
            sim = Simulator()
            res, seen = Resource(sim, 1), []
            stop = sim.event()

            def waiter():
                yield stop
                yield from _grant_seen_by(res, seen)

            def trigger():
                yield sim.timeout(1)
                stop.succeed()
                yield sim.timeout(1)

            sim.process(waiter())
            sim.process(trigger())
            sim.run(until=stop if until_stop else None)
            handoffs = sim.handoffs
            sim.run()
            return seen, handoffs

        assert grants(until_stop=True) == ([False], 0)
        assert grants(until_stop=False) == ([True], 1)

    def test_while_an_entry_is_due_now(self):
        def grants(tie):
            sim = Simulator()
            res, seen = Resource(sim, 1), []

            def first():
                yield sim.timeout(1)
                yield from _grant_seen_by(res, seen)

            def second():
                yield sim.timeout(1 if tie else 2)

            sim.process(first())
            sim.process(second())
            sim.run()
            return seen, sim.handoffs

        assert grants(tie=True) == ([False], 0)
        assert grants(tie=False) == ([True], 1)

    def test_for_a_plain_callback(self):
        sim = Simulator()
        res, states = Resource(sim, 1), []

        def on_timeout(_ev):
            req = res.request()
            states.append((req.triggered, req.processed))

        sim.timeout(1).add_callback(on_timeout)
        sim.run()
        assert states == [(True, False)]  # scheduled, not handed off
        assert sim.handoffs == 0
        assert sim.events_processed == 2

    def test_store_and_container_gets_hand_off_too(self):
        sim = Simulator()
        store, pool, seen = Store(sim), Container(sim, init=1), []
        store.put_nowait("item")

        def proc():
            get = store.get()
            take = pool.get(1)
            seen.append((get.processed, get.value, take.processed))
            yield get
            yield take

        sim.process(proc())
        sim.run()
        assert seen == [(True, "item", True)]
        assert sim.handoffs == 2
