"""Unit tests for generator processes (repro.sim.process)."""

import pytest

from repro.errors import ProcessError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestBasicProcesses:
    def test_process_runs_and_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            yield sim.timeout(2)
            return "finished"

        p = sim.process(proc(sim))
        assert sim.run(p) == "finished"
        assert sim.now == 3

    def test_process_starts_at_current_time_not_reentrantly(self, sim):
        marks = []

        def proc(sim):
            marks.append(("start", sim.now))
            yield sim.timeout(1)

        sim.process(proc(sim))
        # Not yet started: start is delivered through the event loop.
        assert marks == []
        sim.run()
        assert marks == [("start", 0.0)]

    def test_process_receives_event_values(self, sim):
        got = []

        def proc(sim):
            v = yield sim.timeout(1, value="abc")
            got.append(v)

        sim.process(proc(sim))
        sim.run()
        assert got == ["abc"]

    def test_process_waiting_on_process(self, sim):
        def child(sim):
            yield sim.timeout(5)
            return 99

        def parent(sim):
            result = yield sim.process(child(sim))
            return result * 2

        p = sim.process(parent(sim))
        assert sim.run(p) == 198

    def test_yield_already_processed_event_resumes_same_timestep(self, sim):
        t = sim.timeout(1, "old")
        sim.run()

        def proc(sim):
            v = yield t
            return (v, sim.now)

        p = sim.process(proc(sim))
        assert sim.run(p) == ("old", 1.0)

    def test_yield_non_event_fails_process(self, sim):
        def proc(sim):
            yield 42

        p = sim.process(proc(sim))
        p.defused = True
        sim.run()
        assert not p.ok
        assert isinstance(p.exception, ProcessError)

    def test_yield_foreign_event_fails_process(self, sim):
        other = Simulator()

        def proc(sim):
            yield other.timeout(1)

        p = sim.process(proc(sim))
        p.defused = True
        sim.run()
        assert isinstance(p.exception, ProcessError)

    def test_exception_escaping_process_fails_it(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            raise ValueError("died")

        p = sim.process(proc(sim))
        p.defused = True
        sim.run()
        assert isinstance(p.exception, ValueError)

    def test_unobserved_process_failure_crashes_run(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            raise ValueError("loud death")

        sim.process(proc(sim))
        with pytest.raises(ValueError, match="loud death"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(ProcessError):
            sim.process(lambda: None)

    def test_process_name(self, sim):
        def my_worker(sim):
            yield sim.timeout(1)

        p = sim.process(my_worker(sim), name="worker-0")
        assert p.name == "worker-0"
        sim.run()


class TestFailurePropagation:
    def test_failed_event_throws_into_waiting_process(self, sim):
        caught = []

        def proc(sim):
            ev = sim.event()
            sim.timeout(1).add_callback(lambda e: ev.fail(KeyError("k")))
            try:
                yield ev
            except KeyError as exc:
                caught.append(exc)

        sim.process(proc(sim))
        sim.run()
        assert len(caught) == 1

    def test_child_process_failure_propagates_to_parent(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise RuntimeError("child failed")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except RuntimeError:
                return "handled"

        p = sim.process(parent(sim))
        assert sim.run(p) == "handled"

