"""Unit tests for the Simulator event loop (repro.sim.core)."""

import pytest

from repro.errors import EventLifecycleError, StopSimulation
from repro.sim import Simulator, simulation_mode


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_initial_time_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_peek_empty_heap(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_event_time(self, sim):
        sim.timeout(5)
        sim.timeout(3)
        assert sim.peek() == 3

    def test_clock_never_goes_backwards(self, sim):
        times = []
        for d in [5, 1, 3, 2, 4]:
            sim.timeout(d).add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == sorted(times)

    def test_schedule_into_past_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(EventLifecycleError):
            sim.schedule(ev, delay=-0.1)


class TestRun:
    def test_run_until_time_sets_clock(self, sim):
        sim.timeout(10)
        sim.run(until=4)
        assert sim.now == 4

    def test_run_until_time_does_not_process_later_events(self, sim):
        hits = []
        sim.timeout(10).add_callback(lambda e: hits.append(1))
        sim.run(until=4)
        assert hits == []
        sim.run()
        assert hits == [1]

    def test_run_until_event_returns_value(self, sim):
        t = sim.timeout(2, value="payload")
        assert sim.run(t) == "payload"
        assert sim.now == 2

    def test_run_until_failed_event_raises(self, sim):
        ev = sim.event()
        sim.timeout(1).add_callback(lambda e: ev.fail(RuntimeError("bad")))
        with pytest.raises(RuntimeError, match="bad"):
            sim.run(ev)

    def test_run_until_already_processed_event(self, sim):
        t = sim.timeout(1, "x")
        sim.run()
        assert sim.run(t) == "x"

    def test_run_until_unreachable_event_raises(self, sim):
        ev = sim.event()  # never triggered
        sim.timeout(1)
        with pytest.raises(StopSimulation):
            sim.run(ev)

    def test_run_until_past_time_rejected(self, sim):
        sim.timeout(5)
        sim.run(until=5)
        with pytest.raises(ValueError):
            sim.run(until=3)

    def test_step_on_empty_heap_raises(self, sim):
        with pytest.raises(StopSimulation):
            sim.step()

    def test_run_all_counts_events(self, sim):
        for _ in range(7):
            sim.timeout(1)
        assert sim.run_all() == 7

    def test_run_all_safety_valve(self, sim):
        def forever(sim):
            while True:
                yield sim.timeout(1)

        sim.process(forever(sim))
        with pytest.raises(StopSimulation):
            sim.run_all(max_events=100)

    def test_run_all_budget_exactly_drains_queue(self, sim):
        for _ in range(3):
            sim.timeout(1)
        assert sim.run_all(max_events=3) == 3
        assert sim.peek() == float("inf")

    def test_run_all_budget_ignores_trailing_tombstones(self, sim):
        for _ in range(3):
            sim.timeout(1)
        sim.timeout(2).cancel()
        assert sim.run_all(max_events=3) == 3

    def test_run_all_budget_raises_with_live_event_pending(self, sim):
        for _ in range(4):
            sim.timeout(1)
        with pytest.raises(StopSimulation, match="max_events=3"):
            sim.run_all(max_events=3)
        assert sim.events_processed == 3


class TestStep:
    def test_step_skips_tombstones(self, sim):
        first = sim.timeout(1)
        sim.timeout(2, value="second")
        first.cancel()
        sim.step()
        assert sim.now == 2
        assert sim.events_processed == 1
        assert sim.peek() == float("inf")

    def test_step_on_all_cancelled_heap_raises(self, sim):
        for delay in (1, 2, 3):
            sim.timeout(delay).cancel()
        with pytest.raises(StopSimulation):
            sim.step()
        assert sim.now == 0
        assert sim.events_processed == 0
        assert len(sim._heap) == 0

    def test_step_propagates_unhandled_failure(self, sim):
        sim.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.step()
        assert sim.events_processed == 1

    def test_step_never_recycles_the_processed_event(self, sim):
        sim.timeout(1)
        sim.timeout(2)
        sim.step()
        assert sim._timeout_pool == []
        # The same unreferenced timeout shape is recycled by run().
        sim.run()
        assert len(sim._timeout_pool) == 1

    def test_step_driven_run_matches_run(self):
        def scenario():
            sim = Simulator()
            log = []

            def proc(name, period, n):
                for i in range(n):
                    yield sim.timeout(period)
                    log.append((sim.now, name, i))
                    if i == 2:
                        ev = sim.event()
                        sim.timeout(period / 2).add_callback(
                            lambda e, ev=ev: ev.succeed(name))
                        yield ev

            for name, period in (("a", 0.5), ("b", 0.25), ("c", 0.5)):
                sim.process(proc(name, period, 6))
            doomed = sim.timeout(1.0)
            doomed.cancel()
            return sim, log

        ran, ran_log = scenario()
        ran.run()
        stepped, stepped_log = scenario()
        steps = 0
        while True:
            try:
                stepped.step()
            except StopSimulation:
                break
            steps += 1
        assert stepped_log == ran_log
        assert stepped.now == ran.now
        assert steps == stepped.events_processed == ran.events_processed


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def proc(sim, name, period):
                for _ in range(10):
                    yield sim.timeout(period)
                    log.append((round(sim.now, 12), name))

            sim.process(proc(sim, "a", 0.3))
            sim.process(proc(sim, "b", 0.2))
            sim.process(proc(sim, "c", 0.3))  # ties with "a"
            sim.run()
            return log

        assert build_and_run() == build_and_run()


class TestSimulationMode:
    """Packet mode is the only mode: naming it changes nothing, and any
    other name is an error."""

    @staticmethod
    def _run():
        sim = Simulator()
        log = []

        def proc(sim):
            for _ in range(3):
                yield sim.timeout(1.5)
                log.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        return log, sim.events_processed

    def test_packet_is_a_no_op(self):
        outside = self._run()
        with simulation_mode("packet"):
            inside = self._run()
        assert inside == outside == ([1.5, 3.0, 4.5], outside[1])

    @pytest.mark.parametrize("mode", ["fluid", "auto", "Packet", ""])
    def test_any_other_mode_is_rejected(self, mode):
        with pytest.raises(ValueError, match=repr(mode)):
            simulation_mode(mode)
