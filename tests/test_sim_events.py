"""Unit tests for the event primitives (repro.sim.events)."""

import pytest

from repro.errors import EventLifecycleError
from repro.sim import AllOf, AnyOf, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.state == "pending"

    def test_succeed_sets_value_and_schedules(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert not ev.processed
        sim.run()
        assert ev.processed
        assert ev.value == 42
        assert ev.ok

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        exc = RuntimeError("boom")
        ev.fail(exc)
        ev.defused = True
        sim.run()
        assert not ev.ok
        assert ev.exception is exc
        assert ev.value is exc

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(EventLifecycleError):
            ev.succeed()

    def test_succeed_after_fail_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("x"))
        ev.defused = True
        with pytest.raises(EventLifecycleError):
            ev.succeed()

    def test_fail_requires_exception_instance(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(EventLifecycleError):
            _ = ev.value
        with pytest.raises(EventLifecycleError):
            _ = ev.ok

    def test_unhandled_failure_crashes_simulation(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("unobserved"))
        with pytest.raises(RuntimeError, match="unobserved"):
            sim.run()

    def test_defused_failure_does_not_crash(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("quiet"))
        ev.defused = True
        sim.run()  # no raise


class TestCallbacks:
    def test_callbacks_run_in_registration_order(self, sim):
        order = []
        ev = sim.event()
        ev.add_callback(lambda e: order.append("a"))
        ev.add_callback(lambda e: order.append("b"))
        ev.succeed()
        sim.run()
        assert order == ["a", "b"]

    def test_add_callback_after_processed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        sim.run()
        with pytest.raises(EventLifecycleError):
            ev.add_callback(lambda e: None)

    def test_remove_callback(self, sim):
        hits = []
        cb = lambda e: hits.append(1)  # noqa: E731
        ev = sim.event()
        ev.add_callback(cb)
        ev.remove_callback(cb)
        ev.succeed()
        sim.run()
        assert hits == []

    def test_remove_unknown_callback_is_noop(self, sim):
        ev = sim.event()
        ev.remove_callback(lambda e: None)  # no raise


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        t = sim.timeout(2.5, value="hello")
        sim.run()
        assert sim.now == 2.5
        assert t.value == "hello"

    def test_zero_delay_timeout(self, sim):
        t = sim.timeout(0)
        sim.run()
        assert sim.now == 0.0
        assert t.processed

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_timeouts_ordered_by_time(self, sim):
        order = []
        sim.timeout(3).add_callback(lambda e: order.append(3))
        sim.timeout(1).add_callback(lambda e: order.append(1))
        sim.timeout(2).add_callback(lambda e: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_simultaneous_timeouts_fifo(self, sim):
        order = []
        for i in range(5):
            sim.timeout(1).add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestConditions:
    def test_all_of_waits_for_every_child(self, sim):
        a, b = sim.timeout(1, "a"), sim.timeout(2, "b")
        cond = sim.all_of([a, b])
        sim.run(cond)
        assert sim.now == 2
        assert list(cond.value.values()) == ["a", "b"]

    def test_any_of_fires_on_first_child(self, sim):
        a, b = sim.timeout(1, "a"), sim.timeout(2, "b")
        cond = sim.any_of([a, b])
        sim.run(cond)
        assert sim.now == 1
        assert cond.value == {a: "a"}

    def test_and_operator(self, sim):
        a, b = sim.timeout(1), sim.timeout(2)
        cond = a & b
        assert isinstance(cond, AllOf)
        sim.run(cond)
        assert sim.now == 2

    def test_or_operator(self, sim):
        a, b = sim.timeout(5), sim.timeout(2)
        cond = a | b
        assert isinstance(cond, AnyOf)
        sim.run(cond)
        assert sim.now == 2

    def test_empty_all_of_succeeds_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered
        sim.run()
        assert cond.value == {}

    def test_condition_with_already_processed_child(self, sim):
        a = sim.timeout(1, "early")
        sim.run()
        b = sim.timeout(1, "late")
        cond = sim.all_of([a, b])
        sim.run(cond)
        assert cond.value == {a: "early", b: "late"}

    def test_child_failure_fails_condition(self, sim):
        a = sim.timeout(10)
        b = sim.event()
        cond = sim.all_of([a, b])
        cond.defused = True
        b.fail(ValueError("child died"))
        sim.run(until=1)
        assert cond.triggered
        assert not cond.ok
        assert isinstance(cond.exception, ValueError)

    def test_children_must_share_simulator(self, sim):
        other = Simulator()
        with pytest.raises(ValueError):
            sim.all_of([sim.timeout(1), other.timeout(1)])

    def test_nested_conditions(self, sim):
        a, b, c = sim.timeout(1), sim.timeout(2), sim.timeout(3)
        cond = (a & b) | c
        sim.run(cond)
        assert sim.now == 2
