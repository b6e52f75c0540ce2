"""Fluid-flow machinery: mode resolution, the analytic pipeline
solver, and the processor-sharing FlowModel (repro.sim.flow)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, HostFault, injecting
from repro.sim import flow
from repro.sim.core import Simulator
from repro.sim.flow import (
    MODES,
    FlowModel,
    effective_sim_mode,
    fluid_active,
    resolve_sim_mode,
    simulation_mode,
    solve_pipeline,
)


@pytest.fixture(autouse=True)
def _clean_mode(monkeypatch):
    """Every test starts from the packet default: no override, no env."""
    monkeypatch.delenv("REPRO_SIM_MODE", raising=False)
    monkeypatch.setattr(flow, "_mode_override", None)


# ---------------------------------------------------------------------------
# mode resolution
# ---------------------------------------------------------------------------


class TestModeResolution:
    def test_default_is_packet(self):
        assert resolve_sim_mode() == "packet"
        assert effective_sim_mode() == "packet"
        assert not fluid_active()

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "fluid")
        with simulation_mode("fluid"):
            assert resolve_sim_mode("packet") == "packet"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "fluid")
        with simulation_mode("packet"):
            assert resolve_sim_mode() == "packet"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "fluid")
        assert resolve_sim_mode() == "fluid"
        assert fluid_active()

    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_valid(self, mode):
        assert resolve_sim_mode(mode) == mode

    def test_invalid_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown simulation mode"):
            resolve_sim_mode("quantum")
        with pytest.raises(ValueError, match="unknown simulation mode"):
            with simulation_mode("quantum"):
                pass
        for env in ("quantum", "auto"):
            monkeypatch.setenv("REPRO_SIM_MODE", env)
            with pytest.raises(ValueError, match="unknown simulation mode"):
                resolve_sim_mode()

    def test_context_manager_nests_and_restores(self):
        with simulation_mode("fluid"):
            assert resolve_sim_mode() == "fluid"
            with simulation_mode("packet"):
                assert resolve_sim_mode() == "packet"
            assert resolve_sim_mode() == "fluid"
        assert resolve_sim_mode() == "packet"

    def test_context_manager_none_leaves_ambient(self):
        with simulation_mode("fluid"), simulation_mode(None):
            assert resolve_sim_mode() == "fluid"

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with simulation_mode("fluid"):
                raise RuntimeError("boom")
        assert resolve_sim_mode() == "packet"


class TestFaultGating:
    def test_ambient_plan_forces_packet(self):
        plan = FaultPlan(name="t", seed=1,
                         hosts={"h": HostFault(crash_at=0.01,
                                               restart_at=0.03)})
        with simulation_mode("fluid"):
            with injecting(plan):
                assert not fluid_active()
                assert effective_sim_mode() == "packet"
            assert fluid_active()

    def test_empty_plan_does_not_gate(self):
        with simulation_mode("fluid"):
            with injecting(FaultPlan.empty()):
                assert fluid_active()


# ---------------------------------------------------------------------------
# the analytic pipeline solver
# ---------------------------------------------------------------------------


def _chain_times(snd, wire, rcv):
    """The per-unit event-chain reference: simulate the three-stage
    store-and-forward pipeline one unit at a time."""
    c1 = c2 = c3 = 0.0
    c2s, c3s = [], []
    for s, w, r in zip(snd, wire, rcv):
        c1 += s
        c2 = max(c1, c2) + w
        c2s.append(c2)
        c3 = max(c2, c3) + r
        c3s.append(c3)
    return c2s, c3s


class TestSolvePipeline:
    def test_empty_transfer(self):
        assert solve_pipeline([], [], []) == (0.0, 0.0)

    def test_single_unit(self):
        c2, c3 = solve_pipeline([1.0], [2.0], [0.5])
        assert c2 == 3.0
        assert c3 == 3.5

    def test_matches_segsim_flow_shop(self):
        np = pytest.importorskip("numpy")
        from repro.net.segsim import flow_shop_completion_times

        snd = [0.3, 0.3, 0.3, 0.1]
        wire = [0.5, 0.2, 0.7, 0.5]
        rcv = [0.1, 0.4, 0.1, 0.2]
        c = flow_shop_completion_times(list(zip(snd, wire, rcv)))
        c2, c3 = solve_pipeline(snd, wire, rcv)
        assert c2 == pytest.approx(c[-1, 1])
        assert c3 == pytest.approx(c[-1, 2])
        assert np.all(c >= 0)

    @given(units=st.lists(
        st.tuples(*[st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False, allow_infinity=False)] * 3),
        min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_unit_chain(self, units):
        snd, wire, rcv = zip(*units)
        c2s, c3s = _chain_times(snd, wire, rcv)
        c2, c3 = solve_pipeline(snd, wire, rcv)
        assert c2 == c2s[-1]
        assert c3 == c3s[-1]
        # Structural sanity: stages only ever add time.
        assert c3 >= c2 >= sum(wire) - 1e-12 or not any(wire)
        assert c2 >= sum(wire)
        assert c3 >= c2


# ---------------------------------------------------------------------------
# the processor-sharing FlowModel
# ---------------------------------------------------------------------------


class TestFlowModel:
    def test_single_flow_drains_at_line_rate(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []
        model.add(2.5, lambda: done.append(sim.now))
        sim.run_all()
        assert done == [2.5]
        assert model.active == 0
        assert model.drained == 1

    def test_two_equal_flows_share_the_link(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []
        model.add(1.0, lambda: done.append(("a", sim.now)))
        model.add(1.0, lambda: done.append(("b", sim.now)))
        sim.run_all()
        # Each drains at 1/2 -> both finish at 2.0; ties complete in
        # registration order.
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_staggered_arrival_integrates_elapsed_share(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = {}
        model.add(2.0, lambda: done.setdefault("a", sim.now))

        def late():
            yield sim.timeout(1.0)
            model.add(0.5, lambda: done.setdefault("b", sim.now))

        sim.process(late())
        sim.run_all()
        # a runs alone [0,1) (1.0 left), then shares: b's 0.5 drains at
        # t=2.0, a's remaining 0.5 finishes alone at t=2.5.
        assert done == {"b": 2.0, "a": 2.5}

    def test_zero_work_flow_completes_immediately(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []
        model.add(0.0, lambda: done.append(sim.now))
        sim.run_all()
        assert done == [0.0]

    def test_callback_may_register_follow_on_flow(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []

        def first_done():
            done.append(("first", sim.now))
            model.add(1.0, lambda: done.append(("second", sim.now)))

        model.add(1.0, first_done)
        sim.run_all()
        assert done == [("first", 1.0), ("second", 2.0)]
        assert model.drained == 2

    @given(works=st.lists(
        st.floats(min_value=0.001, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_property_total_drain_time_is_total_work(self, works):
        # Processor sharing is work-conserving: with all flows present
        # from t=0, the last completion lands at sum(work).
        sim = Simulator()
        model = FlowModel(sim)
        last = []
        for w in works:
            model.add(w, lambda: last.append(sim.now))
        sim.run_all()
        assert max(last) == pytest.approx(sum(works))
        assert model.drained == len(works)
