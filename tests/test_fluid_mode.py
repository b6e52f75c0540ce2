"""End-to-end fluid-flow mode: bit-compatibility with packet mode,
event economy, fault forcing, ordering, and teardown edges.

These run the real stacks (TCP and SocketVIA) over real clusters via
the fluidbench drivers, pinned to one mode at a time with
:func:`repro.sim.flow.simulation_mode`.
"""

import pytest

from repro.bench.fluidbench import _fan_in, _measure, _one_shot_transfer
from repro.cluster.topology import Cluster
from repro.errors import SocketClosedError
from repro.faults.plan import FaultPlan, HostFault, injecting
from repro.sim.core import global_events_processed
from repro.sim.flow import simulation_mode
from repro.sockets.factory import ProtocolAPI

PORT = 5000

# Above both eligibility gates (TCP: 3*64KB; SocketVIA: 3*8KB) but
# small enough to keep the suite quick.
BULK = 256 * 1024


def _pair(protocol):
    cluster = Cluster(seed=1)
    cluster.add_fabric("clan")
    cluster.add_fabric("ethernet")
    cluster.add_hosts("node", 2)
    return cluster, ProtocolAPI(cluster, protocol)


def _run_counted(driver):
    """(value, events) for one driver run under the ambient mode."""
    before = global_events_processed()
    value = driver()
    return value, global_events_processed() - before


# ---------------------------------------------------------------------------
# bit-compatibility + event economy
# ---------------------------------------------------------------------------


class TestOneShotCollapse:
    @pytest.mark.parametrize("protocol,min_ratio", [
        ("tcp", 2.0),
        ("socketvia", 5.0),
    ])
    def test_fluid_matches_packet_with_fewer_events(self, protocol,
                                                    min_ratio):
        t_packet, t_fluid, ev_packet, ev_fluid = _measure(
            lambda: _one_shot_transfer(protocol, BULK))
        assert t_fluid == pytest.approx(t_packet, rel=1e-9)
        assert ev_fluid < ev_packet
        assert ev_packet / ev_fluid >= min_ratio

    def test_below_gate_size_is_untouched(self):
        # 16 KB is under every eligibility threshold, so fluid mode
        # must replay the packet execution event for event.
        runs = {}
        for mode in ("packet", "fluid"):
            with simulation_mode(mode):
                runs[mode] = _run_counted(
                    lambda: _one_shot_transfer("tcp", 16 * 1024,
                                               iterations=2))
        assert runs["fluid"] == runs["packet"]


class TestFanIn:
    def test_socketvia_fan_in_within_band(self):
        t_packet, t_fluid, ev_packet, ev_fluid = _measure(
            lambda: _fan_in("socketvia", BULK))
        assert abs(t_fluid - t_packet) / t_packet < 0.05
        assert ev_fluid < ev_packet

    def test_tcp_fan_in_banded_and_bounded(self):
        # The band's closest call: the receiver-kernel occupancy charge
        # recovers the rx serialization that fan-in exposes, landing
        # within the 5% band at the contract's >= 1 MiB sizes, and
        # stays optimistic (never slower than the packet truth).
        t_packet, t_fluid, _, _ = _measure(
            lambda: _fan_in("tcp", 1024 * 1024))
        assert 0.5 * t_packet <= t_fluid <= t_packet
        assert abs(t_fluid - t_packet) / t_packet <= 0.05


# ---------------------------------------------------------------------------
# fault plans force packet fidelity
# ---------------------------------------------------------------------------


class TestFaultForcing:
    @pytest.mark.parametrize("protocol", ["tcp", "socketvia"])
    def test_ambient_plan_forces_packet_execution(self, protocol):
        # The plan names a host that does not exist in the driver's
        # cluster, so it is behaviorally inert — but it is non-empty,
        # which must flip fluid mode off wholesale.  Equal event counts
        # prove the packet path ran, not merely that times agree.
        plan = FaultPlan(
            name="inert", seed=7,
            hosts={"node99": HostFault(crash_at=1.0, restart_at=2.0)})

        with simulation_mode("packet"):
            baseline = _run_counted(
                lambda: _one_shot_transfer(protocol, BULK))
        with simulation_mode("fluid"), injecting(plan):
            forced = _run_counted(
                lambda: _one_shot_transfer(protocol, BULK))
        assert forced == baseline

    def test_empty_plan_does_not_force(self):
        with simulation_mode("fluid"):
            free = _run_counted(lambda: _one_shot_transfer("tcp", BULK))
            with injecting(FaultPlan.empty()):
                gated = _run_counted(
                    lambda: _one_shot_transfer("tcp", BULK))
        assert gated == free


# ---------------------------------------------------------------------------
# ordering and teardown around a collapsed transfer
# ---------------------------------------------------------------------------


class TestOrderingEdges:
    @pytest.mark.parametrize("protocol", ["tcp", "socketvia"])
    def test_small_message_after_bulk_arrives_in_order(self, protocol):
        # The bulk send claims the whole window/credit allowance, so the
        # trailing 1 KB message cannot overtake the collapsed transfer.
        with simulation_mode("fluid"):
            cluster, api = _pair(protocol)
            sim = cluster.sim
            sizes = []

            def server():
                listener = api.listen("node01", PORT)
                sock = yield from listener.accept()
                for _ in range(2):
                    msg = yield from sock.recv_message()
                    sizes.append(msg.size)

            def client():
                sock = api.socket("node00")
                yield from sock.connect(("node01", PORT))
                yield from sock.send_message(BULK)
                yield from sock.send_message(1024)

            srv = sim.process(server())
            sim.process(client())
            sim.run(srv)
        assert sizes == [BULK, 1024]

    def test_close_after_fluid_send_delivers_then_eof(self):
        # close() immediately after a collapsed send exercises the FIN
        # deferral: the bulk payload must land intact before the peer
        # sees end-of-stream.
        with simulation_mode("fluid"):
            cluster, api = _pair("tcp")
            sim = cluster.sim
            outcome = {}

            def server():
                listener = api.listen("node01", PORT)
                sock = yield from listener.accept()
                msg = yield from sock.recv_message()
                outcome["size"] = msg.size
                try:
                    yield from sock.recv_message()
                except SocketClosedError:
                    outcome["eof"] = True

            def client():
                sock = api.socket("node00")
                yield from sock.connect(("node01", PORT))
                yield from sock.send_message(BULK)
                sock.close()

            srv = sim.process(server())
            sim.process(client())
            sim.run(srv)
        assert outcome == {"size": BULK, "eof": True}

    def test_close_timing_matches_packet_mode(self):
        def driver():
            cluster, api = _pair("tcp")
            sim = cluster.sim
            done = {}

            def server():
                listener = api.listen("node01", PORT)
                sock = yield from listener.accept()
                yield from sock.recv_message()
                try:
                    yield from sock.recv_message()
                except SocketClosedError:
                    done["eof_at"] = sim.now

            def client():
                sock = api.socket("node00")
                yield from sock.connect(("node01", PORT))
                yield from sock.send_message(BULK)
                sock.close()

            srv = sim.process(server())
            sim.process(client())
            sim.run(srv)
            return done["eof_at"]

        times = {}
        for mode in ("packet", "fluid"):
            with simulation_mode(mode):
                times[mode] = driver()
        assert times["fluid"] == pytest.approx(times["packet"], rel=1e-9)
