"""Unit tests for hosts, heterogeneity models, links and topology."""

import pytest

from repro.cluster import (
    Cluster,
    ConstantSpeed,
    Host,
    RandomSlowdown,
    StaticSlowdown,
    Switch,
    Transmission,
    paper_testbed,
)
from repro.errors import ClusterError, TopologyError
from repro.sim import Simulator


class TestHost:
    def test_compute_charges_scaled_time(self):
        sim = Simulator()
        host = Host(sim, "h", cores=1, slowdown=StaticSlowdown(3.0))
        done = []

        def job():
            yield from host.compute(2.0)
            done.append(sim.now)

        sim.process(job())
        sim.run()
        assert done == [6.0]

    def test_compute_bytes_default_rate_is_18ns(self):
        sim = Simulator()
        host = Host(sim, "h")
        assert host.compute_time(1024) == pytest.approx(1024 * 18e-9)

    def test_compute_bytes_custom_rate(self):
        sim = Simulator()
        host = Host(sim, "h")
        assert host.compute_time(1000, ns_per_byte=90) == pytest.approx(90e-6)

    def test_cores_limit_parallel_compute(self):
        sim = Simulator()
        host = Host(sim, "h", cores=2)
        ends = []

        def job(i):
            yield from host.compute(1.0)
            ends.append((i, sim.now))

        for i in range(4):
            sim.process(job(i))
        sim.run()
        assert [t for _, t in ends] == [1.0, 1.0, 2.0, 2.0]

    def test_nic_attachment(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.attach_nic("via", object())
        assert host.nic("via") is not None
        with pytest.raises(ClusterError):
            host.attach_nic("via", object())
        with pytest.raises(ClusterError):
            host.nic("missing")


class TestSlowdownModels:
    def test_constant_speed(self):
        assert ConstantSpeed().factor(None) == 1.0

    def test_static_slowdown(self):
        assert StaticSlowdown(4.0).factor(None) == 4.0

    def test_static_slowdown_validation(self):
        with pytest.raises(ValueError):
            StaticSlowdown(0.5)

    def test_random_slowdown_probability_extremes(self):
        sim = Simulator()
        host = Host(sim, "h")
        assert RandomSlowdown(8.0, 0.0).factor(host) == 1.0
        assert RandomSlowdown(8.0, 1.0).factor(host) == 8.0

    def test_random_slowdown_frequency(self):
        sim = Simulator()
        host = Host(sim, "h")
        model = RandomSlowdown(8.0, 0.3)
        slow = sum(model.factor(host) > 1 for _ in range(4000))
        assert 0.25 < slow / 4000 < 0.35

    def test_random_slowdown_deterministic_per_seed(self):
        def draw():
            sim = Simulator()
            host = Host(sim, "h")
            model = RandomSlowdown(8.0, 0.5)
            return [model.factor(host) for _ in range(50)]

        assert draw() == draw()

    def test_random_slowdown_validation(self):
        with pytest.raises(ValueError):
            RandomSlowdown(0.5, 0.5)
        with pytest.raises(ValueError):
            RandomSlowdown(2.0, 1.5)


class TestSwitch:
    def _one_switch(self):
        sim = Simulator()
        sw = Switch(sim, name="sw")
        sw.add_port("a")
        sw.add_port("b")
        return sim, sw

    def test_transmission_reaches_destination_inbox(self):
        sim, sw = self._one_switch()
        sw.port("a").uplink.send(
            Transmission(dst="b", service_time=1e-6, size=100)
        )
        sim.run()
        assert sw.port("b").inbox.size == 1
        # Cut-through: uplink and downlink overlap for one transmission.
        assert sim.now == pytest.approx(1e-6)

    def test_uplink_serializes_fan_out(self):
        sim, sw = self._one_switch()
        sw.add_port("c")
        for dst in ("b", "c"):
            sw.port("a").uplink.send(
                Transmission(dst=dst, service_time=1e-3, size=1)
            )
        sim.run()
        # Uplink serializes (0-1, 1-2 ms); cut-through downlinks finish
        # together with the uplink.
        assert sim.now == pytest.approx(2e-3)

    def test_downlink_serializes_fan_in(self):
        sim, sw = self._one_switch()
        sw.add_port("c")
        for src in ("a", "c"):
            sw.port(src).uplink.send(
                Transmission(dst="b", service_time=1e-3, size=1)
            )
        sim.run()
        # Both uplinks run in parallel (0-1 ms); the shared downlink
        # serializes: first delivery at 1 ms, second at 2 ms.
        assert sim.now == pytest.approx(2e-3)

    def test_propagation_does_not_occupy_wire(self):
        sim, sw = self._one_switch()
        arrivals = []
        for _ in range(2):
            sw.port("a").uplink.send(
                Transmission(
                    dst="b", service_time=1e-3, propagation=5e-3, size=1,
                    on_delivered=lambda tx: arrivals.append(sim.now),
                )
            )
        sim.run()
        # tx1: uplink 0-1 ms, + 5 ms propagation -> downlink done 6 ms;
        # tx2: uplink 1-2 ms, ready 7 ms; downlink frees at 6, so the
        # 1 ms service ends at 7 ms.
        assert arrivals == [pytest.approx(6e-3), pytest.approx(7e-3)]

    def test_unknown_port_raises(self):
        sim, sw = self._one_switch()
        with pytest.raises(TopologyError):
            sw.port("zzz")

    def test_utilization_accounting(self):
        sim, sw = self._one_switch()
        sw.port("a").uplink.send(Transmission(dst="b", service_time=1.0, size=9))
        sim.run()
        up = sw.port("a").uplink
        assert up.busy_time == pytest.approx(1.0)
        assert up.bytes_carried == 9
        assert up.utilization() == pytest.approx(1.0)


class TestCluster:
    def test_paper_testbed_shape(self):
        cluster = paper_testbed()
        assert len(cluster.hosts) == 16
        assert cluster.fabric_names == ["clan"]
        assert cluster.host("node07").cpu.capacity == 2

    def test_duplicate_host_rejected(self):
        cluster = Cluster()
        cluster.add_host("x")
        with pytest.raises(TopologyError):
            cluster.add_host("x")

    def test_duplicate_fabric_rejected(self):
        cluster = Cluster()
        cluster.add_fabric("f")
        with pytest.raises(TopologyError):
            cluster.add_fabric("f")

    def test_fabric_added_after_hosts_gets_ports(self):
        cluster = Cluster()
        cluster.add_host("a")
        cluster.add_fabric("f")
        assert cluster.port("f", "a") is not None

    def test_hosts_added_after_fabric_get_ports(self):
        cluster = Cluster()
        cluster.add_fabric("f")
        cluster.add_host("a")
        assert cluster.port("f", "a") is not None

    def test_unknown_host_lookup(self):
        with pytest.raises(TopologyError):
            Cluster().host("nope")

    def test_serving_topology_shape(self):
        from repro.cluster import serving_topology

        cluster = serving_topology(hosts=8)
        assert cluster.n_hosts == 8
        assert cluster.fabric_names == ["clan"]
        assert cluster.host_at(0).name == "host0000"
        assert cluster.host_at(7).name == "host0007"
        # Indexed lookup and the name map agree.
        for i in range(8):
            assert cluster.host_at(i) is cluster.host(f"host{i:04d}")

    def test_serving_topology_needs_two_hosts(self):
        from repro.cluster import serving_topology

        with pytest.raises(TopologyError):
            serving_topology(hosts=1)

    def test_host_at_out_of_range(self):
        from repro.cluster import serving_topology

        cluster = serving_topology(hosts=4)
        with pytest.raises(TopologyError):
            cluster.host_at(4)

    def test_per_host_rngs_are_independent_and_stable(self):
        c1 = paper_testbed(seed=3)
        c2 = paper_testbed(seed=3)
        a1 = c1.host("node00").rng.stream("x").random()
        a2 = c2.host("node00").rng.stream("x").random()
        b1 = c1.host("node01").rng.stream("x").random()
        assert a1 == a2
        assert a1 != b1
