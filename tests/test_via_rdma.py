"""Unit tests for VIA RDMA Write / RDMA Read (the paper's future work)."""

import pytest

from repro.cluster import Cluster
from repro.errors import ViaError
from repro.net.calibration import VIA_CLAN
from repro.via import Descriptor, ViaNic


@pytest.fixture
def cluster():
    c = Cluster(seed=4)
    c.add_fabric("clan")
    c.add_hosts("node", 2)
    return c


@pytest.fixture
def pair(cluster):
    """Connected VIs plus a registered remote region on the server."""
    nic0 = ViaNic(cluster.host("node00"), cluster.fabric("clan"))
    nic1 = ViaNic(cluster.host("node01"), cluster.fabric("clan"))
    sim = cluster.sim
    out = {}

    def server():
        listener = nic1.listen(5)
        vi = yield from listener.wait_connection()
        for _ in range(4):
            vi.post_recv(Descriptor(memory=nic1.memory.register_now(8192)))
        out["server_vi"] = vi
        out["region"] = nic1.memory.register_now(1 << 20)

    def client():
        vi = nic0.make_vi()
        yield from nic0.connect(vi, "node01", 5)
        out["client_vi"] = vi

    s = sim.process(server())
    c = sim.process(client())
    sim.run(sim.all_of([s, c]))
    return nic0, nic1, out


class TestRdmaWrite:
    def test_write_lands_in_remote_region(self, cluster, pair):
        nic0, nic1, out = pair
        sim = cluster.sim

        def writer():
            mem = nic0.memory.register_now(65536)
            d = Descriptor(memory=mem, length=65536, payload={"blob": 42})
            yield from out["client_vi"].post_rdma_write(d, out["region"])
            done = yield out["client_vi"].send_cq.wait()
            return done.status

        p = sim.process(writer())
        assert sim.run(p) == "done"
        assert nic1.memory.read_content(out["region"]) == {"blob": 42}

    def test_write_costs_zero_receiver_host_cpu(self, cluster, pair):
        """The push model's selling point: the target host computes
        undisturbed while data lands."""
        nic0, nic1, out = pair
        sim = cluster.sim
        host1 = cluster.host("node01")
        size = 1 << 20
        compute = {}

        def busy_receiver():
            t0 = sim.now
            yield from host1.compute(0.005)
            compute["elapsed"] = sim.now - t0

        def writer():
            mem = nic0.memory.register_now(size)
            yield from out["client_vi"].post_rdma_write(
                Descriptor(memory=mem, length=size), out["region"]
            )
            yield out["client_vi"].send_cq.wait()

        sim.process(busy_receiver())
        p = sim.process(writer())
        sim.run()
        # The 1 MB write did not delay the receiver's computation at all.
        assert compute["elapsed"] == pytest.approx(0.005)

    def test_write_with_notify_consumes_recv_descriptor(self, cluster, pair):
        nic0, _, out = pair
        sim = cluster.sim
        server_vi = out["server_vi"]
        posted_before = server_vi.recv_posted_count

        def writer():
            mem = nic0.memory.register_now(4096)
            d = Descriptor(memory=mem, length=4096, immediate={"block": 9})
            yield from out["client_vi"].post_rdma_write(
                d, out["region"], notify=True
            )

        def notified():
            desc = yield from server_vi.reap_recv()
            return desc.immediate

        sim.process(writer())
        p = sim.process(notified())
        assert sim.run(p) == {"block": 9}
        assert server_vi.recv_posted_count == posted_before - 1

    def test_write_beyond_region_raises(self, cluster, pair):
        nic0, nic1, out = pair
        sim = cluster.sim
        small = nic1.memory.register_now(512)

        def writer():
            mem = nic0.memory.register_now(4096)
            yield from out["client_vi"].post_rdma_write(
                Descriptor(memory=mem, length=4096), small
            )

        sim.process(writer())
        with pytest.raises(ViaError):
            sim.run()

    def test_write_to_region_not_registered_at_target_raises(self, cluster, pair):
        nic0, nic1, out = pair
        sim = cluster.sim
        # Registered, but at the initiator: the target NIC must refuse it.
        foreign = nic0.memory.register_now(64)

        def writer():
            mem = nic0.memory.register_now(64)
            yield from out["client_vi"].post_rdma_write(
                Descriptor(memory=mem, length=64), foreign
            )

        sim.process(writer())
        with pytest.raises(ViaError, match="unregistered memory"):
            sim.run()


class TestRdmaRead:
    def test_read_pulls_remote_content(self, cluster, pair):
        nic0, nic1, out = pair
        sim = cluster.sim
        nic1.memory.write_content(out["region"], "remote-dataset")

        def reader():
            mem = nic0.memory.register_now(65536)
            d = Descriptor(memory=mem)
            yield from out["client_vi"].post_rdma_read(d, out["region"], 65536)
            done = yield out["client_vi"].send_cq.wait()
            return done.payload

        p = sim.process(reader())
        assert sim.run(p) == "remote-dataset"

    def test_read_costs_zero_target_host_cpu(self, cluster, pair):
        nic0, nic1, out = pair
        sim = cluster.sim
        host1 = cluster.host("node01")
        compute = {}

        def busy_target():
            t0 = sim.now
            yield from host1.compute(0.005)
            compute["elapsed"] = sim.now - t0

        def reader():
            mem = nic0.memory.register_now(1 << 20)
            d = Descriptor(memory=mem)
            yield from out["client_vi"].post_rdma_read(d, out["region"], 1 << 20)
            yield out["client_vi"].send_cq.wait()

        sim.process(busy_target())
        p = sim.process(reader())
        sim.run()
        assert compute["elapsed"] == pytest.approx(0.005)

    def test_read_latency_includes_round_trip(self, cluster, pair):
        nic0, _, out = pair
        sim = cluster.sim
        size = 32768
        marks = {}

        def reader():
            yield sim.timeout(1.0)
            mem = nic0.memory.register_now(size)
            d = Descriptor(memory=mem)
            marks["t0"] = sim.now
            yield from out["client_vi"].post_rdma_read(d, out["region"], size)
            yield out["client_vi"].send_cq.wait()
            return sim.now - marks["t0"]

        p = sim.process(reader())
        elapsed = sim.run(p)
        m = VIA_CLAN
        # doorbell + request (64 B) + response (size) + two propagations.
        expected = (
            m.o_send_msg
            + m.wire_unit_service(64) + m.l_wire
            + m.wire_unit_service(size) + m.l_wire
        )
        assert elapsed == pytest.approx(expected, rel=1e-9)

    def test_read_beyond_region_raises(self, cluster, pair):
        nic0, nic1, out = pair
        sim = cluster.sim
        small = nic1.memory.register_now(128)

        def reader():
            mem = nic0.memory.register_now(4096)
            yield from out["client_vi"].post_rdma_read(
                Descriptor(memory=mem), small, 4096
            )

        sim.process(reader())
        with pytest.raises(ViaError):
            sim.run()

    def test_push_cheaper_than_send_recv_for_target_host(self, cluster, pair):
        """RDMA write skips the receiver's per-fragment completion
        processing entirely — compare host costs for a 256 KB move."""
        m = VIA_CLAN
        size = 256 * 1024
        send_recv_target_cost = m.host_recv_time(size)
        rdma_target_cost = 0.0
        assert send_recv_target_cost > 0
        assert rdma_target_cost == 0.0
