"""Unit tests for the simulated VIA provider."""

import pytest

from repro.cluster import Cluster
from repro.errors import ConnectionRefused, ViaError
from repro.net.calibration import VIA_CLAN
from repro.via import Descriptor, MemoryRegistry, ViaNic


@pytest.fixture
def cluster():
    c = Cluster(seed=2)
    c.add_fabric("clan")
    c.add_hosts("node", 2)
    return c


@pytest.fixture
def nics(cluster):
    return (
        ViaNic(cluster.host("node00"), cluster.fabric("clan")),
        ViaNic(cluster.host("node01"), cluster.fabric("clan")),
    )


def connected_pair(cluster, nics, disc=9, prepost=8, bufsize=4096):
    """Run the dialog; return (client_vi, server_vi)."""
    nic0, nic1 = nics
    sim = cluster.sim
    out = {}

    def server():
        listener = nic1.listen(disc)
        vi = yield from listener.wait_connection()
        for _ in range(prepost):
            vi.post_recv(Descriptor(memory=nic1.memory.register_now(bufsize)))
        out["server"] = vi

    def client():
        vi = nic0.make_vi()
        for _ in range(prepost):
            vi.post_recv(Descriptor(memory=nic0.memory.register_now(bufsize)))
        yield from nic0.connect(vi, "node01", disc)
        out["client"] = vi

    srv = sim.process(server())
    cli = sim.process(client())
    sim.run(sim.all_of([srv, cli]))
    return out["client"], out["server"]


class TestMemoryRegistry:
    def test_register_now_and_check(self, cluster):
        reg = MemoryRegistry(cluster.sim)
        h = reg.register_now(8192)
        reg.check(h, 8192)
        assert reg.bytes_registered == 8192
        assert reg.region_count == 1

    def test_register_charges_per_page_time(self, cluster):
        sim = cluster.sim
        reg = MemoryRegistry(sim)

        def proc():
            yield from reg.register(3 * 4096)

        p = sim.process(proc())
        sim.run(p)
        assert sim.now == pytest.approx(3 * 10e-6)

    def test_check_rejects_oversize(self, cluster):
        reg = MemoryRegistry(cluster.sim)
        h = reg.register_now(100)
        with pytest.raises(ViaError):
            reg.check(h, 101)

    def test_check_rejects_foreign_registry(self, cluster):
        reg_a = MemoryRegistry(cluster.sim)
        reg_b = MemoryRegistry(cluster.sim)
        h = reg_a.register_now(100)
        with pytest.raises(ViaError):
            reg_b.check(h, 50)

    def test_invalid_sizes(self, cluster):
        reg = MemoryRegistry(cluster.sim)
        with pytest.raises(ViaError):
            reg.register_now(0)


class TestConnectionDialog:
    def test_connect_accept(self, cluster, nics):
        client_vi, server_vi = connected_pair(cluster, nics)
        assert client_vi.state == "connected"
        assert server_vi.state == "connected"
        assert client_vi.peer_vi == server_vi.vi_id
        assert server_vi.peer_vi == client_vi.vi_id

    def test_connect_refused(self, cluster, nics):
        nic0, _ = nics

        def client():
            vi = nic0.make_vi()
            try:
                yield from nic0.connect(vi, "node01", 999)
            except ConnectionRefused:
                return "refused"

        p = cluster.sim.process(client())
        assert cluster.sim.run(p) == "refused"

    def test_post_send_on_unconnected_vi_raises(self, cluster, nics):
        nic0, _ = nics
        vi = nic0.make_vi()
        desc = Descriptor(memory=nic0.memory.register_now(64), length=64)
        with pytest.raises(ViaError):
            # post_send is a generator; the guard fires at first advance.
            next(vi.post_send(desc))


class TestDataPath:
    def test_send_recv_roundtrip(self, cluster, nics):
        nic0, nic1 = nics
        client_vi, server_vi = connected_pair(cluster, nics)
        sim = cluster.sim

        def sender():
            mem = nic0.memory.register_now(1024)
            d = Descriptor(memory=mem, length=1024, payload="block-7",
                           immediate={"seq": 7})
            yield from client_vi.post_send(d)

        def receiver():
            desc = yield from server_vi.reap_recv()
            return (desc.length, desc.payload, desc.immediate)

        sim.process(sender())
        rcv = sim.process(receiver())
        got = sim.run(rcv)
        assert got == (1024, "block-7", {"seq": 7})

    def test_send_completion_reaches_send_cq(self, cluster, nics):
        nic0, _ = nics
        client_vi, server_vi = connected_pair(cluster, nics)
        sim = cluster.sim

        def sender():
            mem = nic0.memory.register_now(512)
            d = Descriptor(memory=mem, length=512)
            yield from client_vi.post_send(d)
            done = yield client_vi.send_cq.wait()
            return done.status

        p = sim.process(sender())
        assert sim.run(p) == "done"

    def test_fifo_across_many_descriptors(self, cluster, nics):
        nic0, _ = nics
        client_vi, server_vi = connected_pair(cluster, nics, prepost=20)
        sim = cluster.sim

        def sender():
            mem = nic0.memory.register_now(256)
            for i in range(20):
                yield from client_vi.post_send(
                    Descriptor(memory=mem, length=256, payload=i)
                )

        def receiver():
            seen = []
            for _ in range(20):
                desc = yield from server_vi.reap_recv()
                seen.append(desc.payload)
            return seen

        sim.process(sender())
        rcv = sim.process(receiver())
        assert sim.run(rcv) == list(range(20))

    def test_no_posted_descriptor_is_protocol_error(self, cluster, nics):
        nic0, _ = nics
        client_vi, server_vi = connected_pair(cluster, nics, prepost=0)
        sim = cluster.sim

        def sender():
            mem = nic0.memory.register_now(64)
            yield from client_vi.post_send(Descriptor(memory=mem, length=64))

        sim.process(sender())
        with pytest.raises(ViaError, match="no posted receive"):
            sim.run()

    def test_message_bigger_than_posted_buffer_errors(self, cluster, nics):
        nic0, _ = nics
        client_vi, server_vi = connected_pair(cluster, nics, bufsize=128)
        sim = cluster.sim

        def sender():
            mem = nic0.memory.register_now(4096)
            yield from client_vi.post_send(Descriptor(memory=mem, length=4096))

        sim.process(sender())
        with pytest.raises(ViaError, match="exceeds"):
            sim.run()

    def test_unregistered_memory_rejected_at_post(self, cluster, nics):
        nic0, nic1 = nics
        client_vi, _ = connected_pair(cluster, nics)
        foreign = nic1.memory.register_now(64)  # wrong NIC's registry

        def sender():
            yield from client_vi.post_send(Descriptor(memory=foreign, length=64))

        p = cluster.sim.process(sender())
        p.defused = True
        cluster.sim.run()
        assert isinstance(p.exception, ViaError)

    def test_descriptor_reuse_after_reset(self, cluster, nics):
        nic0, _ = nics
        client_vi, server_vi = connected_pair(cluster, nics, prepost=2)
        sim = cluster.sim

        def sender():
            mem = nic0.memory.register_now(64)
            d = Descriptor(memory=mem, length=64, payload="a")
            yield from client_vi.post_send(d)
            done = yield client_vi.send_cq.wait()
            done.reset()
            done.length = 64
            done.payload = "b"
            yield from client_vi.post_send(done)

        def receiver():
            out = []
            for _ in range(2):
                desc = yield from server_vi.reap_recv()
                out.append(desc.payload)
            return out

        sim.process(sender())
        rcv = sim.process(receiver())
        assert sim.run(rcv) == ["a", "b"]


class TestViaTiming:
    def test_host_cpu_barely_touched_by_large_transfer(self, cluster, nics):
        """The defining VIA property: a 32 KB transfer costs the sending
        host only the doorbell + per-byte user cost, not the wire time."""
        nic0, _ = nics
        client_vi, server_vi = connected_pair(cluster, nics, bufsize=32768)
        sim = cluster.sim
        size = 32768

        def sender():
            mem = nic0.memory.register_now(size)
            t0 = sim.now
            yield from client_vi.post_send(Descriptor(memory=mem, length=size))
            return sim.now - t0

        p = sim.process(sender())
        host_time = sim.run(p)
        assert host_time == pytest.approx(VIA_CLAN.host_send_time(size), rel=1e-9)
        assert host_time < 0.05 * VIA_CLAN.wire_unit_service(size)

    def test_one_way_latency_matches_model(self, cluster, nics):
        nic0, _ = nics
        client_vi, server_vi = connected_pair(cluster, nics)
        sim = cluster.sim
        size = 2048

        marks = {}

        def sender():
            yield sim.timeout(1.0)  # quiesce the handshake
            mem = nic0.memory.register_now(size)
            marks["t0"] = sim.now
            yield from client_vi.post_send(Descriptor(memory=mem, length=size))

        def receiver():
            desc = yield from server_vi.reap_recv()
            return desc.completed_at

        sim.process(sender())
        rcv = sim.process(receiver())
        completed_at = sim.run(rcv)
        one_way_to_cq = completed_at - marks["t0"] - VIA_CLAN.host_send_time(size)
        # Cut-through switch: the wire is paid once, plus propagation.
        expected = VIA_CLAN.wire_unit_service(size) + VIA_CLAN.l_wire
        assert one_way_to_cq == pytest.approx(expected, rel=1e-9)
