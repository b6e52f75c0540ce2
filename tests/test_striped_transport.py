"""Striped multi-stream transfer properties (repro.transport.striped).

The load-bearing contract is *bit-identical reassembly*: for every
stripe width and every transport, healthy or with a stripe member's
host crashing and restarting mid-transfer, ``read_blocks`` returns
exactly the sequence the width-1 (unstriped) path returns.  Latency
may change; bytes never do.
"""

import pytest

from repro.apps.wancache import WAN_PORT, WanBulkConfig, run_wan_bulk
from repro.cluster.topology import wan_topology
from repro.faults.plan import FaultPlan, HostFault, injecting
from repro.sockets.factory import ProtocolAPI
from repro.transport.striped import (
    StripedStream,
    block_token,
    reassembly_digest,
    stripe_server,
)

BLOCKS = list(range(24))
BLOCK_BYTES = 32 * 1024


def striped_read(protocol, width, block_ids=None, storage_hosts=3, seed=5):
    """One striped read over the WAN topology; returns the payloads."""
    cluster = wan_topology(storage_hosts=storage_hosts, seed=seed)
    api = ProtocolAPI(cluster, protocol, fabric="wan")
    sim = cluster.sim
    for i in range(storage_hosts):
        sim.process(stripe_server(api, f"store{i:02d}", WAN_PORT))
    out = {}

    def client():
        stream = yield from StripedStream.open(
            api, "client00",
            [(f"store{s % storage_hosts:02d}", WAN_PORT)
             for s in range(width)])
        out["payloads"] = yield from stream.read_blocks(
            block_ids if block_ids is not None else BLOCKS, BLOCK_BYTES)
        stream.close()

    sim.run(sim.process(client()))
    return out["payloads"]


class TestTokens:
    def test_block_token_deterministic_and_distinct(self):
        assert block_token(7) == block_token(7)
        assert block_token(7) != block_token(8)

    def test_digest_is_order_sensitive(self):
        a = [(0, block_token(0)), (1, block_token(1))]
        assert reassembly_digest(a) != reassembly_digest(a[::-1])


class TestReassemblyBitIdentity:
    @pytest.mark.parametrize("protocol", ["socketvia", "tcp"])
    def test_every_width_matches_unstriped(self, protocol):
        reference = striped_read(protocol, 1)
        assert [b for b, _ in reference] == BLOCKS
        ref_digest = reassembly_digest(reference)
        for width in range(2, 9):
            payloads = striped_read(protocol, width)
            assert payloads == reference, f"width {width} diverged"
            assert reassembly_digest(payloads) == ref_digest

    def test_width_exceeding_blocks(self):
        # More stripes than blocks: the tail stripes carry nothing.
        payloads = striped_read("socketvia", 6, block_ids=[0, 1, 2])
        assert [b for b, _ in payloads] == [0, 1, 2]

    def test_empty_read_returns_empty(self):
        assert striped_read("socketvia", 4, block_ids=[]) == []


class TestFailover:
    #: store01 blacks out after every stripe has connected (the open
    #: ends near 0.12 s) and comes back 100 ms later.
    PLAN = FaultPlan(name="bounce-store01",
                     hosts={"store01": HostFault(crash_at=0.2,
                                                 restart_at=0.3)})

    def test_stripe_member_death_falls_over_deterministically(self):
        config = WanBulkConfig(stripe_width=4)
        healthy = run_wan_bulk(config)
        with injecting(self.PLAN):
            faulted = run_wan_bulk(config)
            again = run_wan_bulk(config)
        # Bit-identical reassembly despite the mid-transfer crash...
        assert faulted.digest == healthy.digest
        # ...slower than the healthy run (the crashed host's stripe
        # stalls until the restart replays what it deferred)...
        assert faulted.elapsed > healthy.elapsed
        # ...and the faulted run is exactly reproducible.
        assert again.elapsed == faulted.elapsed
        assert again.digest == faulted.digest


class TestStreamShape:
    def test_at_least_one_socket_required(self):
        with pytest.raises(ValueError):
            StripedStream([])

    def test_repeated_address_multiplexes_one_server(self):
        # All stripes on one storage host: still bit-identical.
        cluster = wan_topology(storage_hosts=1, seed=5)
        api = ProtocolAPI(cluster, "socketvia", fabric="wan")
        sim = cluster.sim
        sim.process(stripe_server(api, "store00", WAN_PORT))
        out = {}

        def client():
            stream = yield from StripedStream.open(
                api, "client00", [("store00", WAN_PORT)] * 4)
            assert stream.width == 4
            out["payloads"] = yield from stream.read_blocks(
                BLOCKS, BLOCK_BYTES)
            stream.close()

        sim.run(sim.process(client()))
        assert [b for b, _ in out["payloads"]] == BLOCKS
