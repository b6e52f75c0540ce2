"""Unit tests for the protocol cost models and calibration."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    MODELS,
    PAPER_MICROBENCH,
    SOCKETVIA_CLAN,
    TCP_CLAN_LANE,
    VIA_CLAN,
    get_model,
)
from repro.net.message import Message
from repro.sim.units import mbps_to_bytes_per_sec, usec


class TestSegmentation:
    def test_single_segment(self):
        assert TCP_CLAN_LANE.n_segments(1) == 1
        assert TCP_CLAN_LANE.n_segments(1460) == 1

    def test_multi_segment(self):
        assert TCP_CLAN_LANE.n_segments(1461) == 2
        assert TCP_CLAN_LANE.n_segments(16384) == 12

    def test_zero_bytes_is_one_segment(self):
        assert TCP_CLAN_LANE.n_segments(0) == 1

    def test_segment_sizes_decomposition(self):
        n_full, full, last = TCP_CLAN_LANE.segment_sizes(3000)
        assert (n_full, full, last) == (2, 1460, 80)
        assert n_full * full + last == 3000

    def test_stage_times_monotone_in_size(self):
        for model in (TCP_CLAN_LANE, SOCKETVIA_CLAN, VIA_CLAN):
            for fn in (model.sender_time, model.receiver_time, model.wire_time):
                values = [fn(s) for s in (64, 1024, 65536, 1 << 20)]
                assert values == sorted(values)


class TestCalibration:
    """The calibrated models must hit the paper's Figure-4 endpoints."""

    def test_socketvia_small_message_latency(self):
        target = PAPER_MICROBENCH["socketvia_latency_4b_us"]
        assert SOCKETVIA_CLAN.des_message_latency(4) == pytest.approx(
            usec(target), rel=0.03
        )

    def test_tcp_latency_is_about_5x_socketvia(self):
        ratio = TCP_CLAN_LANE.des_message_latency(4) / SOCKETVIA_CLAN.des_message_latency(4)
        assert ratio == pytest.approx(
            PAPER_MICROBENCH["tcp_latency_over_socketvia"], rel=0.05
        )

    def test_via_latency_below_socketvia(self):
        assert VIA_CLAN.des_message_latency(4) < SOCKETVIA_CLAN.des_message_latency(4)

    @pytest.mark.parametrize(
        "model,key",
        [
            (TCP_CLAN_LANE, "tcp_peak_mbps"),
            (SOCKETVIA_CLAN, "socketvia_peak_mbps"),
            (VIA_CLAN, "via_peak_mbps"),
        ],
    )
    def test_peak_bandwidths(self, model, key):
        assert model.peak_bandwidth_mbps == pytest.approx(
            PAPER_MICROBENCH[key], rel=0.02
        )

    def test_socketvia_near_peak_at_2kb_tcp_is_not(self):
        """Figure 2(a): U2 << U1 — the mechanism behind repartitioning."""
        sv = SOCKETVIA_CLAN
        tcp = TCP_CLAN_LANE
        assert sv.streaming_bandwidth(2048) > 0.9 * sv.peak_bandwidth
        assert tcp.streaming_bandwidth(2048) < 0.75 * tcp.peak_bandwidth
        assert tcp.streaming_bandwidth(16384) > 0.9 * tcp.peak_bandwidth

    def test_size_for_bandwidth_u1_u2_ordering(self):
        target = mbps_to_bytes_per_sec(450.0)
        u1 = TCP_CLAN_LANE.size_for_bandwidth(target)
        u2 = SOCKETVIA_CLAN.size_for_bandwidth(target)
        assert 0 < u2 < u1

    def test_size_for_bandwidth_unreachable(self):
        assert TCP_CLAN_LANE.size_for_bandwidth(mbps_to_bytes_per_sec(900)) == -1

    def test_perfect_pipelining_block_sizes(self):
        """Section 5.2.3: comm time ~ compute time at 16 KB (TCP) and
        the 2 KB SocketVIA blocks keep communication under computation."""
        compute = lambda b: b * 18e-9  # noqa: E731
        tcp_t = TCP_CLAN_LANE.des_streaming_message_time(16 * 1024)
        assert tcp_t == pytest.approx(compute(16 * 1024), rel=0.10)
        sv_t = SOCKETVIA_CLAN.des_streaming_message_time(2 * 1024)
        assert sv_t < compute(2 * 1024)
        assert sv_t > 0.5 * compute(2 * 1024)


class TestLatencyViews:
    def test_message_latency_below_store_and_forward_for_big_messages(self):
        for model in (TCP_CLAN_LANE, SOCKETVIA_CLAN, VIA_CLAN):
            big = 1 << 20
            assert model.message_latency(big) < model.store_and_forward_time(big)

    def test_views_agree_for_single_segment(self):
        m = VIA_CLAN
        size = 512
        assert m.message_latency(size) == pytest.approx(
            m.store_and_forward_time(size)
        )

    def test_des_message_latency_rejects_oversize(self):
        with pytest.raises(ValueError):
            TCP_CLAN_LANE.des_message_latency(1 << 20, max_unit=65536)

    def test_host_times_thin_for_offloaded_protocols(self):
        big = 65536
        assert VIA_CLAN.host_send_time(big) < VIA_CLAN.sender_time(big)
        assert TCP_CLAN_LANE.host_send_time(big) == TCP_CLAN_LANE.sender_time(big)

    def test_streaming_time_is_bottleneck_stage(self):
        m = TCP_CLAN_LANE
        s = 16384
        assert m.streaming_message_time(s) == max(
            m.sender_time(s), m.wire_time(s), m.receiver_time(s)
        )


class TestModelUtilities:
    def test_get_model_known_and_unknown(self):
        assert get_model("tcp") is TCP_CLAN_LANE
        with pytest.raises(KeyError):
            get_model("quic")

    def test_with_updates_returns_new_model(self):
        m2 = TCP_CLAN_LANE.with_updates(mtu=9000)
        assert m2.mtu == 9000
        assert TCP_CLAN_LANE.mtu == 1460

    def test_message_validation(self):
        with pytest.raises(ValueError):
            Message(size=-1)

    def test_message_ids_unique(self):
        assert Message(size=1).msg_id != Message(size=1).msg_id


#: The per-unit cost methods each model tables per instance and size.
TABLED = ("wire_unit_service", "host_send_time", "host_recv_time",
          "sender_time", "receiver_time")


class TestCostTables:
    """A tabled cost is bit-for-bit the formula's float, per instance."""

    @given(sizes=st.lists(st.integers(min_value=0, max_value=1 << 24),
                          min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_tables_return_the_formula_exactly(self, sizes):
        for parent in MODELS.values():
            for n in sizes:
                for name in TABLED:
                    getattr(parent, name)(n)
            # Warm tables stay out of eq, hash and repr.
            cold = replace(parent)
            assert cold == parent and hash(cold) == hash(parent)
            assert repr(cold) == repr(parent)
            # Made after the parent's tables are warm: were they shared,
            # the copy would answer with the parent's wire times.
            copy = parent.with_updates(g_wire=parent.g_wire * 1.5)
            for model in (parent, copy):
                for n in sizes:
                    for name in TABLED:
                        # A fresh instance's first call evaluates the formula.
                        want = getattr(replace(model), name)(n)
                        for got in (getattr(model, name)(n),
                                    getattr(model, name)(n)):
                            assert type(got) is type(want)
                            assert got.hex() == want.hex(), (model.name, name, n)
