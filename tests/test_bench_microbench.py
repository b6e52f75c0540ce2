"""Unit tests for the micro-benchmark helpers (repro.bench.microbench)."""

import pytest

from repro.bench.microbench import (
    ping_pong_latency,
    streaming_bandwidth,
    via_ping_pong_latency,
    via_streaming_bandwidth,
)


class TestDeterminism:
    def test_socket_benchmarks_are_deterministic(self):
        assert ping_pong_latency("tcp", 256, iterations=4) == \
            ping_pong_latency("tcp", 256, iterations=4)
        assert streaming_bandwidth("socketvia", 4096, n_messages=16) == \
            streaming_bandwidth("socketvia", 4096, n_messages=16)

    def test_via_benchmarks_are_deterministic(self):
        assert via_ping_pong_latency(256, iterations=4) == \
            via_ping_pong_latency(256, iterations=4)
        assert via_streaming_bandwidth(4096, n_messages=16) == \
            via_streaming_bandwidth(4096, n_messages=16)


class TestWarmupHandling:
    def test_warmup_iterations_excluded(self):
        """More warmup cannot change the steady-state latency."""
        a = ping_pong_latency("socketvia", 1024, iterations=6, warmup=1)
        b = ping_pong_latency("socketvia", 1024, iterations=6, warmup=4)
        assert a == pytest.approx(b, rel=1e-9)
