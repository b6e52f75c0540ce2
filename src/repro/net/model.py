"""Pipelined protocol cost models (LogGP-style, segment-aware).

A message of ``m`` bytes crosses three stages, each with per-message,
per-segment and per-byte costs:

* **sender host** — syscall / descriptor-post cost, copies;
* **wire** — NIC/DMA + switch serialization plus propagation;
* **receiver host** — interrupt / completion cost, copies.

For host-based protocols (kernel TCP) the sender/receiver stage costs
are charged to the host's serialized network path and therefore contend
with everything else the kernel does; for user-level protocols (VIA)
the per-segment work runs on the NIC and only a thin doorbell/completion
touches the host.  That asymmetry — not just the raw latency gap — is
what the paper's application experiments exploit, so the model keeps
the stages explicit instead of collapsing to a single (latency,
bandwidth) pair.

Three timing views, used in different places:

* :meth:`message_latency` — analytic *segment-pipelined* one-way latency
  of a single message on an idle network (what a ping-pong
  micro-benchmark measures, Figure 4a).
* :meth:`streaming_message_time` — steady-state per-message cost when
  many messages are in flight: the bottleneck stage (what a streaming
  bandwidth test measures, Figure 4b).
* :meth:`store_and_forward_time` — the sum of all stages: the time one
  isolated data chunk takes when each pipeline hop must fully receive a
  buffer before forwarding it (how DataCutter moves buffers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

from repro.sim.units import bytes_per_sec_to_mbps

__all__ = ["ProtocolCostModel"]


@dataclass(frozen=True)
class ProtocolCostModel:
    """Calibrated cost parameters for one transport.

    All times in seconds, per-byte costs in seconds/byte, sizes in bytes.

    Parameters
    ----------
    name:
        Identifier ("tcp", "socketvia", "via").
    o_send_msg / o_recv_msg:
        Fixed per-message host cost (syscall entry + setup, or VIA
        doorbell ring / completion reaping).
    o_send_seg / o_recv_seg:
        Per-segment host cost (kernel segment processing + interrupt
        for TCP; descriptor handling for VIA).
    c_send / c_recv:
        Per-byte host cost (data copies between user and kernel or
        registered buffers).
    o_wire_seg:
        Per-segment wire/NIC fixed cost (DMA setup per burst).
    g_wire:
        Per-byte wire/DMA gap — the inverse of raw link bandwidth as
        seen end to end.
    l_wire:
        One-way propagation + switching latency, charged once per
        message (it delays but does not occupy any stage).
    mtu:
        Segment payload size: the MSS for TCP, the maximum per-descriptor
        transfer (or the registered-buffer size for SocketVIA) for VIA.
    host_cpu_protocol:
        True when per-segment/per-byte sender+receiver costs run on the
        host's kernel path (TCP); False when they run on the NIC (VIA),
        leaving only the per-message costs on the host.
    """

    name: str
    o_send_msg: float
    o_recv_msg: float
    o_send_seg: float
    o_recv_seg: float
    c_send: float
    c_recv: float
    o_wire_seg: float
    g_wire: float
    l_wire: float
    mtu: int
    host_cpu_protocol: bool = True

    # -- segmentation ------------------------------------------------------------

    def n_segments(self, nbytes: int) -> int:
        """Number of wire segments for an ``nbytes`` message (>= 1)."""
        if nbytes <= 0:
            return 1
        return math.ceil(nbytes / self.mtu)

    def segment_sizes(self, nbytes: int) -> Tuple[int, int, int]:
        """``(n_full, full_size, last_size)`` decomposition of a message."""
        n = self.n_segments(nbytes)
        if n == 1:
            return 0, self.mtu, max(nbytes, 0)
        last = nbytes - (n - 1) * self.mtu
        return n - 1, self.mtu, last

    # -- per-stage totals -----------------------------------------------------------

    def sender_time(self, nbytes: int) -> float:
        """Total sender-host CPU time for one message."""
        n = self.n_segments(nbytes)
        return self.o_send_msg + n * self.o_send_seg + self.c_send * max(nbytes, 0)

    def receiver_time(self, nbytes: int) -> float:
        """Total receiver-host CPU time for one message."""
        n = self.n_segments(nbytes)
        return self.o_recv_msg + n * self.o_recv_seg + self.c_recv * max(nbytes, 0)

    def wire_time(self, nbytes: int) -> float:
        """Total wire occupancy for one message (excludes propagation)."""
        n = self.n_segments(nbytes)
        return n * self.o_wire_seg + self.g_wire * max(nbytes, 0)

    def host_send_time(self, nbytes: int) -> float:
        """Sender cost charged to the *host* network path.

        Equal to :meth:`sender_time` for host-based protocols; only the
        per-message doorbell cost for NIC-offloaded protocols.
        """
        if self.host_cpu_protocol:
            return self.sender_time(nbytes)
        return self.o_send_msg + self.c_send * max(nbytes, 0)

    def host_recv_time(self, nbytes: int) -> float:
        """Receiver cost charged to the *host* network path."""
        if self.host_cpu_protocol:
            return self.receiver_time(nbytes)
        return self.o_recv_msg + self.c_recv * max(nbytes, 0)

    # -- end-to-end views --------------------------------------------------------------

    def _seg_stage_times(self, size: int) -> Tuple[float, float, float]:
        """Per-segment (sender, wire, receiver) stage times, with the
        per-segment descriptor costs placed where they actually run:
        host stages for kernel protocols, in line with the wire/DMA for
        NIC-offloaded ones."""
        if self.host_cpu_protocol:
            return (
                self.o_send_seg + self.c_send * size,
                self.o_wire_seg + self.g_wire * size,
                self.o_recv_seg + self.c_recv * size,
            )
        return (
            self.c_send * size,
            self.o_send_seg + self.o_wire_seg + self.g_wire * size
            + self.o_recv_seg,
            self.c_recv * size,
        )

    def message_latency(self, nbytes: int) -> float:
        """Segment-pipelined one-way latency of one message, idle network.

        The first segment traverses all three stages; each later segment
        adds one bottleneck-stage slot at its own size (full MTU for the
        middle segments, the actual remainder for the last one).
        """
        n = self.n_segments(nbytes)
        first = min(max(nbytes, 0), self.mtu)
        s1, w1, r1 = self._seg_stage_times(first)
        t = self.o_send_msg + s1 + w1 + self.l_wire + r1 + self.o_recv_msg
        if n > 1:
            _, full, last = self.segment_sizes(nbytes)
            if n > 2:
                t += (n - 2) * max(self._seg_stage_times(full))
            t += max(self._seg_stage_times(last))
        return t

    def store_and_forward_time(self, nbytes: int) -> float:
        """Chunk time when each hop fully receives before forwarding."""
        return (
            self.sender_time(nbytes)
            + self.wire_time(nbytes)
            + self.l_wire
            + self.receiver_time(nbytes)
        )

    def streaming_message_time(self, nbytes: int) -> float:
        """Steady-state per-message time with many messages in flight:
        the bottleneck among the sender host path, the wire (which for
        NIC-offloaded protocols carries the per-segment descriptor
        work), and the receiver host path."""
        return max(
            self.host_send_time(nbytes),
            self.wire_unit_service(nbytes),
            self.host_recv_time(nbytes),
        )

    def streaming_bandwidth(self, nbytes: int) -> float:
        """Steady-state throughput (bytes/s) at message size ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.streaming_message_time(nbytes)

    def streaming_bandwidth_mbps(self, nbytes: int) -> float:
        """Steady-state throughput in the paper's unit (Mbps, 10^6 bits)."""
        return bytes_per_sec_to_mbps(self.streaming_bandwidth(nbytes))

    @property
    def peak_bandwidth(self) -> float:
        """Asymptotic throughput (bytes/s) for very large messages.

        For NIC-offloaded protocols the per-segment descriptor costs
        ride the wire stage (see :meth:`wire_unit_service`); for
        host-based protocols they ride the host stages.
        """
        if self.host_cpu_protocol:
            snd = self.o_send_seg / self.mtu + self.c_send
            rcv = self.o_recv_seg / self.mtu + self.c_recv
            wire = self.o_wire_seg / self.mtu + self.g_wire
        else:
            snd = self.c_send
            rcv = self.c_recv
            wire = (
                self.o_wire_seg + self.o_send_seg + self.o_recv_seg
            ) / self.mtu + self.g_wire
        return 1.0 / max(snd, wire, rcv)

    @property
    def peak_bandwidth_mbps(self) -> float:
        """Asymptotic throughput in Mbps."""
        return bytes_per_sec_to_mbps(self.peak_bandwidth)

    # -- DES-facing quantities ------------------------------------------------------------

    def wire_unit_service(self, nbytes: int) -> float:
        """Wire occupancy of one transmitted unit of ``nbytes``.

        For NIC-offloaded protocols the per-segment descriptor processing
        happens on the NIC in line with the DMA, so it is folded into the
        wire occupancy; for host-based protocols it is part of the
        sender/receiver host times instead.
        """
        n = self.n_segments(nbytes)
        t = n * self.o_wire_seg + self.g_wire * max(nbytes, 0)
        if not self.host_cpu_protocol:
            t += n * (self.o_send_seg + self.o_recv_seg)
        return t

    def des_message_latency(self, nbytes: int, max_unit: int = 1 << 16) -> float:
        """One-way latency the message-fidelity DES produces on an idle
        network for a message sent as a single unit (``nbytes <=
        max_unit``): host send + one wire service (the switch is
        cut-through, so uplink and downlink overlap when uncontended)
        + propagation + host receive.

        This is the quantity the micro-benchmarks measure; tests assert
        the DES matches it to within float tolerance.
        """
        if nbytes > max_unit:
            raise ValueError(
                f"analytic single-unit latency needs nbytes <= {max_unit}"
            )
        return (
            self.host_send_time(nbytes)
            + self.wire_unit_service(nbytes)
            + self.l_wire
            + self.host_recv_time(nbytes)
        )

    def des_streaming_message_time(self, nbytes: int) -> float:
        """Steady-state per-message time of the message-fidelity DES:
        the bottleneck among sender host path, either wire direction,
        and receiver host path."""
        return max(
            self.host_send_time(nbytes),
            self.wire_unit_service(nbytes),
            self.host_recv_time(nbytes),
        )

    # -- planning helpers ---------------------------------------------------------------

    def size_for_bandwidth(self, target_bytes_per_sec: float, max_size: int = 1 << 26) -> int:
        """Smallest power-of-two message size whose streaming bandwidth
        reaches *target_bytes_per_sec* (the paper's U1/U2 quantities).

        Returns ``-1`` when the target exceeds peak bandwidth.
        """
        if target_bytes_per_sec > self.peak_bandwidth:
            return -1
        size = 1
        while size <= max_size:
            if self.streaming_bandwidth(size) >= target_bytes_per_sec:
                return size
            size *= 2
        return -1

    def with_updates(self, **changes) -> "ProtocolCostModel":
        """A copy with selected parameters replaced (for ablations)."""
        return replace(self, **changes)
