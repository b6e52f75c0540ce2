"""Block-size planning: the paper's "Data Repartitioning" (DR) step.

The experiments in Sections 5.2.2 pick the distribution block size to
suit a performance guarantee:

* **update-rate guarantee** (Figure 7): the *smallest* block size whose
  pipeline can sustain the requested full updates/second — smaller
  blocks mean lower partial-update latency, so small-but-sufficient is
  optimal;
* **latency guarantee** (Figure 8): the *largest* block size whose
  partial-update latency stays under the bound — larger blocks mean
  higher bandwidth, so large-but-compliant is optimal.

"Repartitioning the data by taking SocketVIA's latency and bandwidth
into consideration" is exactly re-running this planner against the
SocketVIA cost model instead of the TCP one.

The planner is analytic (cost-model based); the benchmark harness then
*measures* the planned configuration in the DES, so planning errors
show up as missed guarantees rather than silent distortions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.datacutter.buffers import ACK_BYTES, BUFFER_HEADER_BYTES
from repro.net.model import ProtocolCostModel

__all__ = [
    "PipelinePlan",
    "default_block_candidates",
    "sustainable_rate",
    "chunk_fetch_latency",
    "plan_block_for_rate",
    "plan_block_for_latency",
]

#: Default candidate distribution block sizes (powers of two, 2 KB–1 MB;
#: 2 KB is the smallest block the paper's experiments use).
def default_block_candidates(lo: int = 2048, hi: int = 1 << 20) -> List[int]:
    """Power-of-two block sizes from *lo* to *hi* inclusive."""
    out = []
    b = lo
    while b <= hi:
        out.append(b)
        b *= 2
    return out


@dataclass
class PipelinePlan:
    """Inputs describing the Figure-5 pipeline for planning purposes."""

    model: ProtocolCostModel
    image_bytes: int = 16 * 1024 * 1024
    copies: int = 3
    #: Pipeline stages between repository and viz (clip, subsample).
    middle_stages: int = 2
    compute_ns_per_byte: float = 0.0


def _chunk_wire(plan: PipelinePlan, block: int) -> float:
    return plan.model.wire_unit_service(block + BUFFER_HEADER_BYTES)


def _viz_ingest_time(plan: PipelinePlan, block: int) -> float:
    """Serialized per-chunk cost at the visualization node's busiest
    host resource: receive processing plus the consumption ack."""
    m = plan.model
    chunk = block + BUFFER_HEADER_BYTES
    return m.host_recv_time(chunk) + m.host_send_time(ACK_BYTES)


def _middle_stage_time(plan: PipelinePlan, block: int) -> float:
    """Per-chunk cost at a middle filter's serialized host path:
    receive + forward + its own ack out + the downstream ack in."""
    m = plan.model
    chunk = block + BUFFER_HEADER_BYTES
    return (
        m.host_recv_time(chunk)
        + m.host_send_time(chunk)
        + m.host_send_time(ACK_BYTES)
        + m.host_recv_time(ACK_BYTES)
    )


def sustainable_rate(plan: PipelinePlan, block: int) -> float:
    """Predicted maximum full updates/second at *block* bytes.

    Capacity is the minimum over the shared resources a full update
    crosses: the viz node's host path and downlink (all chains fan in),
    per-chain middle-stage host paths and wires, and — when computation
    is enabled — each stage's single-threaded compute.
    """
    if block <= 0:
        raise ValueError("block must be positive")
    image = plan.image_bytes
    chunks_total = max(1, -(-image // block))
    per_chain = chunks_total / plan.copies

    m = plan.model
    rates = []
    # Visualization node: every chunk of every chain.
    rates.append(1.0 / (chunks_total * _viz_ingest_time(plan, block)))
    rates.append(1.0 / (chunks_total * _chunk_wire(plan, block)))
    if plan.compute_ns_per_byte > 0:
        # The viz filter thread computes per chunk and issues the
        # consumption ack inline (a real syscall on TCP).
        viz_compute = image * plan.compute_ns_per_byte * 1e-9
        viz_compute += chunks_total * m.host_send_time(ACK_BYTES)
        rates.append(1.0 / viz_compute)
    # Per-chain middle stages (each stage has its own host + wire).
    if plan.middle_stages > 0:
        rates.append(1.0 / (per_chain * _middle_stage_time(plan, block)))
        rates.append(1.0 / (per_chain * _chunk_wire(plan, block)))
        if plan.compute_ns_per_byte > 0:
            stage_compute = (image / plan.copies) * plan.compute_ns_per_byte * 1e-9
            rates.append(1.0 / stage_compute)
    # Repository send path per chain.
    m = plan.model
    chunk = block + BUFFER_HEADER_BYTES
    repo = m.host_send_time(chunk) + m.host_recv_time(ACK_BYTES)
    rates.append(1.0 / (per_chain * repo))
    return min(rates)


def plan_block_for_rate(
    plan: PipelinePlan,
    rate: float,
    candidates: Optional[Sequence[int]] = None,
    headroom: float = 1.0,
) -> Optional[int]:
    """Smallest candidate block sustaining *rate* updates/s (pass
    ``headroom > 1`` to demand slack), or ``None`` when no block size
    suffices — the paper's "TCP cannot meet an update constraint
    greater than 3.25"."""
    for block in candidates or default_block_candidates():
        if sustainable_rate(plan, block) >= rate * headroom:
            return block
    return None


def chunk_fetch_latency(plan: PipelinePlan, block: int) -> float:
    """One-hop message latency of a single *block* chunk.

    This is the quantity Figure 8's latency guarantee constrains
    (Section 5.2.2: "the latency for a partial update using TCP would
    be the latency for this message chunk") — the Figure 2(b) curve
    evaluated at the chunk size, not the whole pipeline traversal.
    """
    m = plan.model
    chunk = block + BUFFER_HEADER_BYTES
    if chunk <= (1 << 16):
        return m.des_message_latency(chunk)
    return (
        m.host_send_time(chunk) + m.wire_unit_service(chunk)
        + m.l_wire + m.host_recv_time(chunk)
    )


def plan_block_for_latency(
    plan: PipelinePlan,
    latency_bound: float,
    candidates: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Largest candidate block whose single-chunk fetch latency fits
    *latency_bound* seconds, or ``None`` when even the smallest
    candidate misses it — the Figure-8 TCP drop-out at 100 us (TCP's
    floor is ~115 us for a 2 KB chunk, while SocketVIA still fits an
    8 KB chunk under 100 us and stays near peak bandwidth)."""
    best = None
    for block in candidates or default_block_candidates():
        if chunk_fetch_latency(plan, block) <= latency_bound:
            best = block
    return best
