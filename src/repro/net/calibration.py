"""Calibrated parameter sets and fitting utilities.

The three transports are calibrated so the analytic model reproduces the
paper's measured micro-benchmark endpoints (Section 5.1):

====================  ============  ===============
quantity              paper         model (analytic)
====================  ============  ===============
TCP 4-byte latency    ~47.5 us      47.4 us
SocketVIA latency     9.5 us        ~9.6 us
VIA latency           < 9.5 us      ~8.3 us
TCP peak bandwidth    510 Mbps      ~511 Mbps
SocketVIA peak        763 Mbps      ~764 Mbps
VIA peak              795 Mbps      ~800 Mbps
====================  ============  ===============

Derived quantities the application experiments depend on also emerge:
TCP needs ~16 KB messages to approach its required bandwidth while
SocketVIA is within a few percent of peak at 2 KB — the paper's
perfect-pipelining block sizes (16 KB vs 2 KB at 18 ns/byte compute).

:func:`fit_cost_model` re-derives host-overhead parameters from
(latency, bandwidth) observations with scipy least squares, both as a
calibration audit and as a tool for users to model their own fabric.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.sim.units import mbps_to_bytes_per_sec, nsec, usec
from repro.net.model import ProtocolCostModel

__all__ = [
    "TCP_CLAN_LANE",
    "SOCKETVIA_CLAN",
    "VIA_CLAN",
    "TCP_FAST_ETHERNET",
    "MODELS",
    "get_model",
    "PAPER_MICROBENCH",
    "PAPER_RESULTS",
    "fit_cost_model",
]


#: Kernel TCP/IP over the cLAN LAN-emulation (LANE) path.  Heavy fixed
#: per-message syscall costs, heavy per-segment kernel+interrupt costs,
#: one data copy each side; MSS 1460.
TCP_CLAN_LANE = ProtocolCostModel(
    name="tcp",
    o_send_msg=usec(5.0),
    o_recv_msg=usec(5.0),
    o_send_seg=usec(17.0),
    o_recv_seg=usec(17.0),
    c_send=nsec(4.0),
    c_recv=nsec(4.0),
    o_wire_seg=0.0,
    g_wire=nsec(8.0),
    l_wire=usec(3.37),
    mtu=1460,
    host_cpu_protocol=True,
)

#: Raw VIA on the cLAN NIC: thin doorbell/completion on the host, all
#: segment work on the NIC, zero-copy DMA, 32 KB max per descriptor.
VIA_CLAN = ProtocolCostModel(
    name="via",
    o_send_msg=usec(1.0),
    o_recv_msg=usec(1.0),
    o_send_seg=usec(0.3),
    o_recv_seg=usec(0.3),
    c_send=nsec(0.1),
    c_recv=nsec(0.1),
    o_wire_seg=usec(0.2),
    g_wire=nsec(10.0),
    l_wire=usec(5.16),
    mtu=32768,
    host_cpu_protocol=False,
)

#: SocketVIA: the user-level sockets layer over VIA.  Adds a small
#: per-message header/credit-bookkeeping cost and fragments application
#: messages into 8 KB registered buffers; the credit-protocol bubbles
#: show up as a slightly higher effective wire gap (763 vs 795 Mbps).
SOCKETVIA_CLAN = ProtocolCostModel(
    name="socketvia",
    o_send_msg=usec(1.4),
    o_recv_msg=usec(1.4),
    o_send_seg=usec(0.5),
    o_recv_seg=usec(0.5),
    c_send=nsec(0.7),
    c_recv=nsec(0.7),
    o_wire_seg=usec(0.2),
    g_wire=nsec(10.33),
    l_wire=usec(5.46),
    mtu=8192,
    host_cpu_protocol=False,
)

#: Kernel TCP over the testbed's Fast Ethernet fabric (100 Mbps) — not
#: used by the paper's headline experiments but part of the testbed.
TCP_FAST_ETHERNET = ProtocolCostModel(
    name="tcp-fe",
    o_send_msg=usec(5.0),
    o_recv_msg=usec(5.0),
    o_send_seg=usec(17.0),
    o_recv_seg=usec(17.0),
    c_send=nsec(4.0),
    c_recv=nsec(4.0),
    o_wire_seg=0.0,
    g_wire=nsec(80.0),
    l_wire=usec(30.0),
    mtu=1460,
    host_cpu_protocol=True,
)

MODELS: Dict[str, ProtocolCostModel] = {
    m.name: m for m in (TCP_CLAN_LANE, VIA_CLAN, SOCKETVIA_CLAN, TCP_FAST_ETHERNET)
}


def get_model(name: str) -> ProtocolCostModel:
    """Look up a calibrated model by name ("tcp", "socketvia", "via")."""
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; have {sorted(MODELS)}"
        ) from None


#: The paper's measured micro-benchmark numbers (Section 5.1, Figure 4).
PAPER_MICROBENCH = {
    "socketvia_latency_4b_us": 9.5,
    "tcp_latency_over_socketvia": 5.0,  # "nearly a factor of five"
    "via_peak_mbps": 795.0,
    "socketvia_peak_mbps": 763.0,
    "tcp_peak_mbps": 510.0,
}

#: Application-level anchor points quoted in the paper's text.
PAPER_RESULTS = {
    # Perfect pipelining block sizes at 18 ns/byte computation (Sec 5.2.3).
    "perfect_pipeline_block_tcp": 16 * 1024,
    "perfect_pipeline_block_socketvia": 2 * 1024,
    "compute_ns_per_byte": 18.0,
    # Figure 7 (latency under update-rate guarantees).
    "fig7a_improvement_no_dr": 3.5,
    "fig7a_improvement_dr": 10.0,
    "fig7a_tcp_max_updates": 3.25,
    "fig7b_improvement_no_dr": 4.0,
    "fig7b_improvement_dr": 12.0,
    "fig7b_socketvia_max_updates": 3.25,
    # Figure 8 (updates/s under latency guarantees).
    "fig8a_improvement_no_dr": 6.0,
    "fig8a_improvement_dr": 8.0,
    "fig8a_tcp_dropout_us": 100.0,
    "fig8b_improvement": 4.0,
    # Figure 9 (mixed queries; 150 ms budget, 64 partitions).
    "fig9_tcp_max_fraction": 0.6,
    "fig9_socketvia_max_fraction": 0.9,
    # Figure 10 (round-robin reaction time).
    "fig10_reaction_ratio": 8.0,
    # Experiment-scale constants.
    "image_bytes": 16 * 1024 * 1024,
    "zoom_query_chunks": 4,
}


def fit_cost_model(
    base: ProtocolCostModel,
    latency_points: Sequence[Tuple[int, float]],
    bandwidth_points: Sequence[Tuple[int, float]],
    free_params: Iterable[str] = ("o_send_msg", "o_recv_msg", "o_send_seg", "o_recv_seg", "g_wire"),
) -> ProtocolCostModel:
    """Fit selected parameters of *base* to observed measurements.

    Parameters
    ----------
    base:
        Starting model; fixed parameters are taken from it.
    latency_points:
        ``(message_bytes, latency_seconds)`` observations.
    bandwidth_points:
        ``(message_bytes, bytes_per_second)`` observations.
    free_params:
        Names of :class:`ProtocolCostModel` fields to optimize.

    Returns
    -------
    A new model with fitted parameters (all non-negative).

    Notes
    -----
    Residuals are relative (divided by the observation) so microsecond
    latencies and megabyte bandwidths carry equal weight.
    """
    # Imported here, not at module level: scipy is slow and large to
    # import, and nothing on the simulation path fits models.
    from scipy.optimize import least_squares

    free = list(free_params)
    x0 = np.array([getattr(base, p) for p in free], dtype=float)
    scale = np.where(x0 > 0, x0, 1e-6)

    def build(x: np.ndarray) -> ProtocolCostModel:
        return dataclasses.replace(
            base, **{p: max(float(v), 0.0) for p, v in zip(free, x)}
        )

    def residuals(x: np.ndarray) -> np.ndarray:
        model = build(x)
        res = []
        for size, lat in latency_points:
            res.append((model.message_latency(size) - lat) / lat)
        for size, bw in bandwidth_points:
            res.append((model.streaming_bandwidth(size) - bw) / bw)
        return np.asarray(res)

    fit = least_squares(
        residuals,
        x0,
        x_scale=scale,
        bounds=(0.0, np.inf),
        xtol=1e-12,
        ftol=1e-12,
    )
    return build(fit.x)
