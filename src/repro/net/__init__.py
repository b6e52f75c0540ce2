"""Transport cost models and calibration.

* :class:`~repro.net.model.ProtocolCostModel` — LogGP-style pipelined
  three-stage model (sender host / wire / receiver host).
* :mod:`repro.net.calibration` — parameter sets calibrated to the
  paper's Figure 4 (``TCP_CLAN_LANE``, ``SOCKETVIA_CLAN``, ``VIA_CLAN``).
"""

from repro.net.calibration import (
    MODELS,
    PAPER_MICROBENCH,
    PAPER_RESULTS,
    SOCKETVIA_CLAN,
    TCP_CLAN_LANE,
    VIA_CLAN,
    get_model,
)
from repro.net.message import Message
from repro.net.model import ProtocolCostModel

__all__ = [
    "ProtocolCostModel",
    "Message",
    "MODELS",
    "get_model",
    "TCP_CLAN_LANE",
    "SOCKETVIA_CLAN",
    "VIA_CLAN",
    "PAPER_MICROBENCH",
    "PAPER_RESULTS",
]
