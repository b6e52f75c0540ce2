"""Retry with exponential backoff and deterministic jitter.

The resilience half of the fault subsystem: a :class:`RetryPolicy`
bounds each connection attempt with a timeout and spaces re-attempts
with exponentially growing delays.  Jitter — the fraction of each
delay randomized to de-synchronize competing retriers — draws from a
``random.Random(f"{seed}:{key}")`` stream keyed by the connection
(client host, server host, port), so a retry schedule is a pure
function of the policy and the connection: bit-identical across runs
and across executor workers.

Used by :meth:`repro.transport.base.StackBase._connect_endpoint`, the
active open of the TCP stack (pass ``retry=RetryPolicy(...)`` to
``ProtocolAPI(cluster, "tcp", ...)``); SocketVIA connects through the
VIA NIC and a UDP connect sends nothing, so neither stack accepts the
option.  On exhaustion the stack raises :class:`repro.errors.RetryExhausted`
carrying the attempt count and the backoff schedule actually waited.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.errors import FaultPlanError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Connect retry schedule: ``max_attempts`` tries, each bounded by
    ``attempt_timeout`` seconds, separated by
    ``base_delay * multiplier**i`` seconds (i = 0 for the first retry),
    each delay stretched by up to ``jitter`` of itself."""

    max_attempts: int = 4
    attempt_timeout: float = 2e-3
    base_delay: float = 200e-6
    multiplier: float = 2.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultPlanError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.attempt_timeout <= 0:
            raise FaultPlanError(
                f"attempt_timeout must be > 0, got {self.attempt_timeout}")
        if self.base_delay < 0 or self.multiplier < 1:
            raise FaultPlanError("base_delay >= 0 and multiplier >= 1 required")
        if not 0.0 <= self.jitter <= 1.0:
            raise FaultPlanError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self, key: str = "") -> List[float]:
        """The ``max_attempts - 1`` backoff delays for connection *key*
        (deterministic: same policy + key → same schedule)."""
        rng = random.Random(f"{self.seed}:{key}") if self.jitter else None
        out = []
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            step = delay
            if rng is not None:
                step *= 1.0 + self.jitter * rng.random()
            out.append(step)
            delay *= self.multiplier
        return out
