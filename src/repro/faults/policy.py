"""Graceful-degradation policy knobs for the serving layer.

The paper's transparency requirement (Section I) guarantees each
virtual network its admitted throughput and latency — but only up to
the engine's capacity.  When a fault removes capacity, NV/VS cannot
reroute (engine *i* holds only VN *i*'s table by construction), so the
only transparent response is *bounded admission*: keep every admitted
lookup inside a stable M/D/1 operating point and shed (and count) the
excess.  :class:`DegradationPolicy` packages the three knobs that
behaviour needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["DegradationPolicy", "SHED_RESULT"]

#: next-hop sentinel returned for lookups shed by admission control —
#: distinguishable from every real NHI (which are >= 0) and from
#: :data:`repro.iplookup.rib.NO_ROUTE` (-1), the no-route answer the
#: tables themselves produce
SHED_RESULT: int = -2


@dataclass(frozen=True)
class DegradationPolicy:
    """How the serving layer degrades under active faults.

    The sharded tier hands the same policy to every shard's
    :class:`~repro.serve.service.LookupService`; its front end adds
    no knob of its own.

    Attributes
    ----------
    shed_utilization:
        Highest per-engine M/D/1 utilization admission control allows
        on a degraded engine, in (0, 1).  Offered load beyond
        ``shed_utilization × degraded capacity`` is shed per VN (the
        M/D/1 wait diverges at utilization 1, so admitting more would
        break the latency guarantee for everything already admitted).
    max_retries:
        Walk retries after a transient engine failure before the
        engine's share of the batch is shed.
    backoff_base_s:
        Base of the exponential retry backoff: retry *n* sleeps
        ``backoff_base_s * 2**n`` seconds.  0 (the default) retries
        immediately — the simulated faults are deterministic, so
        waiting buys nothing in-process; set it when fronting a real
        transient resource.
    """

    shed_utilization: float = 0.95
    max_retries: int = 2
    backoff_base_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.shed_utilization < 1.0:
            raise ConfigurationError(
                "shed_utilization must be in (0, 1) for a stable queue, "
                f"got {self.shed_utilization}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ConfigurationError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (0-based), in seconds."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        return self.backoff_base_s * (2.0**attempt)

    def wait(self, attempt: int) -> None:
        """Sleep out the backoff for retry ``attempt`` (no-op at base 0)."""
        delay = self.backoff_s(attempt)
        if delay > 0:
            time.sleep(delay)
