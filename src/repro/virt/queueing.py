"""Queueing latency at the lookup engine's input.

Virtualization must be "transparent to the user ... ensuring the
throughput and latency requirements guaranteed originally" (paper
Section I).  The pipeline latency itself is fixed (N+1 cycles), but a
*shared* engine also queues: packets of all K networks contend for the
merged engine's single admission slot, while the separate scheme
queues per engine at K-times-lower arrival rate.

The lookup engine is a fixed-service-time server — one lookup per
cycle — so the M/D/1 model applies: with utilization ρ and service
time s, the mean wait is

    W = ρ · s / (2 · (1 − ρ))

This module evaluates that per scheme and exposes the latency-vs-load
curves the paper's transparency requirement implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import lookup_latency_ns
from repro.errors import CapacityError, ConfigurationError
from repro.units import mhz_to_hz, s_to_ns

__all__ = [
    "md1_wait_ns",
    "LatencyReport",
    "scheme_latency_ns",
    "degraded_latency_ns",
    "simulate_md1_waits",
]


def md1_wait_ns(utilization: float, frequency_mhz: float) -> float:
    """Mean M/D/1 queueing wait before a one-cycle server, in ns.

    ``utilization`` is the offered load as a fraction of the engine's
    line rate; at ρ → 1 the wait diverges (the engine saturates).
    """
    if not 0.0 <= utilization < 1.0:
        raise CapacityError(
            f"utilization must be in [0, 1) for a stable queue, got {utilization}"
        )
    if frequency_mhz <= 0:
        raise ConfigurationError("frequency must be positive")
    service_ns = s_to_ns(1.0 / mhz_to_hz(frequency_mhz))  # one cycle
    return utilization * service_ns / (2.0 * (1.0 - utilization))


@dataclass(frozen=True)
class LatencyReport:
    """Mean per-packet latency decomposition for one scheme."""

    scheme_label: str
    frequency_mhz: float
    pipeline_ns: float
    queueing_ns: float

    @property
    def total_ns(self) -> float:
        """Mean end-to-end lookup latency."""
        return self.pipeline_ns + self.queueing_ns


def scheme_latency_ns(
    scheme_label: str,
    aggregate_load_gbps: float,
    engine_capacity_gbps: float,
    n_engines: int,
    frequency_mhz: float,
    n_stages: int = 28,
) -> LatencyReport:
    """Latency of a scheme serving ``aggregate_load_gbps``.

    The aggregate load splits evenly over ``n_engines`` (1 for the
    merged scheme, K for NV/VS); each engine is an M/D/1 server at
    the resulting utilization.
    """
    if aggregate_load_gbps < 0 or engine_capacity_gbps <= 0:
        raise ConfigurationError("loads and capacities must be positive")
    if n_engines < 1:
        raise ConfigurationError("n_engines must be >= 1")
    per_engine = aggregate_load_gbps / n_engines
    utilization = per_engine / engine_capacity_gbps
    if utilization >= 1.0:
        raise CapacityError(
            f"{scheme_label}: per-engine load {per_engine:.1f} Gbps saturates "
            f"the {engine_capacity_gbps:.1f} Gbps engine"
        )
    return LatencyReport(
        scheme_label=scheme_label,
        frequency_mhz=frequency_mhz,
        pipeline_ns=lookup_latency_ns(frequency_mhz, n_stages),
        queueing_ns=md1_wait_ns(utilization, frequency_mhz),
    )


def degraded_latency_ns(
    scheme_label: str,
    utilizations: np.ndarray,
    frequencies_mhz: np.ndarray,
    load_weights: np.ndarray,
    n_stages: int = 28,
) -> LatencyReport:
    """Admitted-load-weighted latency of a *heterogeneously* loaded scheme.

    Where :func:`scheme_latency_ns` assumes every engine sees the same
    utilization at the same clock, a fault (engine stall, write storm)
    breaks that symmetry: each engine now runs its own M/D/1 queue at
    its own effective clock.  The mean admitted packet's latency is the
    per-engine latency weighted by each engine's share of the admitted
    load.

    Parameters
    ----------
    scheme_label:
        Scheme name carried into the report.
    utilizations:
        Per-engine M/D/1 utilization in [0, 1) — *after* admission
        shedding, so always stable.
    frequencies_mhz:
        Per-engine effective clock; an offline engine may carry 0 but
        must then also carry 0 weight.
    load_weights:
        Per-engine admitted lookup counts (or any proportional
        measure).  Engines with zero weight serve nothing and are
        excluded; if every weight is zero (the whole batch was shed)
        the report degenerates to zero latency — nothing was admitted,
        so no admitted packet has a latency.
    n_stages:
        Pipeline depth of every engine.
    """
    utilizations = np.asarray(utilizations, dtype=float)
    frequencies_mhz = np.asarray(frequencies_mhz, dtype=float)
    load_weights = np.asarray(load_weights, dtype=float)
    if not utilizations.shape == frequencies_mhz.shape == load_weights.shape:
        raise ConfigurationError(
            "utilizations, frequencies and weights must have the same shape"
        )
    if utilizations.ndim != 1 or len(utilizations) == 0:
        raise ConfigurationError("need at least one engine")
    if (load_weights < 0).any():
        raise ConfigurationError("load weights must be non-negative")
    total = load_weights.sum()
    if total == 0:
        return LatencyReport(
            scheme_label=scheme_label,
            frequency_mhz=float(frequencies_mhz.max()),
            pipeline_ns=0.0,
            queueing_ns=0.0,
        )
    # vectorized over engines — this runs once per served batch under
    # faults, so the per-engine Python loop it replaces was hot-path
    # work.  Error semantics match the loop exactly: zero-weight
    # engines are excluded *before* any validation, so an offline
    # engine may carry a zero (or bogus) clock or utilization as long
    # as it serves nothing, and only loaded engines are checked.
    served = load_weights > 0
    u = utilizations[served]
    f = frequencies_mhz[served]
    if (f <= 0).any():
        raise ConfigurationError(
            "an engine with admitted load must have a positive clock"
        )
    if ((u < 0.0) | (u >= 1.0)).any():
        bad = float(u[(u < 0.0) | (u >= 1.0)][0])
        raise CapacityError(
            f"utilization must be in [0, 1) for a stable queue, got {bad}"
        )
    shares = load_weights[served] / total
    # same expressions as lookup_latency_ns / md1_wait_ns, element-wise
    service_ns = s_to_ns(1.0 / mhz_to_hz(f))  # one cycle per lookup
    pipeline = shares * s_to_ns((n_stages + 1) / mhz_to_hz(f))
    queueing = shares * (u * service_ns / (2.0 * (1.0 - u)))
    return LatencyReport(
        scheme_label=scheme_label,
        frequency_mhz=float(frequencies_mhz.max()),
        pipeline_ns=float(pipeline.sum()),
        queueing_ns=float(queueing.sum()),
    )


def simulate_md1_waits(
    utilization: float,
    frequency_mhz: float,
    n_arrivals: int,
    seed: int,
) -> np.ndarray:
    """Simulated per-packet M/D/1 queueing waits via the Lindley recursion.

    Where :func:`md1_wait_ns` gives the *model's* steady-state mean,
    this simulates the queue itself: Poisson arrivals at rate
    ``utilization × frequency`` against a deterministic one-cycle
    server, through the Lindley recursion

        W_k = max(0, W_{k-1} + S − A_k)

    with service time ``S = 1/f`` and exponential inter-arrival gaps
    ``A_k``.  Vectorized as the reflected random walk
    ``W_k = C_k − min_{j≤k} C_j`` over ``C = cumsum(S − A)``, so tens
    of thousands of arrivals simulate at numpy speed.  Deterministic in
    ``seed``.  A model utility, not a serve-path measurement: the tiers
    publish :func:`md1_wait_ns` in closed form, and the unit suite
    checks this simulation's mean against it.

    Returns the per-arrival waits in nanoseconds (length
    ``n_arrivals``).
    """
    if not 0.0 <= utilization < 1.0:
        raise CapacityError(
            f"utilization must be in [0, 1) for a stable queue, got {utilization}"
        )
    if frequency_mhz <= 0:
        raise ConfigurationError("frequency must be positive")
    if n_arrivals < 1:
        raise ConfigurationError(f"n_arrivals must be >= 1, got {n_arrivals}")
    service_ns = s_to_ns(1.0 / mhz_to_hz(frequency_mhz))  # one cycle
    if utilization <= 0.0:
        return np.zeros(n_arrivals)
    rng = np.random.default_rng(seed)
    # inter-arrival gaps ~ Exp(rate), rate = utilization / service time
    gaps_ns = rng.exponential(service_ns / utilization, size=n_arrivals)
    steps = service_ns - gaps_ns
    walk = np.concatenate(([0.0], np.cumsum(steps)))
    waits = walk - np.minimum.accumulate(walk)
    return waits[1:]
