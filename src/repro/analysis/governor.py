"""Operating-point governor: meet a throughput demand at minimum power.

The paper's Section VI-B conclusion — "low power FPGAs are suitable in
environments where throughput is not the major concern" — implies a
selection problem: given a demand, pick the speed grade, scheme and
operating frequency that satisfy it at the least power.  The governor
solves that by sweeping the feasible design points and also exposes
the underlying power/throughput Pareto frontier.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import ScenarioConfig
from repro.core.estimator import ScenarioEstimator
from repro.errors import CapacityError, ConfigurationError, ReproError
from repro.fpga.speedgrade import SpeedGrade
from repro.units import w_to_mw
from repro.virt.schemes import Scheme

__all__ = ["DesignPoint", "plan_operating_point", "pareto_frontier"]


@dataclass(frozen=True)
class DesignPoint:
    """One feasible (scheme, grade, frequency) choice and its cost.

    A design-time choice; the DVS voltage point a running tier is
    re-clocked to is :class:`repro.fpga.dvs.OperatingPoint`.
    """

    scheme: Scheme
    grade: SpeedGrade
    alpha: float | None
    frequency_mhz: float
    total_power_w: float
    capacity_gbps: float

    @property
    def mw_per_gbps(self) -> float:
        """Efficiency of this design point."""
        return w_to_mw(self.total_power_w) / self.capacity_gbps

    def describe(self) -> str:
        """One-line summary for reports."""
        scheme = (
            f"VM(a={self.alpha:g})"
            if self.scheme is Scheme.VM and self.alpha is not None
            else self.scheme.name
        )
        return (
            f"{scheme} grade {self.grade} @ {self.frequency_mhz:.0f} MHz: "
            f"{self.total_power_w:.2f} W for {self.capacity_gbps:.0f} Gbps"
        )


def _candidate_points(
    k: int,
    alpha: float,
    schemes,
    frequency_steps: int,
) -> list[DesignPoint]:
    estimator = ScenarioEstimator()
    points: list[DesignPoint] = []
    for scheme in schemes:
        a = alpha if scheme is Scheme.VM else None
        for grade in SpeedGrade:
            base = ScenarioConfig(scheme=scheme, k=k, grade=grade, alpha=a)
            try:
                at_fmax = estimator.evaluate(base)
            except ReproError:
                continue
            fmax = at_fmax.fmax_mhz
            for fraction in np.linspace(1.0 / frequency_steps, 1.0, frequency_steps):
                f = fmax * float(fraction)
                result = (
                    at_fmax
                    if fraction >= 1.0  # linspace endpoint is exact
                    else estimator.evaluate(replace(base, frequency_mhz=f))
                )
                points.append(
                    DesignPoint(
                        scheme=scheme,
                        grade=grade,
                        alpha=a,
                        frequency_mhz=result.frequency_mhz,
                        total_power_w=result.experimental.total_w,
                        capacity_gbps=result.throughput_gbps,
                    )
                )
    return points


def plan_operating_point(
    demand_gbps: float,
    k: int,
    *,
    alpha: float = 0.8,
    schemes: Sequence[Scheme] = (Scheme.VS, Scheme.VM),
    frequency_steps: int = 8,
) -> DesignPoint:
    """Cheapest operating point meeting an aggregate demand.

    Parameters
    ----------
    demand_gbps:
        Required aggregate lookup capacity.
    k:
        Number of virtual networks.
    alpha:
        Merging efficiency assumed for VM candidates.
    schemes:
        Candidate schemes (NV included only if passed explicitly).
    frequency_steps:
        Frequency grid resolution between 0 and fmax per candidate.

    Raises :class:`CapacityError` if no candidate meets the demand.
    """
    if demand_gbps <= 0:
        raise ConfigurationError("demand must be positive")
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    feasible = [
        p
        for p in _candidate_points(k, alpha, schemes, frequency_steps)
        if p.capacity_gbps >= demand_gbps
    ]
    if not feasible:
        raise CapacityError(
            f"no candidate sustains {demand_gbps:.1f} Gbps for K={k}"
        )
    return min(feasible, key=lambda p: (p.total_power_w, -p.capacity_gbps))


def pareto_frontier(
    k: int,
    *,
    alpha: float = 0.8,
    schemes: Sequence[Scheme] = (Scheme.VS, Scheme.VM),
    frequency_steps: int = 8,
) -> list[DesignPoint]:
    """Power/throughput Pareto frontier over the candidate space.

    Returns points sorted by capacity where no other point has both
    more capacity and less power.
    """
    points = _candidate_points(k, alpha, schemes, frequency_steps)
    points.sort(key=lambda p: (p.capacity_gbps, p.total_power_w))
    frontier: list[DesignPoint] = []
    best_power = float("inf")
    for point in reversed(points):  # descending capacity
        if point.total_power_w < best_power - 1e-12:
            frontier.append(point)
            best_power = point.total_power_w
    frontier.reverse()
    return frontier
