"""Closed-loop DVS governor: measured load in, operating voltage out.

The paper's -2 vs -1L comparison is a *static* choice between two
operating points; :mod:`repro.fpga.dvs` generalizes it to a continuous
voltage space.  This module closes the loop: a :class:`DvsGovernor`
attached to a :class:`~repro.serve.service.LookupService` or
:class:`~repro.serve.frontend.ShardedLookupService` samples the live
``repro_serve_duty_cycle`` and ``repro_serve_queue_wait_ns`` gauges
after every served batch, estimates the *demand* (offered load as a
fraction of the base -2 clock), and picks the minimum voltage whose
scaled fmax still carries that demand with headroom — the classic
race-to-idle inversion, evaluated through the closed-form
:func:`repro.fpga.dvs.voltage_for_frequency_scale`.

Control law
-----------
1. **Calibrate** once: the first observed batch fixes the workload's
   intrinsic memory activity ``A = duty / utilization`` (walk depth
   distribution), which converts the measured duty cycle back into a
   utilization estimate on every later batch.
2. **Estimate demand**: ``demand = (duty / A) x fmax_scale`` — the
   offered load re-expressed against the base clock, so it is
   invariant under the governor's own re-clocking.
3. **Pick the point**: target fmax scale = ``demand / headroom``,
   clamped to the policy's voltage band, inverted in closed form to
   the minimum sustaining voltage.
4. **Queue guard**: a queue wait above the policy budget — the
   modeled M/D/1 wait at the batch's realized load, in closed form —
   overrides the demand estimate and raises the voltage one slew step
   — latency pressure beats energy savings.
5. **Slew-limit and apply**: the voltage moves at most
   ``slew_volts`` per decision; the new point is applied to the
   service (and, through it, the power sampler) and takes effect on
   the *next* batch — the decision never rewrites the telemetry of
   the batch that produced it.

Under fault degradation the measured duty cycle visibly drops (shed
arrival slots idle the pipelines), so the governor lowers the voltage
and the device *trades throughput for watts* — the realized
energy-per-lookup stays at or below the static -2 baseline at every
load point, which the ``governor`` experiment demonstrates against
both static grades.

Everything the loop does is observable: ``repro_governor_*`` gauges
and counters plus a ``governor.decide`` span per decision (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.metrics import energy_per_packet_nj
from repro.errors import ConfigurationError
from repro.fpga.dvs import (
    NOMINAL_VOLTAGE,
    OperatingPoint,
    frequency_scale,
    voltage_for_frequency_scale,
)
from repro.obs.registry import MetricsRegistry, default_registry
from repro.obs.tracing import Tracer, default_tracer
from repro.virt.schemes import Scheme

if TYPE_CHECKING:  # serve imports stay type-only: serve already hooks us
    from repro.serve.service import ServeTrace

__all__ = ["GovernorPolicy", "GovernorDecision", "DvsGovernor"]


class GovernedService(Protocol):
    """What the governor needs from a serving tier (either class)."""

    scheme: Scheme
    offered_load_fraction: float
    frequency_mhz: float
    power_sampler: object

    @property
    def operating_point(self) -> OperatingPoint:
        """The DVS operating point currently in force."""
        ...

    @property
    def n_engines(self) -> int:
        """Engines the tier walks on."""
        ...

    def apply_operating_point(self, point: OperatingPoint) -> None:
        """Re-place the tier at ``point`` (clock, capacity, sampler)."""
        ...


@dataclass(frozen=True)
class GovernorPolicy:
    """Knobs of the control law.

    Attributes
    ----------
    headroom:
        Target utilization of the chosen operating point: the governor
        sizes the clock so the estimated demand fills this fraction of
        it (the rest absorbs bursts).  Must be in (0, 1).
    v_min, v_max:
        Voltage band the governor may move within.  The default band
        is the -1L-plausible derate range — ``v_max = 1.0`` means the
        governor never overclocks the -2 baseline.
    slew_volts:
        Largest per-decision voltage step (rail slew limit).
    queue_wait_budget_ns:
        Input-queue wait (the modeled ``repro_serve_queue_wait_ns``
        gauge) above which latency pressure forces a raise regardless
        of the demand estimate.
    deadband_volts:
        Voltage moves smaller than this are held (no churn on noise).
    """

    headroom: float = 0.85
    v_min: float = 0.7
    v_max: float = NOMINAL_VOLTAGE
    slew_volts: float = 0.05
    queue_wait_budget_ns: float = 50.0
    deadband_volts: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.headroom < 1.0:
            raise ConfigurationError("headroom must be in (0, 1)")
        if not self.v_min < self.v_max:
            raise ConfigurationError("v_min must be below v_max")
        # both ends must be reachable operating points
        frequency_scale(self.v_min)
        frequency_scale(self.v_max)
        if self.slew_volts <= 0.0:
            raise ConfigurationError("slew_volts must be positive")
        if self.queue_wait_budget_ns <= 0.0:
            raise ConfigurationError("queue_wait_budget_ns must be positive")


@dataclass(frozen=True)
class GovernorDecision:
    """One control-loop step, as taken (post slew/deadband clamping)."""

    batch_index: int
    duty_cycle: float
    queue_wait_ns: float
    demand_fraction: float
    voltage_before: float
    voltage_after: float
    action: str  # "raise" | "lower" | "hold"
    queue_pressure: bool


class DvsGovernor:
    """The closed control loop over one serving tier's operating point.

    Attach with :meth:`attach`; the service then calls
    :meth:`on_batch` after each served batch's telemetry is published
    (metrics must be enabled — the loop input *is* the gauge surface).
    One governor drives one service; the voltage is a device-wide rail,
    so the sharded tier gets a single decision broadcast to every
    shard, with the per-shard placement view published as
    ``repro_governor_shard_volts``.
    """

    def __init__(
        self,
        policy: GovernorPolicy | None = None,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.policy = policy if policy is not None else GovernorPolicy()
        self._registry = registry
        self._tracer = tracer
        self._activity: float | None = None
        self.decisions: list[GovernorDecision] = []

    # -- wiring -------------------------------------------------------------

    def attach(self, service: GovernedService) -> "DvsGovernor":
        """Hook this governor into a service's serve path."""
        service._governor = self  # type: ignore[attr-defined]
        return self

    def reset(self) -> None:
        """Drop the activity calibration and decision history."""
        self._activity = None
        self.decisions.clear()

    # -- gauge sampling -----------------------------------------------------

    def _registry_for(self, service: GovernedService) -> MetricsRegistry:
        if self._registry is not None:
            return self._registry
        registry = getattr(service, "_registry", None)
        return registry if registry is not None else default_registry()

    def _tracer_for(self, service: GovernedService) -> Tracer:
        if self._tracer is not None:
            return self._tracer
        tracer = getattr(service, "_tracer", None)
        return tracer if tracer is not None else default_tracer()

    def _read_gauge(
        self, registry: MetricsRegistry, name: str, scheme: str
    ) -> float | None:
        family = registry.get(name)
        if family is None:
            return None
        try:
            return float(family.labels(scheme).value)
        except (KeyError, AttributeError):
            return None

    # -- the control law ----------------------------------------------------

    def _target_voltage(
        self,
        duty: float,
        queue_wait_ns: float,
        point: OperatingPoint,
    ) -> tuple[float, float, bool]:
        """``(raw target voltage, demand fraction, queue pressure?)``."""
        policy = self.policy
        assert self._activity is not None
        utilization = min(duty / self._activity, 1.0)
        demand = utilization * point.frequency_scale
        queue_pressure = queue_wait_ns > policy.queue_wait_budget_ns
        if queue_pressure:
            # latency pressure: step the rail up, ignore the estimate
            return point.voltage + policy.slew_volts, demand, True
        scale = demand / policy.headroom
        lo = frequency_scale(policy.v_min)
        hi = frequency_scale(policy.v_max)
        scale = min(max(scale, lo), hi)
        return voltage_for_frequency_scale(scale), demand, False

    def on_batch(self, service: GovernedService, trace: "ServeTrace") -> None:
        """One control-loop step (called by the serve path per batch).

        Samples the live gauges, updates the operating point for the
        *next* batch, and publishes the governor telemetry.  The first
        batch only calibrates the workload's intrinsic activity.
        """
        registry = self._registry_for(service)
        scheme = service.scheme.name
        duty = self._read_gauge(registry, "repro_serve_duty_cycle", scheme)
        if duty is None:
            duty = trace.mean_duty_cycle()
        queue_wait = self._read_gauge(
            registry, "repro_serve_queue_wait_ns", scheme
        )
        if queue_wait is None:
            queue_wait = 0.0
        point = service.operating_point
        utilization = service.offered_load_fraction
        if self._activity is None:
            if duty <= 0.0 or utilization <= 0.0:
                return  # nothing to calibrate against yet
            self._activity = duty / utilization
            self._publish(service, registry, trace, duty, None)
            return
        with self._tracer_for(service).span(
            "governor.decide", scheme=scheme
        ) as span:
            raw, demand, queue_pressure = self._target_voltage(
                duty, queue_wait, point
            )
            before = point.voltage
            stepped = min(
                max(raw, before - self.policy.slew_volts),
                before + self.policy.slew_volts,
            )
            after = min(max(stepped, self.policy.v_min), self.policy.v_max)
            if abs(after - before) < self.policy.deadband_volts:
                after = before
                action = "hold"
            else:
                action = "raise" if after > before else "lower"
                service.apply_operating_point(OperatingPoint(after))
            decision = GovernorDecision(
                batch_index=len(self.decisions),
                duty_cycle=duty,
                queue_wait_ns=queue_wait,
                demand_fraction=demand,
                voltage_before=before,
                voltage_after=after,
                action=action,
                queue_pressure=queue_pressure,
            )
            self.decisions.append(decision)
            span.set("duty_cycle", duty)
            span.set("demand_fraction", demand)
            span.set("voltage", after)
            span.set("action", action)
            self._publish(service, registry, trace, duty, decision)

    # -- telemetry ----------------------------------------------------------

    def realized_energy_nj(
        self, service: GovernedService, trace: "ServeTrace"
    ) -> float | None:
        """Energy per *served* lookup of the last batch, nanojoules.

        The denominator is the absolute served rate (admissions per
        second), which is invariant under the governor's re-clocking —
        so this number compares directly across operating points and
        against the static baselines.
        """
        sampler = service.power_sampler
        sample = getattr(sampler, "last_sample", None)
        if sample is None:
            return None
        served = trace.n_admitted / trace.n_packets if trace.n_packets else 0.0
        rate_mhz = service.frequency_mhz * service.offered_load_fraction * served
        if rate_mhz <= 0.0:
            return None
        return energy_per_packet_nj(sample.total_w, rate_mhz, service.n_engines)

    def baseline_energy_nj(
        self, service: GovernedService, trace: "ServeTrace"
    ) -> float | None:
        """The static -2 baseline's energy for the *same* served work.

        The sampler's scaling laws factor exactly, so the nominal-point
        power is recoverable from the scaled sample: static divides by
        V³, dynamic by V² (the fmax factor cancels — the same absolute
        work takes proportionally fewer cycles at the faster clock).
        """
        sampler = service.power_sampler
        sample = getattr(sampler, "last_sample", None)
        if sample is None:
            return None
        point = service.operating_point
        nominal_w = (
            sample.static_w / point.static_scale
            + sample.dynamic_w / point.dynamic_scale
        )
        served = trace.n_admitted / trace.n_packets if trace.n_packets else 0.0
        rate_mhz = service.frequency_mhz * service.offered_load_fraction * served
        if rate_mhz <= 0.0:
            return None
        return energy_per_packet_nj(nominal_w, rate_mhz, service.n_engines)

    def _publish(
        self,
        service: GovernedService,
        registry: MetricsRegistry,
        trace: "ServeTrace",
        duty: float,
        decision: GovernorDecision | None,
    ) -> None:
        if not registry.enabled:
            return
        scheme = service.scheme.name
        point = service.operating_point
        registry.gauge(
            "repro_governor_volts",
            "Operating core voltage chosen by the DVS governor",
            labels=("scheme",),
        ).labels(scheme).set(point.voltage)
        registry.gauge(
            "repro_governor_frequency_mhz",
            "Engine clock at the governed operating point",
            labels=("scheme",),
        ).labels(scheme).set(service.frequency_mhz)
        registry.gauge(
            "repro_governor_duty_cycle",
            "Duty-cycle sample the last governor decision consumed",
            labels=("scheme",),
        ).labels(scheme).set(duty)
        if decision is not None:
            registry.gauge(
                "repro_governor_demand_ratio",
                "Estimated offered load as a fraction of the base clock",
                labels=("scheme",),
            ).labels(scheme).set(decision.demand_fraction)
            registry.counter(
                "repro_governor_decisions_total",
                "Governor decisions by action (raise/lower/hold)",
                labels=("scheme", "action"),
            ).labels(scheme, decision.action).inc()
        realized = self.realized_energy_nj(service, trace)
        baseline = self.baseline_energy_nj(service, trace)
        if realized is not None and baseline is not None:
            energy = registry.gauge(
                "repro_governor_energy_nj_per_lookup",
                "Energy per served lookup at the governed point vs the "
                "static nominal baseline",
                labels=("scheme", "variant"),
            )
            energy.labels(scheme, "governed").set(realized)
            energy.labels(scheme, "static_nominal").set(baseline)
        self._publish_shard_view(service, registry, trace, scheme)

    def _publish_shard_view(
        self,
        service: GovernedService,
        registry: MetricsRegistry,
        trace: "ServeTrace",
        scheme: str,
    ) -> None:
        """The power-aware placement view across shards.

        The rail is device-wide, but each shard's admitted demand
        implies the voltage *it alone* would need — the placement
        signal of the PAPERS.md VNF-placement framing: a shard whose
        implied voltage sits far below the rail is a consolidation
        candidate.
        """
        bounds = getattr(service, "bounds", None)
        if bounds is None or not trace.vn_counts or not trace.n_packets:
            return
        gauge = registry.gauge(
            "repro_governor_shard_volts",
            "Minimum voltage each shard's own admitted demand implies",
            labels=("scheme", "shard"),
        )
        lo = frequency_scale(self.policy.v_min)
        hi = frequency_scale(self.policy.v_max)
        # the tier's offered load against the base clock, the same
        # re-clocking-invariant footing as the demand estimate
        offered = (
            service.offered_load_fraction * service.operating_point.frequency_scale
        )
        for shard_id, (vn_lo, vn_hi) in enumerate(zip(bounds, bounds[1:])):
            admitted = sum(trace.vn_counts[vn_lo:vn_hi]) / trace.n_packets
            engines = service.scheme.engines_required(vn_hi - vn_lo)
            share = admitted * offered * service.n_engines / engines
            scale = min(max(share / self.policy.headroom, lo), hi)
            gauge.labels(scheme, shard_id).set(
                voltage_for_frequency_scale(scale)
            )
