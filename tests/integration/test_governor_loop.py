"""Acceptance tests for the closed-loop DVS governor.

Pins the governor milestone's contract (the *offline* planner of
:mod:`repro.analysis.governor` keeps its own suite in
``test_governor.py``):

* over the deterministic governed load ramp with an injected engine
  stall, the realized energy per served lookup never exceeds the best
  static grade that can actually carry each load point;
* the live power and latency telemetry at the governor's chosen
  voltage match the analytical model re-evaluated at that operating
  point within the established 1% bound;
* the same control loop drives the sharded tier: reconfig broadcasts
  reach every shard worker and the voltage trajectory matches the
  single-process tier batch for batch, and the per-shard placement
  view tracks each shard's admitted demand;
* decisions respect the policy's slew limit and voltage band;
* inside the fault window the governor trades throughput for watts —
  it sheds rather than raising the rail.

Telemetry regressions ride along: the power sampler must observe the
batch's *measured* duty cycle (not the configured offered-load
fraction), and the queue-wait gauge must be the M/D/1 closed form at
the batch's realized (post-shedding) load, labelled modeled.
"""

import asyncio

import numpy as np
import pytest

from repro.core.metrics import lookup_latency_ns
from repro.experiments.governor import ramp_run
from repro.faults.injectors import EngineStall
from repro.faults.plan import FaultPlan, FaultWindow
from repro.fpga.dvs import dynamic_scale, frequency_scale, static_scale
from repro.fpga.power_report import XPowerAnalyzer
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.obs.power import PowerTelemetrySampler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.power import DvsGovernor, GovernorPolicy
from repro.serve import LookupService, ShardedLookupService
from repro.virt.queueing import md1_wait_ns
from repro.virt.schemes import Scheme

K = 4
RTOL = 0.01
BATCHES_PER_STEP = 3


@pytest.fixture(scope="module")
def ramp():
    """One deterministic governed ramp, shared across the suite."""
    records, service, governor = ramp_run(k=K, batches_per_step=BATCHES_PER_STEP)
    return records, service, governor


def _tables(seed=23):
    return generate_virtual_tables(
        K, 0.5, SyntheticTableConfig(n_prefixes=150, seed=seed)
    )


def _batches(n, seed=7, size=600):
    rng = np.random.default_rng(seed)
    per_vn = size // K
    out = []
    for _ in range(n):
        addresses = rng.integers(0, 2**32, size=per_vn * K, dtype=np.uint32)
        vnids = np.repeat(np.arange(K, dtype=np.int64), per_vn)
        out.append((addresses, vnids))
    return out


class TestEnergyAcceptance:
    def test_never_worse_than_best_feasible_static(self, ramp):
        records, _, _ = ramp
        steady = records[BATCHES_PER_STEP - 1 :: BATCHES_PER_STEP]
        assert steady, "ramp produced no steady-state records"
        for r in steady:
            feasible = [
                b
                for b in (r.static_nominal_nj, r.static_derate_nj)
                if b is not None
            ]
            assert feasible, f"no feasible static grade at load {r.offered_load}"
            assert r.governed_nj <= min(feasible) * (1.0 + RTOL), r

    def test_nominal_grade_always_feasible(self, ramp):
        records, _, _ = ramp
        assert all(r.static_nominal_nj is not None for r in records)


class TestModelAgreement:
    def test_live_power_matches_analytical_at_chosen_voltage(self, ramp):
        _, service, _ = ramp
        sampler = service.power_sampler
        # the point in force for the next batch (on_batch may move the
        # rail *after* that batch's telemetry is published)
        point = service.operating_point
        assert point.voltage < 1.0  # the ramp must actually have moved it
        _, trace = service.serve(*_batches(1, seed=97)[0])
        sample = sampler.last_sample
        # independent analytical path: the base -2 report at the
        # measured activity, re-scaled by the CMOS laws at the chosen
        # voltage (static x V³, dynamic x V²·fmax)
        base = XPowerAnalyzer().report(
            sampler.scenario.placed,
            sampler.scenario.frequency_mhz,
            np.asarray(trace.engine_loads()) * trace.mean_duty_cycle(),
        )
        v = point.voltage
        analytical = base.static_w * static_scale(v) + base.dynamic_w * (
            dynamic_scale(v) * frequency_scale(v)
        )
        assert sample.total_w == pytest.approx(analytical, rel=RTOL)

    def test_live_latency_matches_analytical_at_chosen_voltage(self, ramp):
        _, service, _ = ramp
        # first-principles re-derivation at the governed point: the
        # scaled clock stretches the pipeline, the load concentrates
        # onto the slower engines
        f = service.base_frequency_mhz * frequency_scale(
            service.operating_point.voltage
        )
        rho = service.offered_load_fraction
        analytical = lookup_latency_ns(f, service.n_stages) + md1_wait_ns(rho, f)
        _, trace = service.serve(*_batches(1, seed=101)[0])
        assert trace.latency.total_ns == pytest.approx(analytical, rel=RTOL)

    def test_voltage_stays_inside_band(self, ramp):
        records, _, governor = ramp
        lo, hi = governor.policy.v_min, governor.policy.v_max
        for r in records:
            assert lo <= r.voltage <= hi

    def test_slew_limit_respected(self, ramp):
        _, _, governor = ramp
        slew = governor.policy.slew_volts
        for d in governor.decisions:
            assert abs(d.voltage_after - d.voltage_before) <= slew + 1e-12


class TestFaultWindow:
    def test_trades_throughput_for_watts(self, ramp):
        records, _, governor = ramp
        window = [r for r in records if r.in_fault_window]
        assert window, "the ramp must cross the fault window"
        # throughput given up: every stalled batch sheds
        assert all(r.served_fraction < 1.0 for r in window)
        # ...and watts follow the measured (shed) duty down instead of
        # the governor raising the rail to chase the lost capacity.
        # Decision j is taken after service batch j+1 (the first batch
        # only calibrates), hence the +1 to line the index spaces up.
        window_batches = {r.batch_index for r in window}
        in_window = [
            d for d in governor.decisions if d.batch_index + 1 in window_batches
        ]
        assert in_window
        for d in in_window:
            assert d.action in ("hold", "lower")
        healthy_same_load = [
            r
            for r in records
            if not r.in_fault_window
            and r.offered_load == window[-1].offered_load
            and r.batch_index < window[0].batch_index
        ]
        assert window[-1].total_w <= max(
            r.total_w for r in healthy_same_load
        ) * (1.0 + RTOL)


class TestShardedTier:
    def test_same_trajectory_and_broadcast_reconfig(self):
        async def drive():
            registry = MetricsRegistry(enabled=True)
            service = ShardedLookupService(
                _tables(),
                Scheme.VS,
                n_shards=2,
                transport="inline",
                offered_load_fraction=0.6,
                power_sampler=PowerTelemetrySampler(Scheme.VS, K),
                registry=registry,
                tracer=Tracer(enabled=False),
            )
            governor = DvsGovernor(policy=GovernorPolicy())
            governor.attach(service)
            async with service:
                for addresses, vnids in _batches(5):
                    await service.serve(addresses, vnids)
                shard_points = [
                    h.runtime.service.operating_point for h in service.shards
                ]
                shard_loads = [
                    h.runtime.service.offered_load_fraction
                    for h in service.shards
                ]
            return service, governor, shard_points, shard_loads

        service, governor, shard_points, shard_loads = asyncio.run(drive())
        # the loop moved the rail
        assert service.operating_point.voltage < 1.0
        # reconfig broadcasts apply at the *next* batch, so after N
        # batches every shard runs the decision made at batch N-2
        expected = governor.decisions[-2].voltage_after
        for point, load in zip(shard_points, shard_loads):
            assert point.voltage == pytest.approx(expected)
            assert load == pytest.approx(
                min(0.6 / point.frequency_scale, 0.97)
            )

    def test_single_and_sharded_loops_agree(self):
        async def sharded():
            service = ShardedLookupService(
                _tables(),
                Scheme.VS,
                n_shards=2,
                transport="inline",
                offered_load_fraction=0.7,
                registry=MetricsRegistry(enabled=True),
                tracer=Tracer(enabled=False),
            )
            governor = DvsGovernor(policy=GovernorPolicy())
            governor.attach(service)
            async with service:
                for addresses, vnids in _batches(6):
                    await service.serve(addresses, vnids)
            return [d.voltage_after for d in governor.decisions]

        single = LookupService(
            _tables(),
            Scheme.VS,
            offered_load_fraction=0.7,
            registry=MetricsRegistry(enabled=True),
            tracer=Tracer(enabled=False),
        )
        governor = DvsGovernor(policy=GovernorPolicy())
        governor.attach(single)
        for addresses, vnids in _batches(6):
            single.serve(addresses, vnids)
        single_trajectory = [d.voltage_after for d in governor.decisions]
        sharded_trajectory = asyncio.run(sharded())
        assert sharded_trajectory == pytest.approx(single_trajectory)


    def test_stalled_shard_implies_a_lower_voltage(self):
        """The placement view reads each shard's *admitted* demand off
        the reassembled trace: a shard whose engines are stalled admits
        nothing, so its implied voltage sits below the healthy one's."""
        registry = MetricsRegistry(enabled=True)
        plan = FaultPlan(
            (
                FaultWindow(0, 100, EngineStall(2, 0.0)),
                FaultWindow(0, 100, EngineStall(3, 0.0)),
            )
        )

        async def drive():
            service = ShardedLookupService(
                _tables(),
                Scheme.VS,
                n_shards=2,
                transport="inline",
                offered_load_fraction=0.8,
                fault_plan=plan,
                registry=registry,
                tracer=Tracer(enabled=False),
            )
            DvsGovernor(policy=GovernorPolicy()).attach(service)
            async with service:
                for addresses, vnids in _batches(3):
                    await service.serve(addresses, vnids)

        asyncio.run(drive())
        gauge = registry.get("repro_governor_shard_volts")
        assert gauge is not None
        volts = {labels[1]: child.value for labels, child in gauge.samples()}
        assert set(volts) == {"0", "1"}
        assert volts["1"] < volts["0"]
        assert volts["1"] == pytest.approx(GovernorPolicy().v_min)


class TestTelemetryRegressions:
    """The satellite bugfixes: measured vs configured telemetry."""

    def test_sampler_observes_measured_duty_not_configured_load(self):
        sampler = PowerTelemetrySampler(Scheme.VS, K)
        service = LookupService(
            _tables(),
            Scheme.VS,
            offered_load_fraction=0.9,
            power_sampler=sampler,
            registry=MetricsRegistry(enabled=True),
            tracer=Tracer(enabled=False),
        )
        _, trace = service.serve(*_batches(1)[0])
        # offered (0.9) and realized (the walk's measured duty) loads
        # differ by construction here; the sampler must have been fed
        # the measured one
        duty = trace.mean_duty_cycle()
        assert duty != pytest.approx(0.9, rel=0.5)
        expected = sampler.sample(trace, duty_cycle=duty).total_w
        wrong = sampler.sample(trace, duty_cycle=0.9).total_w
        assert sampler.running_total_w == pytest.approx(expected)
        assert sampler.running_total_w != pytest.approx(wrong, rel=1e-3)

    def test_queue_wait_is_md1_at_realized_load(self):
        registry = MetricsRegistry(enabled=True)
        rho = 0.8
        service = LookupService(
            _tables(),
            Scheme.VS,
            offered_load_fraction=rho,
            registry=registry,
            tracer=Tracer(enabled=False),
        )
        _, trace = service.serve(*_batches(1)[0])
        assert trace.n_shed == 0
        depth = registry.get("repro_serve_queue_depth")
        wait = registry.get("repro_serve_queue_wait_ns")
        assert registry.get("repro_serve_queue_depth_measured") is None
        expected_depth = service.n_engines * rho * rho / (2.0 * (1.0 - rho))
        assert depth.labels("VS").value == pytest.approx(expected_depth)
        # the closed form at the realized load — a nominal batch admits
        # everything, so that is the configured load, exactly
        assert wait.labels("VS").value == md1_wait_ns(rho, service.frequency_mhz)
        for gauge in (depth, wait):
            assert "Modeled" in gauge.help
            assert "Measured" not in gauge.help

    def test_queue_wait_tracks_realized_load_under_shedding(self):
        from repro.faults import EngineStall, FaultPlan, FaultWindow

        registry = MetricsRegistry(enabled=True)
        rho = 0.8
        plan = FaultPlan((FaultWindow(0, 10, EngineStall(1, 0.25)),))
        service = LookupService(
            _tables(),
            Scheme.VS,
            offered_load_fraction=rho,
            fault_plan=plan,
            registry=registry,
            tracer=Tracer(enabled=False),
        )
        _, trace = service.serve(*_batches(1)[0])
        assert trace.n_shed > 0
        wait = registry.get("repro_serve_queue_wait_ns").labels("VS").value
        realized = rho * trace.n_admitted / trace.n_packets
        assert wait == md1_wait_ns(realized, service.frequency_mhz)
        # shedding lowers the realized load, so the wait sits below
        # the configured-load value
        assert wait < md1_wait_ns(rho, service.frequency_mhz)
