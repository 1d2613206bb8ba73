"""Unit tests for power telemetry and serve instrumentation (repro.obs)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ObservabilityError
from repro.fpga.dvs import OperatingPoint
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.obs.power import PowerTelemetrySampler
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.obs.tracing import TRACER
from repro.serve import LookupService
from repro.virt.schemes import Scheme

K = 3


@pytest.fixture(scope="module")
def tables():
    return generate_virtual_tables(K, 0.5, SyntheticTableConfig(n_prefixes=250, seed=21))


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(5)
    addresses = rng.integers(0, 1 << 32, size=300, dtype=np.uint64).astype(np.uint32)
    vnids = np.repeat(np.arange(K, dtype=np.int64), 100)
    return addresses, vnids


@pytest.fixture()
def obs_enabled():
    """Enable the process-wide registry+tracer, restore/clean afterwards."""
    REGISTRY.enable()
    TRACER.enable()
    yield REGISTRY
    REGISTRY.disable()
    TRACER.disable()
    REGISTRY.clear()
    TRACER.drain()


def make_sampler(scheme, *, k=K, registry=None):
    alpha = 0.8 if scheme is Scheme.VM else None
    return PowerTelemetrySampler(scheme, k, alpha=alpha, registry=registry)


class TestPerVnAttribution:
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_per_vn_sums_to_total(self, tables, batch, scheme):
        service = LookupService(tables, scheme)
        _, trace = service.serve(*batch)
        sample = make_sampler(scheme).sample(trace)
        assert sum(sample.per_vn_w) == pytest.approx(sample.total_w, rel=1e-12)

    def test_nv_charges_whole_devices(self, tables, batch):
        """NV per-VN power includes a full device's static share each."""
        _, trace = LookupService(tables, Scheme.NV).serve(*batch)
        sample = make_sampler(Scheme.NV).sample(trace)
        assert all(w > sample.static_w / K * 0.99 for w in sample.per_vn_w)

    def test_vm_attribution_follows_lookup_share(self, tables):
        """A VN sending more lookups is charged more dynamic power."""
        rng = np.random.default_rng(9)
        addresses = rng.integers(0, 1 << 32, size=300, dtype=np.uint64).astype(np.uint32)
        vnids = np.concatenate(
            [np.zeros(200, dtype=np.int64), np.ones(50, dtype=np.int64),
             np.full(50, 2, dtype=np.int64)]
        )
        REGISTRY.enable()
        try:
            _, trace = LookupService(tables, Scheme.VM).serve(addresses, vnids)
        finally:
            REGISTRY.disable()
            REGISTRY.clear()
            TRACER.drain()
        assert trace.vn_counts == (200, 50, 50)
        sample = make_sampler(Scheme.VM).sample(trace)
        assert sample.per_vn_w[0] > sample.per_vn_w[1]
        assert sample.per_vn_w[1] == pytest.approx(sample.per_vn_w[2])

    def test_per_vn_gbps_and_efficiency(self, tables, batch):
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        sample = make_sampler(Scheme.VS).sample(trace, duty_cycle=0.5)
        assert sum(sample.per_vn_gbps) == pytest.approx(
            sample.throughput_gbps * 0.5, rel=1e-12
        )
        assert all(np.isfinite(sample.per_vn_mw_per_gbps()))


class TestSamplerValidation:
    def test_scheme_mismatch_rejected(self, tables, batch):
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        with pytest.raises(ObservabilityError):
            make_sampler(Scheme.VM).sample(trace)

    def test_engine_count_mismatch_rejected(self, tables, batch):
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        with pytest.raises(ObservabilityError):
            make_sampler(Scheme.VS, k=K + 1).sample(trace)

    def test_bad_duty_cycle_rejected(self, tables, batch):
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        with pytest.raises(ConfigurationError):
            make_sampler(Scheme.VS).sample(trace, duty_cycle=-0.1)
        with pytest.raises(ConfigurationError):
            make_sampler(Scheme.VS).sample(trace, duty_cycle=1.5)

    def test_bad_write_rate_rejected(self, tables, batch):
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        for rate in (-0.01, 1.5):
            with pytest.raises(ConfigurationError):
                make_sampler(Scheme.VS).sample(trace, write_rate=rate)

    def test_engine_activity_above_one_rejected(self, tables, batch):
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        # an engine claiming more lookups than the batch offered
        object.__setattr__(trace, "n_packets", trace.n_packets // 10)
        with pytest.raises(ConfigurationError):
            make_sampler(Scheme.VS).sample(trace)

    def test_idle_duty_cycle_is_static_only(self, tables, batch):
        """duty_cycle=0 models an idle device: static watts, zero Gbps."""
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        sample = make_sampler(Scheme.VS).sample(trace, duty_cycle=0.0)
        assert sample.static_w > 0.0
        assert sample.dynamic_w == pytest.approx(0.0, abs=1e-9)
        assert sample.per_vn_gbps == (0.0,) * K

    def test_vn_count_length_mismatch_rejected(self, tables, batch):
        REGISTRY.enable()
        try:
            _, trace = LookupService(tables, Scheme.VM).serve(*batch)
        finally:
            REGISTRY.disable()
            REGISTRY.clear()
            TRACER.drain()
        sampler = make_sampler(Scheme.VM)
        object.__setattr__(trace, "vn_counts", (1, 2))
        with pytest.raises(ObservabilityError):
            sampler.sample(trace)


class TestRunningTelemetry:
    def test_packet_weighted_running_mean(self, tables, batch):
        sampler = make_sampler(Scheme.VS, registry=MetricsRegistry())
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        first = sampler.observe(trace, duty_cycle=1.0)
        second = sampler.observe(trace, duty_cycle=0.5)
        assert sampler.batches_observed == 2
        assert sampler.packets_observed == 2 * trace.n_packets
        expected = (first.total_w + second.total_w) / 2
        assert sampler.running_total_w == pytest.approx(expected)
        assert sum(sampler.running_per_vn_w) == pytest.approx(sampler.running_total_w)
        assert sampler.running_mw_per_gbps > 0

    def test_empty_history_reports_zero(self):
        sampler = make_sampler(Scheme.VS, registry=MetricsRegistry())
        assert sampler.running_total_w == 0.0
        assert sampler.running_mw_per_gbps == 0.0
        assert sampler.running_per_vn_w == (0.0,) * K


class TestPublish:
    def test_gauges_published_when_enabled(self, tables, batch):
        registry = MetricsRegistry(enabled=True)
        sampler = make_sampler(Scheme.VS, registry=registry)
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        sample = sampler.observe(trace)
        total = registry.get("repro_power_total_watts").labels("VS", "G2")
        assert total.value == pytest.approx(sample.total_w)
        components = registry.get("repro_power_component_watts")
        summed = sum(child.value for _, child in components.samples())
        assert summed == pytest.approx(sample.total_w)
        vn = registry.get("repro_power_vn_watts")
        assert sum(child.value for _, child in vn.samples()) == pytest.approx(
            sample.total_w
        )

    def test_cached_gauges_follow_a_cleared_registry(self, tables, batch):
        """publish() reuses its gauge children, but a reset or clear
        orphans them, so the next reading lands in the live registry."""
        registry = MetricsRegistry(enabled=True)
        sampler = make_sampler(Scheme.VS, registry=registry)
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        for drop in (registry.reset, registry.clear, lambda: None):
            sampler.observe(trace)
            total = registry.get("repro_power_total_watts").labels("VS", "G2")
            assert total.value == pytest.approx(sampler.last_sample.total_w)
            vn = registry.get("repro_power_vn_watts")
            assert len(list(vn.samples())) == K
            drop()

    def test_disabled_registry_not_touched(self, tables, batch):
        registry = MetricsRegistry(enabled=False)
        sampler = make_sampler(Scheme.VS, registry=registry)
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        sampler.observe(trace)
        assert registry.collect() == []


class TestServeInstrumentation:
    def test_fast_path_skips_vn_counts(self, tables, batch):
        _, trace = LookupService(tables, Scheme.VS).serve(*batch)
        assert trace.vn_counts == ()
        assert trace.vn_loads().size == 0

    def test_enabled_path_tracks_vn_counts_and_metrics(self, tables, batch, obs_enabled):
        service = LookupService(tables, Scheme.VS)
        _, trace = service.serve(*batch)
        assert trace.vn_counts == (100, 100, 100)
        assert np.allclose(trace.vn_loads(), 1.0 / K)
        registry = obs_enabled
        assert registry.get("repro_serve_batches_total").labels("VS").value == 1.0
        lookups = registry.get("repro_serve_lookups_total")
        assert sum(c.value for _, c in lookups.samples()) == trace.n_packets
        latency = registry.get("repro_serve_batch_latency_seconds").labels("VS")
        assert latency.count == 1
        assert registry.get("repro_serve_duty_cycle").labels("VS").value > 0.0
        assert registry.get("repro_serve_queue_depth").labels("VS").value > 0.0

    def test_cached_metric_children_follow_reset_clear_and_reclock(self, tables, batch):
        registry = MetricsRegistry(enabled=True)
        service = LookupService(tables, Scheme.VS, registry=registry)

        def batches_total():
            return registry.get("repro_serve_batches_total").labels("VS").value

        service.serve(*batch)
        service.serve(*batch)
        assert batches_total() == 2.0
        registry.reset()
        service.serve(*batch)
        assert batches_total() == 1.0
        registry.clear()
        service.serve(*batch)
        assert batches_total() == 1.0
        lookups = registry.get("repro_serve_lookups_total")
        assert sum(c.value for _, c in lookups.samples()) == len(batch[0])
        service.apply_operating_point(OperatingPoint(0.9))
        service.serve(*batch)
        assert batches_total() == 2.0
        assert registry.get("repro_serve_duty_cycle").labels("VS").value > 0.0

    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_vn_counts_equal_the_bincount_of_vnids(self, tables, scheme, obs_enabled):
        """NV/VS read the counts off the per-engine traces, VM bincounts
        the VNIDs: both agree with counting the batch, empty VNs too."""
        rng = np.random.default_rng(11)
        addresses = rng.integers(0, 1 << 32, size=500, dtype=np.uint64).astype(np.uint32)
        vnids = rng.choice([0, 2], size=500, p=[0.7, 0.3]).astype(np.int64)
        _, trace = LookupService(tables, scheme).serve(addresses, vnids)
        expected = tuple(np.bincount(vnids, minlength=K).tolist())
        assert trace.vn_counts == expected
        assert all(type(c) is int for c in trace.vn_counts)

    def test_results_identical_with_and_without_metrics(self, tables, batch, obs_enabled):
        service = LookupService(tables, Scheme.VM)
        instrumented, _ = service.serve(*batch)
        obs_enabled.disable()
        TRACER.disable()
        plain, _ = service.serve(*batch)
        assert np.array_equal(instrumented, plain)

    def test_serve_emits_span_with_power(self, tables, batch, obs_enabled):
        sampler = make_sampler(Scheme.VS)
        service = LookupService(tables, Scheme.VS, power_sampler=sampler)
        service.serve(*batch)
        span = next(s for s in TRACER.spans() if s.name == "serve.batch")
        assert span.attributes["scheme"] == "VS"
        assert span.attributes["n_packets"] == 300
        assert span.attributes["power_total_w"] > 0.0
        assert sampler.batches_observed == 1

    def test_trie_node_visits_counted(self, tables, batch, obs_enabled):
        LookupService(tables, Scheme.VS).serve(*batch)
        LookupService(tables, Scheme.VM).serve(*batch)
        visits = obs_enabled.get("repro_trie_node_visits_total")
        values = {key[0]: child.value for key, child in visits.samples()}
        # every packet touches at least the root on both structures
        assert values["unibit"] >= 300
        assert values["merged"] >= 300


class TestPerBatchCost:
    """An instrumented batch costs arithmetic, not a re-evaluation.

    The sampler runs the reporter once, at construction; the queue
    wait is the closed form.  Counters wrapped around
    ``XPowerAnalyzer.report`` and every module binding of
    ``simulate_md1_waits`` must stay at zero across metered batches on
    both tiers.
    """

    @pytest.fixture()
    def calls(self, monkeypatch):
        import sys

        from repro.fpga.power_report import XPowerAnalyzer
        from repro.virt import queueing

        counts = {"report": 0, "simulate_md1_waits": 0}
        report = XPowerAnalyzer.report
        simulate = queueing.simulate_md1_waits

        def counted_report(self, *args, **kwargs):
            counts["report"] += 1
            return report(self, *args, **kwargs)

        def counted_simulate(*args, **kwargs):
            counts["simulate_md1_waits"] += 1
            return simulate(*args, **kwargs)

        monkeypatch.setattr(XPowerAnalyzer, "report", counted_report)
        for module in list(sys.modules.values()):
            if getattr(module, "simulate_md1_waits", None) is simulate:
                monkeypatch.setattr(module, "simulate_md1_waits", counted_simulate)
        return counts

    def test_sync_tier(self, tables, batch, calls):
        sampler = make_sampler(Scheme.VS, registry=MetricsRegistry())
        calls["report"] = 0
        service = LookupService(
            tables,
            Scheme.VS,
            registry=MetricsRegistry(enabled=True),
            power_sampler=sampler,
        )
        for _ in range(3):
            service.serve(*batch)
        assert sampler.batches_observed == 3
        assert calls == {"report": 0, "simulate_md1_waits": 0}

    def test_inline_sharded_tier(self, tables, batch, calls):
        import asyncio

        from repro.serve import ShardedLookupService

        sampler = make_sampler(Scheme.VS, registry=MetricsRegistry())
        calls["report"] = 0

        async def go():
            async with ShardedLookupService(
                tables,
                Scheme.VS,
                transport="inline",
                registry=MetricsRegistry(enabled=True),
                power_sampler=sampler,
            ) as service:
                for _ in range(3):
                    await service.serve(*batch)

        asyncio.run(go())
        assert sampler.batches_observed == 3
        assert calls == {"report": 0, "simulate_md1_waits": 0}
