"""Unit tests for the metrics registry (repro.obs.registry)."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(4.0)
        g.inc(1.0)
        g.dec(2.0)
        assert g.value == 3.0


class TestHistogramBucketMath:
    def test_le_semantics_on_exact_bound(self):
        """An observation equal to a bound lands in that bound's bucket."""
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        h.observe(2.0)
        assert h.bucket_counts() == (0, 1, 0, 0)

    def test_overflow_lands_in_inf_bucket_only(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.bucket_counts() == (0, 0, 1)
        assert h.cumulative_counts() == (0, 0, 1)

    def test_cumulative_counts_are_running_totals(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 1.5, 3.0, 9.0):
            h.observe(value)
        assert h.bucket_counts() == (2, 1, 1, 1)
        assert h.cumulative_counts() == (2, 3, 4, 5)
        assert h.cumulative_counts()[-1] == h.count

    def test_sum_and_count(self):
        h = Histogram(bounds=(1.0,))
        h.observe(0.25)
        h.observe(4.0)
        assert h.count == 2
        assert h.sum == pytest.approx(4.25)

    def test_default_bounds_strictly_increasing(self):
        assert all(
            b2 > b1
            for b1, b2 in zip(DEFAULT_LATENCY_BUCKETS_S, DEFAULT_LATENCY_BUCKETS_S[1:])
        )

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram(bounds=())


class TestMetricFamily:
    def test_labels_get_or_create(self, registry):
        family = registry.counter("x_total", "x", labels=("scheme",))
        family.labels("VS").inc()
        family.labels("VS").inc()
        family.labels("NV").inc()
        values = {key: child.value for key, child in family.samples()}
        assert values == {("VS",): 2.0, ("NV",): 1.0}

    def test_label_values_are_stringified(self, registry):
        family = registry.gauge("g", "g", labels=("vn",))
        family.labels(3).set(1.0)
        assert family.labels("3").value == 1.0

    def test_label_arity_enforced(self, registry):
        family = registry.counter("y_total", "y", labels=("a", "b"))
        with pytest.raises(ObservabilityError):
            family.labels("only-one")

    def test_labelless_passthroughs(self, registry):
        registry.counter("c_total", "c").inc(2)
        registry.gauge("g2", "g").set(7)
        registry.histogram("h_seconds", "h").observe(0.001)
        assert registry.get("c_total").labels().value == 2.0
        assert registry.get("g2").labels().value == 7.0
        assert registry.get("h_seconds").labels().count == 1

    def test_wrong_passthrough_kind_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("c2_total", "c").observe(1.0)
        with pytest.raises(ObservabilityError):
            registry.histogram("h2_seconds", "h").inc()

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("bad name", "x")
        with pytest.raises(ObservabilityError):
            registry.counter("ok_total", "x", labels=("bad-label",))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_family(self, registry):
        a = registry.counter("z_total", "z", labels=("scheme",))
        b = registry.counter("z_total", "other help", labels=("scheme",))
        assert a is b

    def test_conflicting_reregistration_rejected(self, registry):
        registry.counter("w_total", "w")
        with pytest.raises(ObservabilityError):
            registry.gauge("w_total", "w")
        with pytest.raises(ObservabilityError):
            registry.counter("w_total", "w", labels=("scheme",))

    def test_collect_sorted_by_name(self, registry):
        registry.counter("b_total", "")
        registry.counter("a_total", "")
        assert [f.name for f in registry.collect()] == ["a_total", "b_total"]

    def test_reset_keeps_families_clears_children(self, registry):
        family = registry.counter("r_total", "", labels=("scheme",))
        family.labels("VS").inc()
        registry.reset()
        assert registry.get("r_total") is family
        assert list(family.samples()) == []
        family.labels("VS").inc()  # cached handle still usable
        assert family.labels("VS").value == 1.0

    def test_reset_and_clear_bump_the_generation(self, registry):
        start = registry.generation
        registry.counter("c_total").inc()
        assert registry.generation == start
        registry.reset()
        assert registry.generation == start + 1
        registry.clear()
        assert registry.generation == start + 2

    def test_enabled_scope_restores_flag(self):
        registry = MetricsRegistry(enabled=False)
        with registry.enabled_scope():
            assert registry.enabled
        assert not registry.enabled

    def test_starts_disabled_by_default(self):
        assert not MetricsRegistry().enabled

    def test_infinite_observation_allowed(self, registry):
        h = registry.histogram("inf_seconds", "h", buckets=(1.0,))
        h.observe(math.inf)
        assert h.labels().bucket_counts() == (0, 1)
