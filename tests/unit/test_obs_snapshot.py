"""Registry snapshot/merge round trips (repro.obs.snapshot).

The ``repro_test_*`` families below are synthetic fixtures, not
shipped metrics, so they stay out of the observability catalog.
"""

# repro-lint: disable-file=OBS001

import pickle

import pytest

from repro.errors import ObservabilityError
from repro.obs.export import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import (
    RegistrySnapshot,
    merge_snapshots,
    restore_registry,
    snapshot_registry,
)


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    registry.counter(
        "repro_test_lookups_total", "Lookups", labels=("scheme",)
    ).labels("NV").inc(42)
    registry.gauge("repro_test_depth", "Depth", labels=("scheme",)).labels("NV").set(
        3.5
    )
    hist = registry.histogram(
        "repro_test_latency_seconds",
        "Latency",
        labels=("scheme",),
        buckets=(0.1, 1.0),
    ).labels("NV")
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    return registry


class TestRoundTrip:
    def test_restore_renders_identically(self):
        registry = _populated_registry()
        snapshot = snapshot_registry(registry)
        restored = restore_registry(snapshot)
        assert render_prometheus(restored) == render_prometheus(registry)

    def test_json_round_trip_is_lossless(self):
        snapshot = snapshot_registry(_populated_registry(), shard=1)
        again = RegistrySnapshot.from_json(snapshot.to_json())
        assert again == snapshot

    def test_snapshot_is_picklable(self):
        snapshot = snapshot_registry(_populated_registry(), shard=0)
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_counter_total_helper(self):
        snapshot = snapshot_registry(_populated_registry())
        assert snapshot.counter_total("repro_test_lookups_total") == 42
        assert snapshot.counter_total("repro_missing_total") == 0.0

    def test_from_json_rejects_garbage_and_wrong_schema(self):
        with pytest.raises(ObservabilityError):
            RegistrySnapshot.from_json("{not json")
        with pytest.raises(ObservabilityError):
            RegistrySnapshot.from_json('{"schema_version": 99, "families": []}')


class TestShardLabel:
    def test_shard_label_appended_at_snapshot_time(self):
        snapshot = snapshot_registry(_populated_registry(), shard=2)
        for family in snapshot.families:
            assert family.label_names[-1] == "shard"
            for sample in family.samples:
                assert sample.labels[-1] == "2"

    def test_family_with_its_own_shard_label_is_not_relabeled(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("repro_test_queue", "Queue", labels=("scheme", "shard")).labels(
            "VS", "1"
        ).set(2.0)
        (family,) = snapshot_registry(registry, shard="frontend").families
        assert family.label_names == ("scheme", "shard")
        assert [s.labels for s in family.samples] == [("VS", "1")]

    def test_unlabeled_snapshot_is_catalog_shaped(self):
        """Without a shard identity the snapshot must not add labels —
        the OBS catalog's label sets stay valid."""
        snapshot = snapshot_registry(_populated_registry())
        for family in snapshot.families:
            assert "shard" not in family.label_names


class TestMerge:
    def test_merges_disjoint_shards(self):
        snaps = [
            snapshot_registry(_populated_registry(), shard=s) for s in range(3)
        ]
        merged = merge_snapshots(snaps)
        assert merged.shard is None
        assert merged.counter_total("repro_test_lookups_total") == 3 * 42
        # merged snapshot restores and renders like any other
        rendered = render_prometheus(restore_registry(merged))
        assert 'shard="0"' in rendered and 'shard="2"' in rendered

    def test_collision_refused(self):
        snaps = [
            snapshot_registry(_populated_registry(), shard=0),
            snapshot_registry(_populated_registry(), shard=0),
        ]
        with pytest.raises(ObservabilityError, match="collision"):
            merge_snapshots(snaps)

    def test_kind_mismatch_refused(self):
        a = MetricsRegistry(enabled=True)
        a.counter("repro_test_thing", "c", labels=()).labels().inc()
        b = MetricsRegistry(enabled=True)
        b.gauge("repro_test_thing", "g", labels=()).labels().set(1)
        with pytest.raises(ObservabilityError, match="cannot merge"):
            merge_snapshots(
                [snapshot_registry(a, shard=0), snapshot_registry(b, shard=1)]
            )

    def test_merge_is_union_not_sum(self):
        """Per-shard sample values survive verbatim under their shard
        label; nothing is aggregated by the merge itself."""
        a = MetricsRegistry(enabled=True)
        a.counter("repro_test_n_total", "n", labels=()).labels().inc(10)
        b = MetricsRegistry(enabled=True)
        b.counter("repro_test_n_total", "n", labels=()).labels().inc(32)
        merged = merge_snapshots(
            [snapshot_registry(a, shard=0), snapshot_registry(b, shard=1)]
        )
        family = merged.families[0]
        assert sorted(s.value for s in family.samples) == [10, 32]
