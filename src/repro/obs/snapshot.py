"""Serializable registry snapshots for cross-process scrape-merge.

The sharded serving tier (:mod:`repro.serve.shard`) runs one
:class:`~repro.obs.registry.MetricsRegistry` per worker process;
nothing in another process can see those live objects.  A
:class:`RegistrySnapshot` is the frozen, picklable value a shard ships
back over its pipe: every family's kind/help/labels and every child's
current value (histograms keep their exact per-bucket counts, so the
round trip is lossless).

Snapshots taken with a ``shard`` identity carry it as a real ``shard``
label appended to every sample of every family that does not already
carry one — *at snapshot time, not registration time*, so the
in-process metric catalog (``docs/OBSERVABILITY.md``) is unchanged and
a single-process registry renders byte-identically with or without
this module.  :func:`merge_snapshots` unions
shard-labeled snapshots into one, refusing silent collisions, and
:func:`restore_registry` rebuilds a plain registry from any snapshot
so the existing exporters (:mod:`repro.obs.export`) render the merged
exposition unmodified.  ``repro-metrics snapshot --merge`` is the CLI
face of that pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ObservabilityError
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "SampleSnapshot",
    "FamilySnapshot",
    "RegistrySnapshot",
    "snapshot_registry",
    "restore_registry",
    "merge_snapshots",
]

#: bumped on incompatible snapshot JSON layout changes
SNAPSHOT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SampleSnapshot:
    """One child metric's frozen state.

    Counters and gauges carry ``value``; histograms carry
    ``sum``/``count`` plus the non-cumulative ``bucket_counts``
    (one slot per finite bound, then the +Inf overflow slot).
    """

    labels: tuple[str, ...]
    value: float | None = None
    sum: float | None = None
    count: int | None = None
    bucket_counts: tuple[int, ...] | None = None


@dataclass(frozen=True)
class FamilySnapshot:
    """One metric family's frozen state (registration + samples)."""

    name: str
    kind: str
    help: str
    label_names: tuple[str, ...]
    buckets: tuple[float, ...] | None = None
    samples: tuple[SampleSnapshot, ...] = ()


@dataclass(frozen=True)
class RegistrySnapshot:
    """A whole registry's frozen state, optionally shard-labeled."""

    families: tuple[FamilySnapshot, ...] = ()
    shard: str | None = None

    def counter_total(self, name: str) -> float:
        """Sum of one counter family's samples across all label sets."""
        for family in self.families:
            if family.name == name:
                return float(
                    sum(s.value or 0.0 for s in family.samples)
                )
        return 0.0

    def to_json(self) -> str:
        """Serialize to a JSON document (see ``SNAPSHOT_SCHEMA_VERSION``)."""
        families = []
        for family in self.families:
            samples = []
            for sample in family.samples:
                record: dict[str, object] = {"labels": list(sample.labels)}
                if sample.value is not None:
                    record["value"] = sample.value
                if sample.bucket_counts is not None:
                    record["sum"] = sample.sum
                    record["count"] = sample.count
                    record["bucket_counts"] = list(sample.bucket_counts)
                samples.append(record)
            families.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "buckets": list(family.buckets) if family.buckets else None,
                    "samples": samples,
                }
            )
        return json.dumps(
            {
                "schema_version": SNAPSHOT_SCHEMA_VERSION,
                "shard": self.shard,
                "families": families,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RegistrySnapshot":
        """Parse a document produced by :meth:`to_json` (strict)."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as error:
            raise ObservabilityError(f"malformed snapshot JSON: {error}") from error
        if not isinstance(doc, dict) or "families" not in doc:
            raise ObservabilityError("snapshot JSON must be an object with families")
        version = doc.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise ObservabilityError(
                f"unsupported snapshot schema_version {version!r} "
                f"(expected {SNAPSHOT_SCHEMA_VERSION})"
            )
        families = []
        for fam in doc["families"]:
            samples = []
            for record in fam.get("samples", ()):
                bucket_counts = record.get("bucket_counts")
                samples.append(
                    SampleSnapshot(
                        labels=tuple(record["labels"]),
                        value=record.get("value"),
                        sum=record.get("sum"),
                        count=record.get("count"),
                        bucket_counts=(
                            tuple(bucket_counts) if bucket_counts is not None else None
                        ),
                    )
                )
            buckets = fam.get("buckets")
            families.append(
                FamilySnapshot(
                    name=fam["name"],
                    kind=fam["kind"],
                    help=fam.get("help", ""),
                    label_names=tuple(fam.get("label_names", ())),
                    buckets=tuple(buckets) if buckets else None,
                    samples=tuple(samples),
                )
            )
        return cls(families=tuple(families), shard=doc.get("shard"))


def snapshot_registry(
    registry: MetricsRegistry, shard: str | int | None = None
) -> RegistrySnapshot:
    """Freeze a registry's current state into a picklable snapshot.

    With ``shard`` set, a ``shard`` label (the stringified identity)
    is appended to every family's label set and every sample — the
    merge key that keeps cross-process scrape-merge lossless.  A
    family that already carries a ``shard`` label names the shard of
    each sample itself and is left as it is: a label name may appear
    only once per sample.
    """
    families = []
    for family in registry.collect():
        label_names = family.label_names
        shard_value = None if shard is None or "shard" in label_names else str(shard)
        if shard_value is not None:
            label_names = (*label_names, "shard")
        samples = []
        for values, child in family.samples():
            labels = values if shard_value is None else (*values, shard_value)
            if isinstance(child, Histogram):
                samples.append(
                    SampleSnapshot(
                        labels=labels,
                        sum=child.sum,
                        count=child.count,
                        bucket_counts=child.bucket_counts(),
                    )
                )
            else:
                samples.append(SampleSnapshot(labels=labels, value=child.value))
        families.append(
            FamilySnapshot(
                name=family.name,
                kind=family.kind,
                help=family.help,
                label_names=label_names,
                buckets=family.buckets if family.kind == "histogram" else None,
                samples=tuple(samples),
            )
        )
    return RegistrySnapshot(
        families=tuple(families), shard=None if shard is None else str(shard)
    )


def restore_registry(snapshot: RegistrySnapshot) -> MetricsRegistry:
    """Rebuild a live registry holding the snapshot's exact values.

    The result renders byte-identically to the source registry through
    :func:`repro.obs.export.render_prometheus` /
    :func:`~repro.obs.export.render_metrics_jsonl` — the lossless
    round trip the snapshot suite pins.
    """
    registry = MetricsRegistry(enabled=False)
    for family in snapshot.families:
        if family.kind == "counter":
            built = registry.counter(family.name, family.help, family.label_names)
        elif family.kind == "gauge":
            built = registry.gauge(family.name, family.help, family.label_names)
        elif family.kind == "histogram":
            built = registry.histogram(
                family.name,
                family.help,
                family.label_names,
                family.buckets or (),
            )
        else:
            raise ObservabilityError(
                f"snapshot family {family.name!r} has unknown kind {family.kind!r}"
            )
        for sample in family.samples:
            child = built.labels(*sample.labels)
            if isinstance(child, Histogram):
                if sample.bucket_counts is None or sample.count is None:
                    raise ObservabilityError(
                        f"histogram sample of {family.name!r} lacks bucket counts"
                    )
                if len(sample.bucket_counts) != len(child.bounds) + 1:
                    raise ObservabilityError(
                        f"histogram sample of {family.name!r} carries "
                        f"{len(sample.bucket_counts)} bucket slots for "
                        f"{len(child.bounds)} bounds"
                    )
                child._bucket_counts = list(sample.bucket_counts)
                child._sum = float(sample.sum or 0.0)
                child._count = int(sample.count)
            elif isinstance(child, (Counter, Gauge)):
                child._value = float(sample.value or 0.0)
    return registry


def merge_snapshots(snapshots: list[RegistrySnapshot]) -> RegistrySnapshot:
    """Union shard snapshots into one multi-shard snapshot, losslessly.

    Families sharing a name must agree on kind and label names (the
    shard label makes per-shard registrations of the same family
    compatible); two samples with identical label values collide and
    raise — merging is a *union*, never a silent sum, so a dropped or
    doubled scrape can't fabricate traffic.  Bucket bounds must match
    for histogram families.  The merged snapshot carries no ``shard``
    of its own (its samples do, in their labels).
    """
    merged: dict[str, FamilySnapshot] = {}
    seen: dict[str, set[tuple[str, ...]]] = {}
    for snapshot in snapshots:
        for family in snapshot.families:
            existing = merged.get(family.name)
            if existing is None:
                merged[family.name] = family
                seen[family.name] = {s.labels for s in family.samples}
                continue
            if (
                existing.kind != family.kind
                or existing.label_names != family.label_names
                or existing.buckets != family.buckets
            ):
                raise ObservabilityError(
                    f"cannot merge family {family.name!r}: "
                    f"{existing.kind}{existing.label_names} vs "
                    f"{family.kind}{family.label_names}"
                )
            collisions = seen[family.name] & {s.labels for s in family.samples}
            if collisions:
                raise ObservabilityError(
                    f"sample collision merging {family.name!r}: "
                    f"{sorted(collisions)[0]} appears in two snapshots "
                    "(label your snapshots with distinct shards)"
                )
            seen[family.name].update(s.labels for s in family.samples)
            merged[family.name] = FamilySnapshot(
                name=existing.name,
                kind=existing.kind,
                help=existing.help,
                label_names=existing.label_names,
                buckets=existing.buckets,
                samples=tuple(
                    sorted(
                        (*existing.samples, *family.samples),
                        key=lambda s: s.labels,
                    )
                ),
            )
    return RegistrySnapshot(
        families=tuple(merged[name] for name in sorted(merged)), shard=None
    )
