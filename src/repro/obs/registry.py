"""Metrics registry: counters, gauges and fixed-bucket histograms.

This is the runtime side of the paper's measurement story: where the
experiments evaluate the power model offline (Figs. 5–8), the serving
layer and experiment engine publish *live* counters through the
registry defined here.  Conventions follow the Prometheus data model:

* **counter** — monotonically non-decreasing total (names end in
  ``_total``);
* **gauge** — a value that can go up and down (queue depth, watts);
* **histogram** — fixed upper-bound buckets plus ``_sum``/``_count``,
  used for host-side batch latency.

Units and invariants
--------------------
Metric values carry their unit in the metric name following the
Prometheus base-unit convention (``_seconds``, ``_watts``); the one
deliberate exception is ``repro_power_mw_per_gbps``, which keeps the
paper's Fig. 8 display unit.  Counter increments must be
non-negative (enforced); label sets are fixed per family at
registration and a family's kind/labels cannot be re-registered
differently (enforced).

Overhead
--------
The module-level :data:`REGISTRY` starts **disabled**.  Instrumented
hot paths guard every record with one ``REGISTRY.enabled`` attribute
load, so the disabled cost is a single branch per *batch* (never per
packet).  Metric objects themselves always record when called
directly — the flag gates call sites, not storage.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "default_registry",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: default latency buckets, in seconds: 100 µs … 10 s, roughly
#: geometric — host-side batch serving times land mid-range
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ObservabilityError(f"counter increments must be >= 0, got {amount}")
        self._value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the current value."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self._value -= amount


class Histogram:
    """Fixed-bucket histogram with sum and count.

    Buckets are *upper bounds* with Prometheus ``le`` (less-or-equal)
    semantics: an observation lands in the first bucket whose bound is
    >= the value; values above the last bound land only in the
    implicit ``+Inf`` bucket.  Bounds must be strictly increasing.
    """

    __slots__ = ("bounds", "_bucket_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ObservabilityError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        # one slot per finite bound plus the +Inf overflow slot
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._bucket_counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; last entry is +Inf overflow."""
        return tuple(self._bucket_counts)

    def cumulative_counts(self) -> tuple[int, ...]:
        """Cumulative counts per bound plus +Inf (Prometheus ``le`` form)."""
        out = []
        running = 0
        for count in self._bucket_counts:
            running += count
            out.append(running)
        return tuple(out)


class MetricFamily:
    """One named metric with a fixed label set and typed children.

    Children are addressed by label *values* (one per registered label
    name, in order); a family registered with no labels has a single
    anonymous child reachable through the family's own ``inc`` /
    ``set`` / ``observe`` passthroughs.
    """

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ):
        if not _METRIC_NAME.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_NAME.match(label):
                raise ObservabilityError(f"invalid label name {label!r} on {name!r}")
        if kind not in ("counter", "gauge", "histogram"):
            raise ObservabilityError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = buckets
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _new_child(self) -> Counter | Gauge | Histogram:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS_S)

    def labels(self, *values: object) -> Counter | Gauge | Histogram:
        """Child metric for one combination of label values (created lazily)."""
        if len(values) != len(self.label_names):
            raise ObservabilityError(
                f"{self.name}: expected {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def samples(self) -> Iterator[tuple[tuple[str, ...], Counter | Gauge | Histogram]]:
        """All (label values, child) pairs, sorted by label values."""
        return iter(sorted(self._children.items()))

    def reset(self) -> None:
        """Drop all children (values reset to empty; family stays registered)."""
        with self._lock:
            self._children.clear()

    # -- passthroughs for label-less families ------------------------------

    def inc(self, amount: float = 1.0) -> None:
        """Counter/gauge passthrough for a label-less family."""
        child = self.labels()
        if isinstance(child, Histogram):
            raise ObservabilityError(f"{self.name}: histograms use observe()")
        child.inc(amount)

    def set(self, value: float) -> None:
        """Gauge passthrough for a label-less family."""
        child = self.labels()
        if not isinstance(child, Gauge):
            raise ObservabilityError(f"{self.name}: only gauges support set()")
        child.set(value)

    def observe(self, value: float) -> None:
        """Histogram passthrough for a label-less family."""
        child = self.labels()
        if not isinstance(child, Histogram):
            raise ObservabilityError(f"{self.name}: only histograms support observe()")
        child.observe(value)


class MetricsRegistry:
    """Get-or-create store of metric families with a global enable flag.

    Invariants: family names are unique; re-requesting a family with
    the same kind and labels returns the existing instance, while a
    conflicting re-registration raises
    :class:`~repro.errors.ObservabilityError`.  The ``enabled`` flag
    is the zero-overhead gate instrumented call sites check before
    recording anything.
    """

    def __init__(self, enabled: bool = False):
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        self.enabled = enabled
        #: bumped by :meth:`reset` and :meth:`clear`; a caller that
        #: caches families or label children re-resolves them when it
        #: changes, since the cached objects are then orphaned
        self.generation = 0

    # -- enablement ---------------------------------------------------------

    def enable(self) -> None:
        """Turn instrumented call sites on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn instrumented call sites off (the default)."""
        self.enabled = False

    @contextmanager
    def enabled_scope(self, value: bool = True) -> Iterator["MetricsRegistry"]:
        """Temporarily set the enable flag (restores on exit)."""
        previous = self.enabled
        self.enabled = value
        try:
            yield self
        finally:
            self.enabled = previous

    # -- registration -------------------------------------------------------

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labels: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(name, kind, help, labels, buckets)
                    self._families[name] = family
        if family.kind != kind or family.label_names != tuple(labels):
            raise ObservabilityError(
                f"metric {name!r} already registered as {family.kind}"
                f"{family.label_names}, requested {kind}{tuple(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Get or create a counter family (names should end in ``_total``)."""
        return self._get_or_create(name, "counter", help, tuple(labels))

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Get or create a gauge family."""
        return self._get_or_create(name, "gauge", help, tuple(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> MetricFamily:
        """Get or create a histogram family with fixed bucket bounds."""
        return self._get_or_create(
            name, "histogram", help, tuple(labels), tuple(float(b) for b in buckets)
        )

    # -- inspection ---------------------------------------------------------

    def collect(self) -> list[MetricFamily]:
        """All registered families, sorted by name (for exporters)."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        """The named family, or None if never registered."""
        return self._families.get(name)

    def reset(self) -> None:
        """Clear every family's children; registrations are kept."""
        for family in self._families.values():
            family.reset()
        self.generation += 1

    def clear(self) -> None:
        """Drop all families entirely (cached family handles go stale)."""
        with self._lock:
            self._families.clear()
        self.generation += 1


#: the process-wide default registry — disabled until something
#: (the repro-metrics CLI, a test, a user) calls ``enable()``
REGISTRY = MetricsRegistry(enabled=False)


def default_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented modules publish to."""
    return REGISTRY
