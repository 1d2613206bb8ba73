"""Batched data-plane serving: one entry point for all three schemes.

The paper's headline metric is power *per throughput* (Fig. 8,
mW/Gbps), so the batch lookup path is the product: every power number
divides by how many ``(address, vnid)`` pairs the data plane can
answer.  :class:`LookupService` is that path's front end.  A batch
enters once and is routed according to the deployment scheme —

* **NV / VS** — to the K per-VN engines, walked together as one
  frozen forest (:func:`~repro.iplookup.trie.freeze_forest`): one
  vectorized walk of the whole batch in arrival order, the VNIDs
  selecting each lane's engine, so the VNID demultiplexer costs no
  partition of the batch;
* **VM** — through the single merged engine (one vectorized walk of
  the union structure plus one gather of its packed NHI table).

The service itself is a thin composition of the stage functions in
:mod:`repro.serve.stages` (validate → admit → walk → account; the
degraded path adds a per-VN partition and scatter) plus the
instrumentation shell.  It is the one serve core: the sharded async
tier (:mod:`repro.serve.frontend`) hosts one ``LookupService`` per
shard worker (:mod:`repro.serve.shard`) and only fans batches out and
back in, and both tiers share their control plane through
:class:`TierControl` — which is what keeps the library call and the
service tier identical, shed lookups included.

Besides the results, every call returns a :class:`ServeTrace`: the
per-stage activity each engine would exhibit (via the closed-form
pipeline accounting of :func:`repro.iplookup.pipeline.trace_from_histogram`)
and an M/D/1 queueing-latency estimate (:mod:`repro.virt.queueing`).
Throughput, latency and the power models' duty-cycle inputs therefore
all flow from one ``serve()`` call.

Robustness
----------
Batches are **strictly validated**: wrong dtype, NaN floats,
mis-shaped or truncated arrays and out-of-range vnids raise a typed
:class:`~repro.errors.MalformedBatchError` instead of being silently
coerced by numpy (a NaN cast to ``uint32`` looks like address 0).

A service built with a :class:`~repro.faults.FaultPlan` degrades
gracefully instead of failing: a stalled or storm-throttled engine
that would saturate gets its virtual network's excess load **shed**
(NV/VS bind engine *i* to VN *i*, so rerouting is impossible by
construction — shed lookups answer :data:`~repro.faults.SHED_RESULT`
and are counted in ``repro_serve_shed_lookups_total``), transient
walk failures are retried with backoff per the
:class:`~repro.faults.DegradationPolicy`, and the attached
:class:`ServeTrace` carries the *degraded* per-engine activity and
M/D/1 latency — which is what lets the chaos suite check the live
power telemetry against the analytical model re-evaluated at the
degraded operating point.  See ``docs/ROBUSTNESS.md``.

Observability
-------------
When the process-wide observability layer is enabled
(:func:`repro.obs.enable`), every ``serve()`` call additionally emits
a ``serve.batch`` span (plus one ``fault.<kind>`` child span per
active fault), increments per-scheme batch and per-VN lookup
counters, observes the host wall-clock batch latency into a
fixed-bucket histogram (seconds), sets the modeled M/D/1 queue-depth
and queue-wait gauges (closed form) and the
measured memory-duty-cycle gauge, and maintains the error-budget
surface (``repro_serve_errors_total``,
``repro_serve_shed_lookups_total``, ``repro_serve_retries_total``,
``repro_fault_active``) — see ``docs/OBSERVABILITY.md`` for the
catalog.  With observability disabled (the default) the serve path is
byte-for-byte the uninstrumented hot path behind a single flag check,
so there is no measurable overhead.

Units: batch latency is recorded in seconds, queue depth in packets,
queue wait in ns, duty cycle as a fraction in [0, 1].
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, cast

import numpy as np

from repro.core.metrics import throughput_gbps
from repro.errors import ConfigurationError, MalformedBatchError
from repro.faults.injectors import ActiveFaults, FAULT_KINDS
from repro.faults.plan import FaultPlan
from repro.faults.policy import SHED_RESULT, DegradationPolicy
from repro.fpga.dvs import NOMINAL_POINT, OperatingPoint
from repro.iplookup.rib import RoutingTable
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.tracing import Span, Tracer, default_tracer
from repro.serve.stages import (
    EngineGroup,
    ServeTrace,
    degraded_utilizations,
    plan_admission,
    validate_batch,
    walk_degraded,
    walk_nominal,
)
from repro.virt.merged import MergedTrie
from repro.virt.queueing import (
    LatencyReport,
    degraded_latency_ns,
    md1_wait_ns,
    scheme_latency_ns,
)
from repro.virt.schemes import Scheme

if TYPE_CHECKING:  # the sampler/governor pull in the experiment stack
    from repro.obs.power import PowerSample, PowerTelemetrySampler
    from repro.power.governor import DvsGovernor

__all__ = ["LookupService", "ServeTrace", "TierControl"]

#: effective-load ceiling the operating point may rescale up to: the
#: M/D/1 estimate needs rho < 1 strictly, and a governor pushing the
#: clock down must not be able to model a saturated queue as stable
_LOAD_CEILING = 0.97


def _check_load(fraction: float) -> None:
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError(
            "offered_load_fraction must be in [0, 1) for a stable queue"
        )


class _TierMetrics:
    """The gauge children every metered batch of either tier sets.

    Resolved once and reused: looking a family and a label child up
    costs a few dict lookups per metric per batch.  A tier builds a
    new one after a re-clock and whenever the registry's
    ``generation`` moves (a reset or clear orphans cached children).
    """

    def __init__(self, tier: "TierControl"):
        registry = tier._registry
        scheme = tier.scheme.name
        self.generation = registry.generation
        self.queue_wait = registry.gauge(
            "repro_serve_queue_wait_ns",
            "Modeled mean M/D/1 input-queue wait of the last batch at "
            "the realized (post-shedding) load, ns",
            labels=("scheme",),
        ).labels(scheme)
        self.duty = registry.gauge(
            "repro_serve_duty_cycle",
            "Packet-weighted mean memory duty cycle of the last batch",
            labels=("scheme",),
        ).labels(scheme)


class _ServeMetrics(_TierMetrics):
    """:class:`_TierMetrics` plus the single-process service's batch metrics."""

    def __init__(self, tier: "TierControl"):
        super().__init__(tier)
        registry = tier._registry
        scheme = self.scheme = tier.scheme.name
        self.batches = registry.counter(
            "repro_serve_batches_total", "Batches served", labels=("scheme",)
        ).labels(scheme)
        self._lookups = registry.counter(
            "repro_serve_lookups_total",
            "Lookups served per virtual network",
            labels=("scheme", "vn"),
        )
        # per-VN children are created on a VN's first lookup, so a VN
        # that never served traffic stays absent from the exposition
        self._lookups_by_vn: dict[int, Counter | Gauge | Histogram] = {}
        self.latency = registry.histogram(
            "repro_serve_batch_latency_seconds",
            "Host wall-clock time answering one batch",
            labels=("scheme",),
        ).labels(scheme)
        self.queue_depth = registry.gauge(
            "repro_serve_queue_depth",
            "Modeled M/D/1 mean queue occupancy at the configured "
            "offered load, packets (all engines); see "
            "repro_serve_queue_wait_ns for the wait at the realized load",
            labels=("scheme",),
        ).labels(scheme)
        # modeled M/D/1 mean queue occupancy per engine, summed over
        # engines: Lq = rho^2 / (2 (1 - rho)) at the configured
        # offered-load fraction, fixed until the next re-clock, which
        # rebuilds this object
        rho = tier.offered_load_fraction
        self.queue_depth.set(tier.n_engines * rho * rho / (2.0 * (1.0 - rho)))

    def lookups(self, vn: int) -> Counter | Gauge | Histogram:
        """The lookups counter child of one VN."""
        child = self._lookups_by_vn.get(vn)
        if child is None:
            child = self._lookups_by_vn[vn] = self._lookups.labels(self.scheme, vn)
        return child


class TierControl:
    """The control plane both serving tiers share.

    :class:`LookupService` and the sharded
    :class:`~repro.serve.frontend.ShardedLookupService` differ only in
    where the walk runs; everything around it lives here once: the
    constructor checks, the DVS operating point and offered load, the
    aggregate capacity, the malformed-batch counter, the publish tail
    of an instrumented batch and the per-VN oracle check.  A subclass
    supplies :attr:`n_engines` and :meth:`_on_reclock`, the one thing
    a re-clock does differently per tier.

    ``n_stages=None`` sizes the pipeline to the deepest table served:
    a unibit trie is exactly as deep as its longest prefix, so every
    engine of either tier gets the same stage count.
    """

    def __init__(
        self,
        tables: list[RoutingTable],
        scheme: Scheme,
        *,
        n_stages: int | None,
        frequency_mhz: float,
        offered_load_fraction: float,
        fault_plan: FaultPlan | None,
        policy: DegradationPolicy | None,
        registry: MetricsRegistry | None,
        tracer: Tracer | None,
        power_sampler: "PowerTelemetrySampler | None",
    ):
        if not tables:
            raise ConfigurationError("need at least one routing table")
        if frequency_mhz <= 0:
            raise ConfigurationError("frequency_mhz must be positive")
        _check_load(offered_load_fraction)
        if n_stages is None:
            n_stages = max(max(t.max_length() for t in tables), 1)
        self.k = len(tables)
        self.scheme = scheme
        self.n_stages = n_stages
        self.frequency_mhz = frequency_mhz
        self.base_frequency_mhz = frequency_mhz
        self.offered_load_fraction = offered_load_fraction
        self._nominal_load_fraction = offered_load_fraction
        self._operating_point = NOMINAL_POINT
        self.fault_plan = fault_plan
        self.policy = policy if policy is not None else DegradationPolicy()
        self._tables = tables
        self._registry = registry if registry is not None else default_registry()
        self._tracer = tracer if tracer is not None else default_tracer()
        self.power_sampler = power_sampler
        self._governor: "DvsGovernor | None" = None
        self.batches_served = 0
        self._metrics: _TierMetrics | None = None

    # -- DVS operating point ----------------------------------------------

    @property
    def operating_point(self) -> OperatingPoint:
        """The DVS operating point the tier currently runs at."""
        return self._operating_point

    def apply_operating_point(self, point: OperatingPoint) -> None:
        """Re-clock the tier to a DVS operating point.

        The engine clock scales by the point's fmax factor; the
        *absolute* offered load is unchanged, so the offered-load
        *fraction* rescales inversely (the same packets per second
        are a larger slice of a slower clock), capped below 1 so the
        M/D/1 estimate stays finite — past the cap the admission
        stage sheds, which is the throughput-for-watts trade the
        governor makes explicit.  At the nominal point this restores
        the constructed configuration exactly.  The attached power
        sampler is rescaled in the same call so live telemetry and
        capacity always describe the same operating point.
        """
        scale = point.frequency_scale
        nominal = self._nominal_load_fraction
        self._operating_point = point
        self.frequency_mhz = self.base_frequency_mhz * scale
        self.offered_load_fraction = min(nominal / scale, max(nominal, _LOAD_CEILING))
        self._metrics = None
        self._on_reclock(point)
        if self.power_sampler is not None:
            self.power_sampler.set_operating_point(point)

    def _on_reclock(self, point: OperatingPoint) -> None:
        """Tier-specific follow-up of :meth:`apply_operating_point`."""
        raise NotImplementedError

    def set_offered_load(self, fraction: float) -> None:
        """Change the modeled offered load (fraction of *base* capacity)."""
        _check_load(fraction)
        self._nominal_load_fraction = fraction
        self.apply_operating_point(self._operating_point)

    # -- capacity ---------------------------------------------------------

    @property
    def n_engines(self) -> int:
        """Engines the tier walks on (K for NV/VS, merged engines for VM)."""
        raise NotImplementedError

    def capacity_gbps(self) -> float:
        """Aggregate lookup capacity at minimum packet size."""
        return throughput_gbps(self.frequency_mhz, self.n_engines)

    # -- publishing -------------------------------------------------------

    #: the cached metric children this tier's metered batches set
    _metrics_class: type[_TierMetrics] = _TierMetrics

    def _bound_metrics(self) -> _TierMetrics:
        """The cached metric children, re-resolved when stale."""
        metrics = self._metrics
        if metrics is None or metrics.generation != self._registry.generation:
            metrics = self._metrics = self._metrics_class(self)
        return metrics

    def _validated(
        self, addresses: np.ndarray, vnids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The validate stage, with a rejection folded into the error budget.

        A rejected batch touches only ``repro_serve_errors_total``: the
        batch/lookup counters and the latency histogram stay silent,
        so a malformed batch can never masquerade as served traffic.
        """
        try:
            return validate_batch(addresses, vnids, self.k)
        except MalformedBatchError as exc:
            if self._registry.enabled:
                self._registry.counter(
                    "repro_serve_errors_total",
                    "Serve-path errors by kind",
                    labels=("kind",),
                ).labels(exc.kind).inc()
            raise

    def _publish_tail(
        self, trace: ServeTrace, span: Span, write_rate: float | None
    ) -> "PowerSample | None":
        """The end of every metered batch: queue wait, duty, power, governor.

        The queue wait is the modeled M/D/1 wait at the batch's
        realized load: the configured fraction times the share of the
        batch actually admitted (degraded admission sheds arrivals), so
        the figure follows shedding and re-clocks but is still the
        model's closed form, not a measurement.

        The sampler is fed the *measured* duty cycle, not the
        configured offered-load fraction: live power must track the
        load the batch actually carried (shedding, load ramps), which
        is the signal the DVS governor closes its loop against.  The
        governor's queue-pressure override reads the queue-wait gauge
        set here, on either tier.  Returns the power sample, if a
        sampler is attached.
        """
        metrics = self._bound_metrics()
        admitted = trace.n_admitted / trace.n_packets if trace.n_packets else 0.0
        metrics.queue_wait.set(
            md1_wait_ns(self.offered_load_fraction * admitted, self.frequency_mhz)
        )
        duty = trace.mean_duty_cycle()
        metrics.duty.set(duty)
        sample = None
        if self.power_sampler is not None:
            sample = self.power_sampler.observe(
                trace, duty_cycle=duty, write_rate=write_rate
            )
            span.set("power_total_w", sample.total_w)
        if self._governor is not None:
            self._governor.on_batch(self, trace)
        return sample

    # -- verification -----------------------------------------------------

    def _matches_oracle(
        self, addresses: np.ndarray, vnids: np.ndarray, results: np.ndarray
    ) -> bool:
        """Answered (not shed) lookups agree with each VN's linear scan."""
        for vn, table in enumerate(self._tables):
            indices = np.flatnonzero((vnids == vn) & (results != SHED_RESULT))
            if not len(indices):
                continue
            oracle = table.lookup_linear_batch(addresses[indices])
            if not np.array_equal(results[indices], oracle):
                return False
        return True


class LookupService(TierControl):
    """Batched ``(addresses, vnids)`` front end over the three schemes.

    Parameters
    ----------
    tables:
        One routing table per virtual network (K = len(tables)).
    scheme:
        Deployment scheme; NV and VS serve through per-VN engines
        behind a distributor, VM through the single merged engine.
    n_stages:
        Pipeline depth of every engine (one trie level per stage).
        ``None`` sizes the pipeline to the deepest table served —
        required for real RIB snapshots, whose /31–/32 more-specifics
        exceed the paper's 28-stage synthetic depth.
    frequency_mhz:
        Modeled engine clock, used for capacity and latency figures.
    offered_load_fraction:
        Offered load, as a fraction of the scheme's aggregate lookup
        capacity, assumed for the M/D/1 queueing estimate attached to
        each :class:`ServeTrace`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; each ``serve()``
        call consults the plan at the service's running batch index
        and degrades accordingly (admission shedding, walk retries,
        degraded latency/activity accounting).
    policy:
        Degradation knobs (shed utilization bound, retry budget,
        backoff); defaults to :class:`~repro.faults.DegradationPolicy`
        defaults.
    registry:
        Metrics registry instrumented counters publish into; defaults
        to the process-wide registry (metrics fire only while it is
        enabled).
    tracer:
        Tracer for per-batch ``serve.batch`` spans; defaults to the
        process-wide tracer.
    power_sampler:
        Optional :class:`repro.obs.power.PowerTelemetrySampler`; when
        set and observability is enabled, every served batch is also
        folded into its running per-VN power estimate (at the
        batch's measured duty cycle, storm write rate included while
        one is active).
    """

    def __init__(
        self,
        tables: list[RoutingTable],
        scheme: Scheme = Scheme.VM,
        *,
        n_stages: int | None = 28,
        frequency_mhz: float = 200.0,
        offered_load_fraction: float = 0.5,
        fault_plan: FaultPlan | None = None,
        policy: DegradationPolicy | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        power_sampler: "PowerTelemetrySampler | None" = None,
    ):
        super().__init__(
            tables,
            scheme,
            n_stages=n_stages,
            frequency_mhz=frequency_mhz,
            offered_load_fraction=offered_load_fraction,
            fault_plan=fault_plan,
            policy=policy,
            registry=registry,
            tracer=tracer,
            power_sampler=power_sampler,
        )
        self.group = EngineGroup(tables, scheme, self.n_stages)
        self.distributor = self.group.distributor
        self._nominal_latency: LatencyReport | None = None

    _metrics_class = _ServeMetrics

    def _on_reclock(self, point: OperatingPoint) -> None:
        """The nominal latency estimate was taken at the old clock."""
        self._nominal_latency = None

    @property
    def n_engines(self) -> int:
        """Engines instantiated (K for NV/VS, 1 for VM)."""
        return self.group.n_engines

    def merged(self) -> MergedTrie:
        """The merged engine's union trie (VM scheme only)."""
        if self.group.merged is None:
            raise ConfigurationError(
                f"scheme {self.scheme} has no merged engine; use Scheme.VM"
            )
        return self.group.merged

    # -- serving ----------------------------------------------------------

    def _admission_rate(self) -> float:
        """Arrival spacing for the activity traces: the effective
        offered-load fraction, or full rate for an idle-load config
        (a zero fraction means "no modeled load", not "no arrivals" —
        the batch still has to be walked at some spacing)."""
        rho = self.offered_load_fraction
        return rho if rho > 0.0 else 1.0

    def _latency_estimate(self) -> LatencyReport:
        """Nominal M/D/1 latency report (cached — its inputs are all
        fixed at construction, so computing it per batch was pure
        hot-path waste; see the note in benchmarks/test_perf_lookup.py)."""
        if self._nominal_latency is None:
            engine_capacity = throughput_gbps(self.frequency_mhz)
            aggregate = self.offered_load_fraction * self.capacity_gbps()
            self._nominal_latency = scheme_latency_ns(
                str(self.scheme),
                aggregate,
                engine_capacity,
                self.n_engines,
                self.frequency_mhz,
                self.n_stages,
            )
        return self._nominal_latency

    # -- degradation ------------------------------------------------------

    def _serve_degraded(
        self,
        addresses: np.ndarray,
        vnids: np.ndarray,
        *,
        track_vns: bool,
        faults: ActiveFaults,
    ) -> tuple[np.ndarray, ServeTrace]:
        """Serve one batch under active faults (inputs already validated).

        Composes the degraded stages: :func:`~repro.serve.stages.plan_admission`
        against the faulted per-engine capacity,
        :func:`~repro.serve.stages.walk_degraded` (head-of-slice
        shedding, retry-with-backoff, engine shed), and the degraded
        latency/activity accounting in the returned trace.
        """
        start = time.perf_counter()
        n = len(addresses)
        scales = faults.capacity_scales(self.n_engines)
        admit = plan_admission(scales, self.offered_load_fraction, self.policy)
        walk = walk_degraded(
            self.group,
            addresses,
            vnids,
            admit,
            faults,
            self.policy,
            admission_rate=self._admission_rate(),
        )
        admitted_counts = np.array([t.n_packets for t in walk.traces], dtype=np.int64)
        utilizations = degraded_utilizations(
            scales, self.offered_load_fraction, self.policy
        )
        latency = degraded_latency_ns(
            str(self.scheme),
            utilizations,
            scales * self.frequency_mhz,
            admitted_counts,
            self.n_stages,
        )
        elapsed = time.perf_counter() - start
        vn_counts: tuple[int, ...] = ()
        if track_vns:
            offered = np.bincount(vnids, minlength=self.k)
            vn_counts = tuple(int(c) for c in offered - walk.vn_shed)
        trace = ServeTrace(
            scheme=self.scheme,
            n_packets=n,
            engine_traces=walk.traces,
            latency=latency,
            elapsed_s=elapsed,
            vn_counts=vn_counts,
            vn_shed=tuple(int(c) for c in walk.vn_shed),
            retries=walk.retries,
            walk_failures=walk.walk_failures,
            failed_engines=tuple(walk.failed_engines),
            fault_labels=faults.labels(),
        )
        return walk.results, trace

    def _serve_inner(
        self,
        addresses: np.ndarray,
        vnids: np.ndarray,
        *,
        track_vns: bool,
        faults: ActiveFaults | None = None,
    ) -> tuple[np.ndarray, ServeTrace]:
        """The uninstrumented serve path (inputs already validated)."""
        if faults:
            return self._serve_degraded(
                addresses, vnids, track_vns=track_vns, faults=faults
            )
        start = time.perf_counter()
        results, traces, vn_counts = walk_nominal(
            self.group,
            addresses,
            vnids,
            admission_rate=self._admission_rate(),
            track_vns=track_vns,
        )
        elapsed = time.perf_counter() - start
        trace = ServeTrace(
            scheme=self.scheme,
            n_packets=len(addresses),
            engine_traces=traces,
            latency=self._latency_estimate(),
            elapsed_s=elapsed,
            vn_counts=vn_counts,
        )
        return results, trace

    def _record_batch(self, trace: ServeTrace) -> None:
        """Publish one served batch into the metrics registry."""
        metrics = cast(_ServeMetrics, self._bound_metrics())
        metrics.batches.inc()
        for vn, count in enumerate(trace.vn_counts):
            if count:
                metrics.lookups(vn).inc(count)
        metrics.latency.observe(trace.elapsed_s)

    def _record_fault_state(
        self, trace: ServeTrace, faults: ActiveFaults | None
    ) -> None:
        """Publish the error-budget metrics for one (possibly degraded) batch.

        Only called for services with a fault plan, so the gauge family
        appears exactly when faults are in play — and decays back to 0
        the batch after a window closes.
        """
        registry = self._registry
        scheme = self.scheme.name
        active = registry.gauge(
            "repro_fault_active",
            "Injected faults currently active, by kind (0 = nominal)",
            labels=("kind",),
        )
        counts = faults.kind_counts() if faults else dict.fromkeys(FAULT_KINDS, 0)
        for kind, count in counts.items():
            active.labels(kind).set(count)
        if trace.n_shed:
            shed = registry.counter(
                "repro_serve_shed_lookups_total",
                "Lookups shed by degraded admission control",
                labels=("scheme", "vn"),
            )
            for vn, count in enumerate(trace.vn_shed):
                if count:
                    shed.labels(scheme, vn).inc(count)
        if trace.retries:
            registry.counter(
                "repro_serve_retries_total",
                "Engine-walk retries performed",
                labels=("scheme",),
            ).labels(scheme).inc(trace.retries)
        errors = registry.counter(
            "repro_serve_errors_total",
            "Serve-path errors by kind",
            labels=("kind",),
        )
        if trace.walk_failures:
            errors.labels("transient_walk").inc(trace.walk_failures)
        if trace.failed_engines:
            errors.labels("walk_failed").inc(len(trace.failed_engines))

    def serve(
        self, addresses: np.ndarray, vnids: np.ndarray
    ) -> tuple[np.ndarray, ServeTrace]:
        """Answer a batch of ``(address, vnid)`` lookups.

        Returns the per-pair next hops (arrival order preserved) and
        the :class:`ServeTrace` measuring the batch.  Malformed input
        raises :class:`~repro.errors.MalformedBatchError` (counted in
        ``repro_serve_errors_total`` while metrics are enabled, with
        no other metric touched).  Under a fault plan, shed lookups
        answer :data:`~repro.faults.SHED_RESULT`.  While observability
        is enabled the call also emits a ``serve.batch`` span (with
        ``fault.<kind>`` children for active faults), updates the
        serve counters/histograms/gauges, and feeds the attached power
        sampler (see module docstring).
        """
        addresses, vnids = self._validated(addresses, vnids)
        faults: ActiveFaults | None = None
        if self.fault_plan is not None:
            active = self.fault_plan.context_at(self.batches_served)
            faults = active if active else None
        self.batches_served += 1
        metrics_on = self._registry.enabled
        tracing_on = self._tracer.enabled
        if not metrics_on and not tracing_on:
            return self._serve_inner(addresses, vnids, track_vns=False, faults=faults)
        with self._tracer.span(
            "serve.batch", scheme=self.scheme.name, n_packets=int(len(addresses))
        ) as span:
            if faults:
                span.set("faults", list(faults.labels()))
                with ExitStack() as stack:
                    for fault in faults.faults:
                        fault_span = stack.enter_context(
                            self._tracer.span(f"fault.{fault.kind}")
                        )
                        fault_span.set("label", fault.label())
                    results, trace = self._serve_inner(
                        addresses, vnids, track_vns=True, faults=faults
                    )
            else:
                results, trace = self._serve_inner(addresses, vnids, track_vns=True)
            span.set("n_engines", trace.n_engines)
            span.set("elapsed_s", trace.elapsed_s)
            if trace.n_shed:
                span.set("n_shed", trace.n_shed)
            if metrics_on:
                self._record_batch(trace)
                if self.fault_plan is not None:
                    self._record_fault_state(trace, faults)
                self._publish_tail(
                    trace, span, faults.write_rate if faults else None
                )
        return results, trace

    def lookup_batch(self, addresses: np.ndarray, vnids: np.ndarray) -> np.ndarray:
        """Results-only convenience wrapper around :meth:`serve`."""
        return self.serve(addresses, vnids)[0]

    # -- verification -----------------------------------------------------

    def verify(self, addresses: np.ndarray, vnids: np.ndarray) -> bool:
        """Cross-check served results against the linear-scan oracle.

        Verification traffic is *not* production traffic: the batch is
        answered through the instrumentation-suppressed inner path
        (and without fault degradation), so calling ``verify()`` never
        inflates the serve counters, the latency histogram or the
        running power estimate — the invariant pinned by
        ``tests/unit/test_serve.py``.
        """
        addresses, vnids = validate_batch(addresses, vnids, self.k)
        results, _ = self._serve_inner(addresses, vnids, track_vns=False)
        return self._matches_oracle(addresses, vnids, results)
