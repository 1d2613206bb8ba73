"""Power telemetry: the paper's power model evaluated on live traffic.

The paper's contribution is *measurement* — per-scheme total power
(Eqs. 2/4/6, Fig. 5) and mW/Gbps efficiency (Fig. 8).  This module
closes the loop between that offline model and the serving layer: a
:class:`PowerTelemetrySampler` pins one scenario point (scheme × K ×
grade × α, evaluated once through the shared
:func:`repro.experiments.common.evaluate_scenario` path) and then
converts each served batch's :class:`~repro.serve.service.ServeTrace`
into a watts / mW-per-Gbps estimate, attributed per virtual network.

The *activity* inputs come from the live trace (per-engine batch
shares, per-VN lookup counts); the *coefficients* come from the same
placed design and XPA-like reporter the figures use.  The reporter is
linear in each engine's activity and, for BRAM, in the write-rate
factor (:func:`repro.fpga.bram.write_rate_factor`), so the sampler
runs :class:`~repro.fpga.power_report.XPowerAnalyzer` once, at full
activity, and a per-batch reading is a few scalar float products per
engine (K for NV/VS, one for VM) over the factored per-engine watts,
held as Python floats: no array is built per batch, and a metered VM
batch at K = 8 reads, folds and publishes in about 8 µs (2-core Xeon,
Python 3.11), a third of the NumPy version's cost.  Consequence — and
the property the tests pin: a reading equals the reporter evaluated at
the batch's activity to float round-off, so on a static workload
(uniform per-VN load, full duty cycle) the sampled totals equal the
fig5/fig8 engine rows.

Units and invariants
--------------------
All power figures are watts unless the name says otherwise
(``mw_per_gbps`` keeps the paper's Fig. 8 display unit); throughput is
Gbps at 40 B packets.  Invariants: ``sum(per_vn_w) == total_w`` up to
float rounding for every scheme; per-VN attribution charges NV
networks their whole device, VS/VM networks an equal share of the one
device's static power plus their dynamic share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import ScenarioConfig
from repro.core.estimator import ScenarioResult
from repro.core.metrics import mw_per_gbps
from repro.errors import ConfigurationError, ObservabilityError
from repro.fpga.bram import PAPER_WRITE_RATE, write_rate_factor
from repro.fpga.dvs import NOMINAL_POINT, NOMINAL_VOLTAGE, OperatingPoint
from repro.fpga.power_report import XPowerAnalyzer
from repro.fpga.speedgrade import SpeedGrade
from repro.iplookup.synth import SyntheticTableConfig
from repro.obs.registry import MetricsRegistry, default_registry
from repro.virt.schemes import Scheme

if TYPE_CHECKING:  # avoid a runtime repro.serve <-> repro.obs cycle
    from repro.serve.service import ServeTrace

__all__ = ["PowerSample", "PowerTelemetrySampler"]


@dataclass(frozen=True)
class PowerSample:
    """One power-telemetry reading derived from one served batch.

    Attributes
    ----------
    scheme, k, grade:
        The scenario point the sampler was built for.
    frequency_mhz:
        Operating clock of the placed design (achieved fmax).
    duty_cycle:
        Offered-load fraction assumed for the reading (1 = line rate,
        0 = idle: static power only, zero per-VN throughput).
    n_packets:
        Lookups in the batch behind this reading.
    static_w, logic_w, signal_w, bram_w:
        Power components in watts (post-P&R reporter breakdown,
        summed over devices for NV).
    throughput_gbps:
        Aggregate lookup capacity of the scheme at 40 B packets.
    per_vn_w:
        Per-virtual-network attribution, watts (sums to ``total_w``).
    per_vn_gbps:
        Offered per-VN throughput share, Gbps
        (``capacity x duty x share``).
    voltage:
        Core voltage the reading was scaled to (DVS operating point;
        1.0 is the unscaled -2 baseline).
    """

    scheme: Scheme
    k: int
    grade: SpeedGrade
    frequency_mhz: float
    duty_cycle: float
    n_packets: int
    static_w: float
    logic_w: float
    signal_w: float
    bram_w: float
    throughput_gbps: float
    per_vn_w: tuple[float, ...]
    per_vn_gbps: tuple[float, ...]
    voltage: float = NOMINAL_VOLTAGE

    @property
    def dynamic_w(self) -> float:
        """Dynamic (logic + signal + BRAM) power, watts."""
        return self.logic_w + self.signal_w + self.bram_w

    @property
    def total_w(self) -> float:
        """Total power, watts — comparable to a Fig. 5 row."""
        return self.static_w + self.dynamic_w

    @property
    def mw_per_gbps(self) -> float:
        """Efficiency at aggregate capacity — comparable to a Fig. 8 row."""
        return mw_per_gbps(self.total_w, self.throughput_gbps)

    def per_vn_mw_per_gbps(self) -> tuple[float, ...]:
        """Per-VN efficiency; ``inf`` for a VN that served no traffic."""
        out = []
        for watts, gbps_share in zip(self.per_vn_w, self.per_vn_gbps):
            if gbps_share <= 0.0:
                out.append(float("inf"))
            else:
                out.append(mw_per_gbps(watts, gbps_share))
        return tuple(out)


class PowerTelemetrySampler:
    """Convert serve traces into per-VN power telemetry for one scenario.

    Parameters
    ----------
    scheme:
        Deployment scheme (must match the traces sampled later).
    k:
        Number of virtual networks.
    grade:
        Speed grade of the modeled device.
    alpha:
        Merging efficiency; required for VM with ``k > 1``.
    table:
        Synthetic-table parameters of the *modeled* scenario; defaults
        to the paper's reference table, which makes the sampler agree
        with the published fig5/fig8 grid.  (The tables actually
        served may differ — the live trace contributes only activity.)
    registry:
        Metrics registry :meth:`observe` publishes gauges into;
        defaults to the process-wide registry.

    The scenario is evaluated once at construction through the
    process-wide memoized path, so building a sampler for a grid point
    the experiments already visited costs one reporter call: the
    full-activity report whose per-engine components every later
    :meth:`sample` scales.
    """

    def __init__(
        self,
        scheme: Scheme,
        k: int,
        *,
        grade: SpeedGrade = SpeedGrade.G2,
        alpha: float | None = None,
        table: SyntheticTableConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        # late import: repro.experiments registers every figure module
        # on import, which is heavy and would cycle back into obs
        from repro.experiments.common import evaluate_scenario, paper_table_config

        self.config = ScenarioConfig(
            scheme=scheme,
            k=k,
            grade=grade,
            alpha=alpha,
            table=table if table is not None else paper_table_config(),
        )
        self.scenario: ScenarioResult = evaluate_scenario(self.config)
        # full activity at the paper's write rate; sample() scales
        # these per-engine components (see the module docstring)
        report = XPowerAnalyzer().report(
            self.scenario.placed, self.scenario.frequency_mhz
        )
        # one coefficient per served engine, as Python floats: a reading
        # is a few scalar products per engine, cheaper as float
        # arithmetic than as K-element arrays.  NV places one device
        # design, whose one engine stands for each of the K devices.
        engines = report.engines
        if len(engines) == 1:
            engines = engines * scheme.engines_required(k)
        self._static_w = float(report.static_w)
        self._logic_w = [float(e.logic_w) for e in engines]
        self._signal_w = [float(e.signal_w) for e in engines]
        self._bram_w = [float(e.bram_w) for e in engines]
        self._registry = registry
        self._batches = 0
        self._packets = 0
        self._weighted_total_w = 0.0
        self._weighted_vn_w = [0.0] * k
        self._gauges: _PowerGauges | None = None
        self.set_operating_point(NOMINAL_POINT)
        #: most recent reading folded in by :meth:`observe` (None until
        #: the first batch); the DVS governor reads it for the
        #: energy-per-lookup surface
        self.last_sample: PowerSample | None = None

    # -- DVS operating point ------------------------------------------------

    @property
    def operating_point(self) -> OperatingPoint:
        """The DVS operating point readings are currently scaled to."""
        return self._point

    def set_operating_point(self, point: OperatingPoint) -> None:
        """Rescale subsequent readings to a DVS operating point.

        The CMOS scaling laws of :mod:`repro.fpga.dvs` factor exactly
        out of the XPA-like reporter — static power is multiplicative
        in the grade's static watts, dynamic power is linear in both
        the per-MHz coefficients (x V²) and the clock (x fmax scale) —
        so scaling the evaluated components is *identical* to
        re-placing the design on :func:`repro.fpga.dvs.synthetic_grade`
        at the scaled clock, without re-running the evaluation.  At
        the nominal point every factor is 1 and readings are untouched.
        The factors are taken here once, not per reading.
        """
        self._point = point
        # static scales by V³, dynamic by V²·fmax, capacity by fmax
        self._static_scale = point.static_scale
        self._dynamic_scale = point.dynamic_scale * point.frequency_scale
        self._capacity_gbps = self.scenario.throughput_gbps * point.frequency_scale
        self._frequency_mhz = self.scenario.frequency_mhz * point.frequency_scale
        self._gauges = None

    # -- sampling -----------------------------------------------------------

    def _vn_shares(self, trace: "ServeTrace") -> list[float]:
        """Per-VN lookup share of the batch (uniform when untracked)."""
        k = self.config.k
        if trace.vn_counts:
            if len(trace.vn_counts) != k:
                raise ObservabilityError(
                    f"trace tracks {len(trace.vn_counts)} VNs, sampler models {k}"
                )
            total = sum(trace.vn_counts)
            if total > 0:
                return [count / total for count in trace.vn_counts]
        return [1.0 / k] * k

    def sample(
        self,
        trace: "ServeTrace",
        *,
        duty_cycle: float = 1.0,
        write_rate: float | None = None,
    ) -> PowerSample:
        """Evaluate the power model at the batch's measured activity.

        ``duty_cycle`` is the offered-load fraction the batch
        represents (1 = saturated line rate, the figures' operating
        point; 0 = an idle device, which still burns static power but
        serves zero Gbps); the per-engine activity is the engine's
        share of the batch times this duty cycle — exactly the µᵢ·duty
        input of Eqs. 2/4/6 and of the XPA-like experimental path.
        Under degraded admission the engine shares already carry the
        shed fraction, so the reading tracks the degraded operating
        point.  ``write_rate`` overrides the stage-memory update rate
        (defaults to the paper's nominal
        :data:`~repro.fpga.bram.PAPER_WRITE_RATE`; a write storm
        passes its inflated rate here).  The reading is the factored
        full-activity report scaled by each engine's activity (and, for
        BRAM, by the write-rate factor) — equal to re-running the
        reporter at that activity, without the per-stage walk.  It is
        scalar float arithmetic over the K engines (one for VM): no
        array is built per reading.
        """
        if not 0.0 <= duty_cycle <= 1.0:
            raise ConfigurationError("duty_cycle must be in [0, 1]")
        rate = PAPER_WRITE_RATE if write_rate is None else write_rate
        scheme, k = self.config.scheme, self.config.k
        if trace.scheme is not scheme:
            raise ObservabilityError(
                f"trace served scheme {trace.scheme}, sampler models {scheme}"
            )
        engine_traces = trace.engine_traces
        if len(engine_traces) != len(self._logic_w):
            raise ObservabilityError(
                f"trace has {len(engine_traces)} engines, scheme {scheme} "
                f"at K={k} needs {len(self._logic_w)}"
            )
        n = trace.n_packets
        if scheme is Scheme.VM:
            # the one engine's activity is its share of the offered
            # batch (1 nominally, less under degraded admission)
            loads = [engine_traces[0].n_packets / n if n > 0 else 1.0]
        elif n > 0:
            loads = [t.n_packets / n for t in engine_traces]
        else:
            loads = [0.0] * k
        ds = self._dynamic_scale
        bram_factor = write_rate_factor(rate)
        logic_w = signal_w = bram_w = 0.0
        dynamic = []
        for load, logic_full, signal_full, bram_full in zip(
            loads, self._logic_w, self._signal_w, self._bram_w
        ):
            activity = load * duty_cycle
            if not 0.0 <= activity <= 1.0:
                raise ConfigurationError("engine activities must be in [0, 1]")
            logic = logic_full * activity
            signal = signal_full * activity
            bram = bram_full * activity * bram_factor
            logic_w += logic
            signal_w += signal
            bram_w += bram
            dynamic.append((logic + signal + bram) * ds)

        static = self._static_w * self._static_scale
        if scheme is Scheme.NV:
            # K identical devices, each charged to its own VN
            per_vn = [static + d for d in dynamic]
            static *= k
            shares = loads
        elif scheme is Scheme.VS:
            per_vn = [static / k + d for d in dynamic]
            shares = loads
        else:
            # VM: attribute the merged engine's dynamic power by VN share
            shares = self._vn_shares(trace)
            per_vn = [static / k + dynamic[0] * share for share in shares]

        capacity = self._capacity_gbps
        offered_gbps = capacity * duty_cycle
        return PowerSample(
            scheme=scheme,
            k=k,
            grade=self.config.grade,
            frequency_mhz=self._frequency_mhz,
            duty_cycle=duty_cycle,
            n_packets=n,
            static_w=static,
            logic_w=logic_w * ds,
            signal_w=signal_w * ds,
            bram_w=bram_w * ds,
            throughput_gbps=capacity,
            per_vn_w=tuple(per_vn),
            per_vn_gbps=tuple([offered_gbps * share for share in shares]),
            voltage=self._point.voltage,
        )

    # -- running telemetry --------------------------------------------------

    def observe(
        self,
        trace: "ServeTrace",
        *,
        duty_cycle: float = 1.0,
        write_rate: float | None = None,
    ) -> PowerSample:
        """Sample, fold into the running estimate, and publish gauges."""
        sample = self.sample(trace, duty_cycle=duty_cycle, write_rate=write_rate)
        self.last_sample = sample
        self._batches += 1
        n = sample.n_packets
        if n > 0:
            self._packets += n
            self._weighted_total_w += n * sample.total_w
            self._weighted_vn_w = [
                acc + n * watts for acc, watts in zip(self._weighted_vn_w, sample.per_vn_w)
            ]
        self.publish(sample)
        return sample

    @property
    def batches_observed(self) -> int:
        """Batches folded into the running estimate so far."""
        return self._batches

    @property
    def packets_observed(self) -> int:
        """Lookups folded into the running estimate so far."""
        return self._packets

    @property
    def running_total_w(self) -> float:
        """Packet-weighted mean total power over all observed batches."""
        if self._packets == 0:
            return 0.0
        return self._weighted_total_w / self._packets

    @property
    def running_per_vn_w(self) -> tuple[float, ...]:
        """Packet-weighted mean per-VN power over all observed batches."""
        if self._packets == 0:
            return tuple(0.0 for _ in range(self.config.k))
        return tuple(watts / self._packets for watts in self._weighted_vn_w)

    @property
    def running_mw_per_gbps(self) -> float:
        """Efficiency of the running power estimate at scheme capacity."""
        if self._packets == 0:
            return 0.0
        return mw_per_gbps(self.running_total_w, self.scenario.throughput_gbps)

    # -- publication --------------------------------------------------------

    def publish(self, sample: PowerSample) -> None:
        """Set the power gauges in the registry (no-op when disabled)."""
        registry = self._registry if self._registry is not None else default_registry()
        if not registry.enabled:
            return
        gauges = self._gauges
        if gauges is None or gauges.generation != registry.generation:
            gauges = self._gauges = _PowerGauges(
                registry, sample.scheme.name, sample.grade.name, self.config.k
            )
        gauges.total.set(sample.total_w)
        for child, watts in zip(
            gauges.components,
            (sample.static_w, sample.logic_w, sample.signal_w, sample.bram_w),
        ):
            child.set(watts)
        for child, watts in zip(gauges.per_vn, sample.per_vn_w):
            child.set(watts)
        gauges.mw_per_gbps.set(sample.mw_per_gbps)
        gauges.throughput.set(sample.throughput_gbps)


class _PowerGauges:
    """The gauge children :meth:`PowerTelemetrySampler.publish` sets.

    Resolved once per sampler and reused: re-resolving the families
    and label children costs a few dict lookups per gauge per batch.
    Rebuilt after a DVS re-clock and whenever the registry's
    ``generation`` moves (a reset or clear orphans cached children).
    """

    def __init__(self, registry: MetricsRegistry, scheme: str, grade: str, k: int):
        self.generation = registry.generation
        self.total = registry.gauge(
            "repro_power_total_watts",
            "Modeled total power of the scenario at live activity",
            labels=("scheme", "grade"),
        ).labels(scheme, grade)
        component = registry.gauge(
            "repro_power_component_watts",
            "Power by component (static/logic/signal/bram) at live activity",
            labels=("scheme", "grade", "component"),
        )
        self.components = tuple(
            component.labels(scheme, grade, name)
            for name in ("static", "logic", "signal", "bram")
        )
        per_vn = registry.gauge(
            "repro_power_vn_watts",
            "Per-virtual-network power attribution at live activity",
            labels=("scheme", "grade", "vn"),
        )
        self.per_vn = tuple(per_vn.labels(scheme, grade, vn) for vn in range(k))
        self.mw_per_gbps = registry.gauge(
            "repro_power_mw_per_gbps",
            "Fig. 8 efficiency metric at live activity (mW per Gbps)",
            labels=("scheme", "grade"),
        ).labels(scheme, grade)
        self.throughput = registry.gauge(
            "repro_power_throughput_gbps",
            "Aggregate lookup capacity of the modeled scheme",
            labels=("scheme", "grade"),
        ).labels(scheme, grade)
