"""Property tests: the factored power sampler equals the reporter path.

:class:`~repro.obs.power.PowerTelemetrySampler` evaluates the placed
design once, at full activity, and scales the per-engine components
per batch.  The reference here re-runs
:meth:`~repro.fpga.power_report.XPowerAnalyzer.report` at the batch's
activity and write rate for every reading — the per-batch evaluation
the sampler replaced — and every component, per-VN watts and per-VN
Gbps must agree within 1e-12 relative, over schemes, K, duty cycles,
degraded (shed) engine loads, write rates and DVS voltages.  Below
``sys.float_info.min`` a float is subnormal and keeps fewer than 53
significant bits, so no evaluation order can promise 1e-12 relative
there; :data:`ATOL` admits exactly that range and nothing above it.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.estimator import ExperimentalPower
from repro.fpga.bram import PAPER_WRITE_RATE
from repro.fpga.dvs import OperatingPoint
from repro.fpga.power_report import XPowerAnalyzer
from repro.iplookup.pipeline import trace_from_walk
from repro.obs.power import PowerTelemetrySampler
from repro.serve.stages import ServeTrace
from repro.virt.queueing import LatencyReport
from repro.virt.schemes import Scheme

RTOL = 1e-12
#: the smallest normal float: differences below it are subnormal round-off
ATOL = sys.float_info.min

_SAMPLERS: dict[tuple[Scheme, int], PowerTelemetrySampler] = {}


def sampler_for(scheme: Scheme, k: int) -> PowerTelemetrySampler:
    """One sampler per grid point (construction runs the scenario)."""
    key = (scheme, k)
    if key not in _SAMPLERS:
        alpha = 0.6 if scheme is Scheme.VM and k > 1 else None
        _SAMPLERS[key] = PowerTelemetrySampler(scheme, k, alpha=alpha)
    return _SAMPLERS[key]


def make_trace(scheme: Scheme, offered: list[int], admitted: list[int]) -> ServeTrace:
    """A trace with ``offered[vn]`` lookups per VN, ``admitted[vn]`` served."""
    engine_counts = [sum(admitted)] if scheme is Scheme.VM else admitted
    engine_traces = tuple(
        trace_from_walk(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 4)
        for n in engine_counts
    )
    return ServeTrace(
        scheme=scheme,
        n_packets=sum(offered),
        engine_traces=engine_traces,
        latency=LatencyReport(str(scheme), 200.0, 0.0, 0.0),
        elapsed_s=0.0,
        vn_counts=tuple(admitted),
        vn_shed=tuple(o - a for o, a in zip(offered, admitted)),
    )


def reference(sampler, trace, duty, write_rate, point):
    """``(static, logic, signal, bram, per-VN W, per-VN Gbps)`` via the reporter."""
    analyzer = XPowerAnalyzer()
    placed = sampler.scenario.placed
    f = sampler.scenario.frequency_mhz
    k = sampler.config.k
    ss = point.static_scale
    ds = point.dynamic_scale * point.frequency_scale
    loads = np.asarray(trace.engine_loads(), dtype=float)
    scheme = sampler.config.scheme
    if scheme is Scheme.NV:
        reports = [
            analyzer.report(placed, f, np.array([load * duty]), write_rate=write_rate)
            for load in loads
        ]
        per_vn = [r.static_w * ss + r.dynamic_w * ds for r in reports]
        shares = loads
    elif scheme is Scheme.VS:
        reports = [analyzer.report(placed, f, loads * duty, write_rate=write_rate)]
        per_vn = [
            reports[0].static_w * ss / k + engine.dynamic_w * ds
            for engine in reports[0].engines
        ]
        shares = loads
    else:
        served = loads[0] if trace.n_packets > 0 else 1.0
        reports = [
            analyzer.report(placed, f, np.array([served * duty]), write_rate=write_rate)
        ]
        shares = sampler._vn_shares(trace)
        per_vn = [
            reports[0].static_w * ss / k + reports[0].dynamic_w * ds * share
            for share in shares
        ]
    power = ExperimentalPower.from_reports(reports)
    capacity = sampler.scenario.throughput_gbps * point.frequency_scale
    components = (
        power.static_w * ss,
        power.logic_w * ds,
        power.signal_w * ds,
        power.bram_w * ds,
    )
    return components, per_vn, [capacity * duty * float(s) for s in shares]


def assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=RTOL, abs=ATOL)


@st.composite
def batches(draw):
    scheme = draw(st.sampled_from([Scheme.NV, Scheme.VS, Scheme.VM]))
    k = draw(st.integers(min_value=1, max_value=6))
    offered = draw(st.lists(st.integers(0, 50), min_size=k, max_size=k))
    # degraded admission: each VN keeps some prefix of its offered load
    admitted = [draw(st.integers(0, n)) for n in offered]
    return scheme, k, offered, admitted


@given(
    batches(),
    st.floats(0.0, 1.0),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    st.floats(0.7, 1.0),
)
@settings(max_examples=60, deadline=None)
# a subnormal duty cycle: the two paths differ in the last bits kept
@example((Scheme.NV, 6, [2] * 6, [1] * 6), 2.2250738585e-313, 0.5, 0.7)
def test_factored_sample_equals_reporter(batch, duty, write_rate, voltage):
    scheme, k, offered, admitted = batch
    sampler = sampler_for(scheme, k)
    point = OperatingPoint(voltage)
    sampler.set_operating_point(point)
    trace = make_trace(scheme, offered, admitted)
    sample = sampler.sample(trace, duty_cycle=duty, write_rate=write_rate)
    rate = PAPER_WRITE_RATE if write_rate is None else write_rate
    components, per_vn_w, per_vn_gbps = reference(sampler, trace, duty, rate, point)
    assert_close(
        (sample.static_w, sample.logic_w, sample.signal_w, sample.bram_w), components
    )
    assert_close(sample.per_vn_w, per_vn_w)
    assert_close(sample.per_vn_gbps, per_vn_gbps)
    assert all(type(w) is float for w in sample.per_vn_w)
