"""The normalization arithmetic of the reference probe."""

import pytest

from perfbench.probe import (
    Probe,
    normalize_batches,
    normalize_span,
    percentile,
    scale,
)


def test_scale_expresses_time_at_nominal_speed():
    assert scale(1.0, 2.0) == 0.5
    assert scale(3.0, 1.5) == 2.0
    with pytest.raises(ValueError):
        scale(1.0, 0.0)


def test_each_batch_uses_the_probes_around_it():
    # probe i ran before batch i and probe i + 1 after it
    assert normalize_batches([1.0, 1.0], [1.0, 2.0, 4.0], 1.0) == [1 / 1.5, 1 / 3.0]


def test_normalize_batches_needs_one_probe_more_than_batches():
    with pytest.raises(ValueError):
        normalize_batches([1.0, 1.0], [1.0, 1.0], 1.0)


def test_a_slow_host_state_cancels_out():
    # the host runs everything `slowdown` times slower for a while:
    # the batches and the probes around them stretch alike
    work_s, nominal_s = 0.004, 0.001
    slowdown = [1.0, 1.0, 1.7, 1.7, 1.7, 1.0]
    raw = [work_s * f for f in slowdown]
    probes = [nominal_s * f for f in slowdown[:1] + slowdown]
    probes[3] = nominal_s * 1.7  # the state switched before batch 2 started
    normalized = normalize_batches(raw, probes, nominal_s)
    assert normalized[0] == pytest.approx(work_s)
    assert normalized[3] == pytest.approx(work_s)
    assert normalized[4] == pytest.approx(work_s)


def test_setup_scales_by_the_mean_of_the_probes_before_and_after():
    assert normalize_span(2.0, 1.0, 3.0, 2.0) == pytest.approx(2.0)
    assert normalize_span(1.0, 2.0, 2.0, 1.0) == pytest.approx(0.5)


def test_percentile_interpolates_linearly():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == pytest.approx(4.6)


def test_probe_work_is_fixed():
    assert Probe(512, 1e-3).run() == Probe(512, 2e-3).run()
    probe = Probe(512, 1e-3)
    assert probe.time_min(3) > 0.0
    with pytest.raises(ValueError):
        Probe(0, 1e-3)
