"""Queueing latency model (repro.virt.queueing)."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.virt.queueing import md1_wait_ns, scheme_latency_ns, simulate_md1_waits


class TestMD1:
    def test_zero_load_zero_wait(self):
        assert md1_wait_ns(0.0, 300) == 0.0

    def test_known_value(self):
        # ρ=0.5, 1-cycle service at 100 MHz (10 ns): W = 0.5·10/(2·0.5) = 5 ns
        assert md1_wait_ns(0.5, 100) == pytest.approx(5.0)

    def test_diverges_towards_saturation(self):
        assert md1_wait_ns(0.99, 300) > 50 * md1_wait_ns(0.5, 300)

    def test_monotone_in_load(self):
        waits = [md1_wait_ns(rho, 300) for rho in (0.1, 0.3, 0.6, 0.9)]
        assert all(a < b for a, b in zip(waits, waits[1:]))

    def test_rejects_saturated_queue(self):
        with pytest.raises(CapacityError):
            md1_wait_ns(1.0, 300)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigurationError):
            md1_wait_ns(0.5, 0)


class TestLindleySimulation:
    @pytest.mark.parametrize("rho", [0.5, 0.8])
    def test_mean_wait_within_15pct_of_md1(self, rho):
        """The simulated queue's mean wait agrees with the closed form
        within 15% at ρ ≤ 0.8 over 50,000 arrivals."""
        waits = simulate_md1_waits(rho, 200.0, 50_000, seed=7)
        predicted = md1_wait_ns(rho, 200.0)
        assert abs(waits.mean() - predicted) / predicted <= 0.15

    def test_same_seed_same_waits(self):
        a = simulate_md1_waits(0.6, 200.0, 4096, seed=3)
        b = simulate_md1_waits(0.6, 200.0, 4096, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, simulate_md1_waits(0.6, 200.0, 4096, seed=4))

    def test_zero_load_waits_are_zero(self):
        waits = simulate_md1_waits(0.0, 200.0, 100, seed=1)
        assert waits.shape == (100,)
        assert not waits.any()

    @pytest.mark.parametrize("rho", [1.0, 1.5])
    def test_saturated_queue_raises(self, rho):
        with pytest.raises(CapacityError):
            simulate_md1_waits(rho, 200.0, 100, seed=1)


class TestSchemeLatency:
    def test_splitting_over_engines_reduces_wait(self):
        shared = scheme_latency_ns("VM", 80.0, 100.0, 1, 300)
        split = scheme_latency_ns("VS", 80.0, 100.0, 8, 300)
        assert split.queueing_ns < shared.queueing_ns
        assert split.pipeline_ns == shared.pipeline_ns

    def test_total_decomposition(self):
        report = scheme_latency_ns("VS", 10.0, 100.0, 2, 300)
        assert report.total_ns == pytest.approx(report.pipeline_ns + report.queueing_ns)

    def test_saturation_raises(self):
        with pytest.raises(CapacityError):
            scheme_latency_ns("VM", 120.0, 100.0, 1, 300)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            scheme_latency_ns("x", -1.0, 100.0, 1, 300)
        with pytest.raises(ConfigurationError):
            scheme_latency_ns("x", 1.0, 100.0, 0, 300)


class TestExperiment:
    def test_vm_latency_dominates_and_diverges(self):
        from repro.experiments.latency import run
        from repro.iplookup.synth import SyntheticTableConfig

        result = run(k=4, load_fractions=(0.2, 0.8), table=SyntheticTableConfig(n_prefixes=400, seed=99))
        vs = result.get("VS_total_ns")
        vm = result.get("VM_total_ns")
        assert (vm > vs).all()
        assert vm[1] - vm[0] > vs[1] - vs[0]
