"""Packet distributor (repro.virt.distributor)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.virt.distributor import Distributor


def _engine_indices(d, vnids):
    part = d.partition(vnids)
    return [part.engine_indices(i) for i in range(d.k)]


class TestRouting:
    def test_partition_is_complete_and_disjoint(self):
        d = Distributor(k=4)
        vnids = np.array([0, 1, 2, 3, 0, 1, 2, 3, 3])
        parts = _engine_indices(d, vnids)
        all_indices = np.concatenate(parts)
        assert sorted(all_indices) == list(range(len(vnids)))
        assert len(parts[3]) == 3

    def test_order_preserved_within_engine(self):
        d = Distributor(k=2)
        vnids = np.array([0, 1, 0, 1, 0])
        parts = _engine_indices(d, vnids)
        assert list(parts[0]) == [0, 2, 4]

    def test_rejects_out_of_range_vnid(self):
        with pytest.raises(ConfigurationError):
            Distributor(k=2).partition(np.array([0, 2]))

    def test_empty_stream(self):
        parts = _engine_indices(Distributor(k=3), np.array([], dtype=np.int64))
        assert all(len(p) == 0 for p in parts)


class TestAssumption3:
    def test_default_is_zero_cost(self):
        d = Distributor(k=8)
        assert d.resource_usage().total_luts == 0
        assert d.energy_j(10**9) == 0.0

    def test_nonzero_cost_model(self):
        d = Distributor(k=8, luts_per_port=16, energy_per_packet_nj=0.5)
        assert d.resource_usage().luts_logic == 128
        assert d.energy_j(1000) == pytest.approx(0.5e-6)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            Distributor(k=0)
        with pytest.raises(ConfigurationError):
            Distributor(k=1, luts_per_port=-1)
        with pytest.raises(ConfigurationError):
            Distributor(k=1, energy_per_packet_nj=-0.1)

    def test_energy_rejects_negative_packets(self):
        with pytest.raises(ConfigurationError):
            Distributor(k=1).energy_j(-1)
