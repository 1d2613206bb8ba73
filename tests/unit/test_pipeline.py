"""Pipeline simulator (repro.iplookup.pipeline)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.iplookup.pipeline import LookupPipeline
from repro.iplookup.trie import UnibitTrie


@pytest.fixture(scope="module")
def pipeline(small_pushed_module):
    return LookupPipeline(small_pushed_module, n_stages=32)


@pytest.fixture(scope="module")
def small_pushed_module():
    from repro.iplookup.leafpush import leaf_push
    from repro.iplookup.rib import RoutingTable

    table = RoutingTable.from_strings(
        [
            ("0.0.0.0/0", 0),
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.1.0/24", 3),
            ("192.168.0.0/16", 6),
        ]
    )
    return leaf_push(UnibitTrie(table))


class TestConstruction:
    def test_rejects_shallow_pipeline(self, small_pushed_module):
        with pytest.raises(ConfigurationError):
            LookupPipeline(small_pushed_module, n_stages=2)

    def test_rejects_zero_stages(self):
        with pytest.raises(ConfigurationError):
            LookupPipeline(UnibitTrie(), n_stages=0)


class TestFunctional:
    def test_results_match_direct_lookup(self, pipeline, random_addresses):
        assert pipeline.verify(random_addresses)

    def test_empty_stream(self, pipeline):
        results, trace = pipeline.run(np.array([], dtype=np.uint32))
        assert len(results) == 0
        assert trace.n_packets == 0
        assert trace.total_cycles == 0
        assert trace.accesses_per_stage.sum() == 0

    def test_result_order_preserved(self, pipeline):
        addrs = np.array([0x0A010101, 0xC0A80001, 0x08080808], dtype=np.uint32)
        results, _ = pipeline.run(addrs)
        assert list(results) == [3, 6, 0]


class TestTiming:
    def test_back_to_back_cycle_count(self, pipeline):
        n = 100
        addrs = np.zeros(n, dtype=np.uint32)
        _, trace = pipeline.run(addrs)
        # fill + drain: (n-1) admissions after the first + pipeline depth + exit
        assert trace.total_cycles == (n - 1) + pipeline.n_stages + 1

    def test_gap_inflates_cycles(self, pipeline):
        addrs = np.zeros(10, dtype=np.uint32)
        _, dense = pipeline.run(addrs, inter_arrival_gap=0)
        _, sparse = pipeline.run(addrs, inter_arrival_gap=3)
        assert sparse.total_cycles > dense.total_cycles

    def test_rejects_negative_gap(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.run(np.zeros(1, dtype=np.uint32), inter_arrival_gap=-1)

    def test_latency(self, pipeline):
        _, trace = pipeline.run(np.zeros(1, dtype=np.uint32))
        assert trace.latency_cycles == pipeline.n_stages + 1


class TestActivity:
    def test_stage_accesses_monotone_nonincreasing(self, pipeline, random_addresses):
        # a packet that reaches stage j+1 necessarily reached stage j
        _, trace = pipeline.run(random_addresses)
        acc = trace.accesses_per_stage
        assert (np.diff(acc) <= 0).all()

    def test_stage0_accessed_by_all_matching_walks(self, pipeline):
        # every address whose walk enters level 1 touches stage 0
        addrs = np.array([0x0A000000, 0xC0A80000], dtype=np.uint32)
        _, trace = pipeline.run(addrs)
        assert trace.accesses_per_stage[0] == 2

    def test_duty_cycle_bounds(self, pipeline, random_addresses):
        _, trace = pipeline.run(random_addresses)
        duty = trace.stage_duty_cycle()
        assert (duty >= 0).all() and (duty <= 1).all()
        assert 0.0 <= trace.mean_duty_cycle() <= 1.0

    def test_throughput_packets_per_cycle(self, pipeline):
        addrs = np.zeros(50, dtype=np.uint32)
        _, dense = pipeline.run(addrs)
        _, sparse = pipeline.run(addrs, inter_arrival_gap=1)
        assert dense.throughput_packets_per_cycle() > sparse.throughput_packets_per_cycle()
