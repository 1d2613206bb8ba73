"""End-to-end integration: tables → tries → routers → power."""

import numpy as np
import pytest

from repro.core.config import ScenarioConfig
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.iplookup.trie import UnibitTrie
from repro.iplookup.leafpush import leaf_push
from repro.iplookup.mapping import map_trie_to_stages
from repro.iplookup.pipeline import LookupPipeline
from repro.virt.merged import merge_tries
from repro.virt.separate import SeparateVirtualRouter
from repro.virt.schemes import Scheme
from repro.virt.traffic import TrafficModel


@pytest.fixture(scope="module")
def consolidation():
    """A full K=4 consolidation scenario with real tables and traffic."""
    config = SyntheticTableConfig(n_prefixes=300, seed=55)
    tables = generate_virtual_tables(4, 0.6, config)
    traffic = TrafficModel.uniform(4)
    addresses, vnids = traffic.generate(800, tables, seed=9)
    return tables, addresses, vnids


class TestSeparateVsMergedEquivalence:
    def test_both_routers_agree_with_each_other_and_oracle(self, consolidation):
        tables, addresses, vnids = consolidation
        separate = SeparateVirtualRouter(tables)
        merged = merge_tries([leaf_push(UnibitTrie(t)) for t in tables])

        sep_results = separate.lookup_batch(addresses, vnids)
        mrg_results = merged.lookup_batch(addresses, vnids)
        oracle = np.array(
            [tables[v].lookup_linear(int(a)) for a, v in zip(addresses, vnids)]
        )
        assert np.array_equal(sep_results, oracle)
        assert np.array_equal(mrg_results, oracle)

    def test_merging_plain_and_pushed_tries_equivalent(self, consolidation):
        tables, addresses, vnids = consolidation
        from_plain = merge_tries([UnibitTrie(t) for t in tables])
        from_pushed = merge_tries([leaf_push(UnibitTrie(t)) for t in tables])
        a = from_plain.lookup_batch(addresses, vnids)
        b = from_pushed.lookup_batch(addresses, vnids)
        assert np.array_equal(a, b)


class TestPipelineIntegration:
    def test_pipeline_over_each_vn_trie(self, consolidation):
        tables, addresses, _ = consolidation
        for table in tables:
            trie = leaf_push(UnibitTrie(table))
            pipeline = LookupPipeline(trie, n_stages=32)
            assert pipeline.verify(addresses[:200])

    def test_activity_feeds_duty_cycle(self, consolidation):
        tables, addresses, _ = consolidation
        trie = leaf_push(UnibitTrie(tables[0]))
        pipeline = LookupPipeline(trie, n_stages=32)
        _, dense = pipeline.run(addresses[:200])
        _, sparse = pipeline.run(addresses[:200], inter_arrival_gap=3)
        assert sparse.mean_duty_cycle() < dense.mean_duty_cycle()


class TestMeasuredAlphaFlowsIntoModel:
    def test_measured_alpha_scenario_consistency(self, consolidation):
        """Drive the analytical VM model with the *measured* pairwise α
        of a real merge and check it brackets the real merged memory."""
        tables, _, _ = consolidation
        tries = [leaf_push(UnibitTrie(t)) for t in tables]
        merged = merge_tries(tries)
        alpha = merged.pairwise_alpha

        from repro.core.resources import merged_stage_map

        # Assumption 2 is approximate here (table sizes vary slightly),
        # so allow a generous band: the analytic estimate from the
        # average table must be within 2x of the real merged memory.
        base_stats = tries[0].stats()
        n_stages = max(32, merged.stats().depth)
        analytic = merged_stage_map(base_stats, 4, alpha, n_stages)
        real = map_trie_to_stages(merged.stats(), n_stages, nhi_vector_width=4)
        ratio = analytic.total_bits / real.total_bits
        assert 0.5 <= ratio <= 2.0


class TestScenarioAgainstManualComposition:
    def test_vs_model_equals_manual_eq4(self, estimator):
        """ScenarioEstimator's Eq. 4 evaluation must equal composing
        the model by hand from the same stage maps."""
        from repro.core.power import AnalyticalPowerModel

        config = ScenarioConfig(
            scheme=Scheme.VS, k=3, table=SyntheticTableConfig(n_prefixes=300, seed=55)
        )
        result = estimator.evaluate(config)
        model = AnalyticalPowerModel(config.grade)
        manual = model.power_vs(
            list(result.resources.engine_maps),
            result.frequency_mhz,
            np.full(3, 1 / 3),
        )
        assert result.model.total_w == pytest.approx(manual.total_w)
