"""The NV/VS serve path's one forest walk equals K separate per-VN walks.

The reference is the per-VN composition the serve path used to run:
each VN's lookups picked out with ``flatnonzero``, walked on that VN's
own :class:`~repro.iplookup.trie.UnibitTrie` (its own K=1 snapshot) and
accounted with :func:`~repro.iplookup.pipeline.trace_from_walk`.  The
forest walk must give the same answers, the same per-engine activity,
the same per-VN counts and the same trie-visit counter increment.
"""

import numpy as np
import pytest

from repro.iplookup.pipeline import trace_from_walk
from repro.iplookup.rib import RoutingTable
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.iplookup.trie import UnibitTrie
from repro.obs.registry import REGISTRY
from repro.serve.service import LookupService
from repro.serve.stages import walk_nominal
from repro.virt.schemes import Scheme

K = 4
RATE = 0.5


@pytest.fixture(scope="module")
def tables():
    tabs = generate_virtual_tables(K - 1, 0.5, SyntheticTableConfig(n_prefixes=300, seed=11))
    # a VN shallower than the 16-bit root jump
    return tabs + [RoutingTable.from_strings([("10.0.0.0/8", 7), ("10.64.0.0/10", 8)])]


def batches():
    rng = np.random.default_rng(23)
    addresses = rng.integers(0, 1 << 32, size=3000, dtype=np.uint64).astype(np.uint32)
    addresses[:200] = 0x0A400000 | rng.integers(0, 1 << 22, size=200, dtype=np.uint32)
    vnids = rng.integers(0, K, size=3000, dtype=np.int64)
    no_vn1 = np.where(vnids == 1, 0, vnids)
    return {
        "mixed": (addresses, vnids),
        "empty_vn": (addresses, no_vn1),
        "single_vn": (addresses[:500], np.full(500, K - 1, dtype=np.int64)),
        "empty": (addresses[:0], vnids[:0]),
    }


def visits() -> float:
    family = REGISTRY.get("repro_trie_node_visits_total")
    if family is None:
        return 0.0
    return sum(child.value for key, child in family.samples() if key == ("unibit",))


@pytest.fixture()
def metrics_on():
    with REGISTRY.enabled_scope(True):
        yield
    REGISTRY.clear()


def reference(tables, addresses, vnids, n_stages):
    """Per-VN walks on separate tries: results, traces and counts."""
    results = np.empty(len(addresses), dtype=np.int64)
    traces = []
    for vn, table in enumerate(tables):
        mine = np.flatnonzero(vnids == vn)
        depths, answers = UnibitTrie(table).walk_batch(addresses[mine])
        results[mine] = answers
        traces.append(trace_from_walk(depths, answers, n_stages, admission_rate=RATE))
    return results, traces


@pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS])
@pytest.mark.parametrize("name", ["mixed", "empty_vn", "single_vn", "empty"])
def test_forest_walk_equals_per_vn_walks(tables, scheme, name, metrics_on):
    addresses, vnids = batches()[name]
    service = LookupService(tables, scheme, n_stages=None, offered_load_fraction=RATE)
    before = visits()
    expected, expected_traces = reference(tables, addresses, vnids, service.n_stages)
    per_vn_visits = visits() - before

    before = visits()
    results, traces, _ = walk_nominal(service.group, addresses, vnids, admission_rate=RATE)
    assert visits() - before == per_vn_visits
    assert np.array_equal(results, expected)
    assert len(traces) == K
    for mine, theirs in zip(traces, expected_traces):
        assert np.array_equal(mine.accesses_per_stage, theirs.accesses_per_stage)
        assert np.array_equal(mine.busy_cycles_per_stage, theirs.busy_cycles_per_stage)
        assert mine.total_cycles == theirs.total_cycles
        assert mine.n_packets == theirs.n_packets

    served, trace = service.serve(addresses, vnids)
    assert np.array_equal(served, expected)
    assert trace.vn_counts == tuple(np.bincount(vnids, minlength=K).tolist())
    assert trace.vn_counts == tuple(t.n_packets for t in expected_traces)


def test_the_group_holds_one_forest_snapshot_not_k(tables):
    service = LookupService(tables, Scheme.VS, n_stages=None)
    group = service.group
    assert group.forest is not None and len(group.forest.offsets) == K + 1
    # the per-VN tries stay unfrozen; a direct caller freezes lazily
    assert all(trie._frozen is None for trie in group.tries)
    _, answers = group.tries[0].walk_batch(np.array([0x0A000001], dtype=np.uint32))
    assert group.tries[0]._frozen is not None
    assert answers[0] == tables[0].lookup_linear_batch(np.array([0x0A000001], dtype=np.uint32))[0]
