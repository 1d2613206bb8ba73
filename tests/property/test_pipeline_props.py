"""Property tests: pipeline simulator (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.iplookup.leafpush import leaf_push
from repro.iplookup.pipeline import LookupPipeline
from repro.iplookup.prefix import Prefix
from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import UnibitTrie

prefixes = st.builds(
    Prefix.normalized,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=28),
)

route_lists = st.lists(
    st.tuples(prefixes, st.integers(min_value=0, max_value=31)),
    min_size=0,
    max_size=25,
)

address_arrays = st.lists(
    st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=0, max_size=40
)


def build_pipeline(routes) -> tuple[RoutingTable, LookupPipeline]:
    table = RoutingTable()
    for prefix, nh in routes:
        table.add(prefix, nh)
    trie = leaf_push(UnibitTrie(table))
    return table, LookupPipeline(trie, n_stages=32)


@given(route_lists, address_arrays)
@settings(max_examples=100, deadline=None)
def test_pipeline_results_match_oracle(routes, addresses):
    table, pipeline = build_pipeline(routes)
    addrs = np.array(addresses, dtype=np.uint32)
    results, _ = pipeline.run(addrs)
    assert np.array_equal(results, table.lookup_linear_batch(addrs))


@given(route_lists, address_arrays, st.integers(min_value=0, max_value=5))
@settings(max_examples=100, deadline=None)
def test_cycle_accounting(routes, addresses, gap):
    _, pipeline = build_pipeline(routes)
    addrs = np.array(addresses, dtype=np.uint32)
    _, trace = pipeline.run(addrs, inter_arrival_gap=gap)
    n = len(addrs)
    if n == 0:
        assert trace.total_cycles == 0
    else:
        assert trace.total_cycles == (n - 1) * (gap + 1) + pipeline.n_stages + 1


@given(route_lists, address_arrays)
@settings(max_examples=100, deadline=None)
def test_access_counts_bounded_and_monotone(routes, addresses):
    _, pipeline = build_pipeline(routes)
    addrs = np.array(addresses, dtype=np.uint32)
    _, trace = pipeline.run(addrs)
    acc = trace.accesses_per_stage
    assert (acc >= 0).all()
    assert (acc <= len(addrs)).all()
    # a packet reaching stage j+1 must have passed stage j
    assert (np.diff(acc) <= 0).all()


@given(route_lists, address_arrays)
@settings(max_examples=50, deadline=None)
def test_gap_does_not_change_results(routes, addresses):
    _, pipeline = build_pipeline(routes)
    addrs = np.array(addresses, dtype=np.uint32)
    dense_results, dense = pipeline.run(addrs, inter_arrival_gap=0)
    sparse_results, sparse = pipeline.run(addrs, inter_arrival_gap=4)
    assert np.array_equal(dense_results, sparse_results)
    assert np.array_equal(dense.accesses_per_stage, sparse.accesses_per_stage)
