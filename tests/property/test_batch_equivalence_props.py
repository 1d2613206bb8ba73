"""Property tests: every batch lookup equals its scalar counterpart.

The vectorized hot paths (level-synchronous walks, jump tables, 2-D
NHI gathers) must be behaviour-preserving refactors of the scalar
``lookup`` loops.  Hypothesis pins that down structure by structure:
``lookup_batch(addrs) == [lookup(a) for a in addrs]`` on random RIBs,
including the width > 32 path of the shared frozen walk kernel.  For
the two tries built on that kernel the walk depths are checked too,
against a bit-by-bit walk of the trie's child links.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.iplookup.multibit import MultibitTrie
from repro.iplookup.patricia import PatriciaTrie
from repro.iplookup.prefix import Prefix
from repro.iplookup.prefix6 import Prefix6
from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import NONE, UnibitTrie
from repro.virt.merged import merge_tries

prefixes = st.builds(
    Prefix.normalized,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)

route_lists = st.lists(
    st.tuples(prefixes, st.integers(min_value=0, max_value=63)),
    min_size=0,
    max_size=40,
)

address_arrays = st.lists(
    st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=60
)

prefixes6 = st.builds(
    Prefix6.normalized,
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.integers(min_value=0, max_value=128),
)

route_lists6 = st.lists(
    st.tuples(prefixes6, st.integers(min_value=0, max_value=63)),
    min_size=0,
    max_size=25,
)

address_arrays6 = st.lists(
    st.integers(min_value=0, max_value=(1 << 128) - 1), min_size=1, max_size=30
)


def build_table(routes) -> RoutingTable:
    table = RoutingTable()
    for prefix, nh in routes:
        table.add(prefix, nh)
    return table


def scalar_oracle(structure, addresses) -> np.ndarray:
    return np.array([structure.lookup(int(a)) for a in addresses], dtype=np.int64)


def scalar_depths(trie: UnibitTrie, addresses) -> np.ndarray:
    """Levels descended by a bit-by-bit walk that stops at a missing child."""
    depths = []
    for a in addresses:
        node = 0
        for level in range(trie.width):
            bit = (int(a) >> (trie.width - 1 - level)) & 1
            child = trie.right(node) if bit else trie.left(node)
            if child == NONE:
                break
            node = child
        depths.append(trie.level(node))
    return np.array(depths, dtype=np.int64)


@given(route_lists, address_arrays)
@settings(max_examples=150, deadline=None)
def test_unibit_batch_equals_scalar(routes, addresses):
    trie = UnibitTrie(build_table(routes))
    addrs = np.array(addresses, dtype=np.uint32)
    depths, results = trie.walk_batch(addrs)
    assert np.array_equal(results, scalar_oracle(trie, addrs))
    assert np.array_equal(depths, scalar_depths(trie, addrs))


@given(route_lists, address_arrays, st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_multibit_batch_equals_scalar(routes, addresses, stride):
    trie = MultibitTrie(build_table(routes), stride=stride)
    addrs = np.array(addresses, dtype=np.uint32)
    assert np.array_equal(trie.lookup_batch(addrs), scalar_oracle(trie, addrs))


@given(route_lists, address_arrays)
@settings(max_examples=150, deadline=None)
def test_patricia_batch_equals_scalar(routes, addresses):
    trie = PatriciaTrie(build_table(routes))
    addrs = np.array(addresses, dtype=np.uint32)
    assert np.array_equal(trie.lookup_batch(addrs), scalar_oracle(trie, addrs))


def check_merged_walk(per_vn_routes, addresses, rnd, width):
    k = len(per_vn_routes)
    merged = merge_tries([UnibitTrie(build_table(r), width=width) for r in per_vn_routes])
    vnids = np.array([rnd.randrange(k) for _ in addresses], dtype=np.int64)
    depths, results = merged.walk_batch(addresses, vnids)
    scalar = np.array(
        [merged.lookup(int(a), int(v)) for a, v in zip(addresses, vnids)], dtype=np.int64
    )
    assert np.array_equal(results, scalar)
    assert np.array_equal(depths, scalar_depths(merged.structure, addresses))


@given(
    st.lists(route_lists, min_size=1, max_size=4),
    address_arrays,
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_merged_batch_equals_scalar(per_vn_routes, addresses, rnd):
    check_merged_walk(per_vn_routes, np.array(addresses, dtype=np.uint32), rnd, 32)


@given(
    st.lists(route_lists6, min_size=1, max_size=3),
    address_arrays6,
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_wide_merged_batch_equals_scalar(per_vn_routes, addresses, rnd):
    """128-bit merged tries walk the same kernel and answer per VN."""
    check_merged_walk(per_vn_routes, addresses, rnd, 128)


@given(route_lists6, address_arrays6)
@settings(max_examples=60, deadline=None)
def test_wide_trie_batch_falls_back_to_scalar(routes, addresses):
    """width > 32 exceeds the NumPy word, so the walk shifts Python
    integers — its answers and depths must still agree with ``lookup``."""
    trie = UnibitTrie(build_table(routes), width=128)
    depths, results = trie.walk_batch(addresses)
    assert np.array_equal(results, scalar_oracle(trie, addresses))
    assert np.array_equal(depths, scalar_depths(trie, addresses))
