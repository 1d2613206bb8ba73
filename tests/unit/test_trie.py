"""Uni-bit trie (repro.iplookup.trie)."""

import numpy as np
import pytest

from repro.errors import TrieError
from repro.iplookup.prefix import parse_address, parse_prefix
from repro.iplookup.rib import NO_ROUTE, RoutingTable
from repro.iplookup.trie import NONE, UnibitTrie


class TestConstruction:
    def test_empty_trie_is_single_root(self):
        t = UnibitTrie()
        assert t.num_nodes == 1
        assert t.is_leaf(0)
        assert t.nhi(0) == NO_ROUTE

    def test_single_prefix_builds_chain(self):
        t = UnibitTrie()
        t.insert(parse_prefix("128.0.0.0/2"), 7)
        # root + 2 chain nodes
        assert t.num_nodes == 3
        assert t.depth() == 2

    def test_default_route_sits_on_root(self):
        t = UnibitTrie()
        t.insert(parse_prefix("0.0.0.0/0"), 9)
        assert t.num_nodes == 1
        assert t.nhi(0) == 9

    def test_reinsert_overwrites_without_new_nodes(self):
        t = UnibitTrie()
        p = parse_prefix("10.0.0.0/8")
        t.insert(p, 1)
        n = t.num_nodes
        t.insert(p, 2)
        assert t.num_nodes == n
        assert t.num_prefixes == 1
        assert t.lookup(parse_address("10.0.0.1")) == 2

    def test_rejects_negative_next_hop(self):
        with pytest.raises(TrieError):
            UnibitTrie().insert(parse_prefix("10.0.0.0/8"), -1)

    def test_from_table(self, small_table, small_trie):
        assert small_trie.num_prefixes == len(small_table)


class TestLookup:
    def test_matches_oracle(self, small_table, small_trie, random_addresses):
        for addr in random_addresses[:64]:
            assert small_trie.lookup(int(addr)) == small_table.lookup_linear(int(addr))

    def test_batch_matches_scalar(self, small_trie, random_addresses):
        batch = small_trie.lookup_batch(random_addresses)
        scalar = np.array([small_trie.lookup(int(a)) for a in random_addresses])
        assert np.array_equal(batch, scalar)

    def test_empty_trie_returns_no_route(self):
        t = UnibitTrie()
        assert t.lookup(0x12345678) == NO_ROUTE
        assert (t.lookup_batch(np.array([0, 1], dtype=np.uint32)) == NO_ROUTE).all()

    def test_slash32_exact(self):
        t = UnibitTrie()
        t.insert(parse_prefix("1.2.3.4/32"), 5)
        assert t.lookup(parse_address("1.2.3.4")) == 5
        assert t.lookup(parse_address("1.2.3.5")) == NO_ROUTE

    def test_lookup_batch_after_mutation_refreshes(self, small_table):
        t = UnibitTrie(small_table)
        addr = np.array([parse_address("8.8.8.8")], dtype=np.uint32)
        assert t.lookup_batch(addr)[0] == 0  # default route
        t.insert(parse_prefix("8.0.0.0/8"), 42)
        assert t.lookup_batch(addr)[0] == 42


class TestStats:
    def test_node_count_accounting(self, small_trie):
        stats = small_trie.stats()
        assert stats.total_nodes == small_trie.num_nodes
        assert stats.internal_nodes + stats.leaf_nodes == stats.total_nodes
        assert sum(stats.nodes_per_level) == stats.total_nodes

    def test_per_level_split(self, small_trie):
        stats = small_trie.stats()
        for level in range(stats.depth + 1):
            assert (
                stats.internal_per_level[level] + stats.leaves_per_level[level]
                == stats.nodes_per_level[level]
            )

    def test_depth_matches_longest_prefix(self, small_table, small_trie):
        assert small_trie.depth() == small_table.max_length()

    def test_root_level_single_node(self, small_trie):
        assert small_trie.stats().nodes_per_level[0] == 1


class TestWalkPaths:
    def test_paths_cover_all_nodes(self, small_trie):
        seen = {node for node, _, _ in small_trie.walk_paths()}
        assert seen == set(small_trie.nodes())

    def test_path_value_is_prefix_value(self, small_trie):
        # every inserted prefix's node must appear with its own value
        values = {(path, level) for _, path, level in small_trie.walk_paths()}
        assert (parse_prefix("10.1.1.0/24").value, 24) in values


class TestValidate:
    def test_valid_trie_passes(self, small_trie):
        small_trie.validate()

    def test_detects_level_corruption(self, small_table):
        t = UnibitTrie(small_table)
        t._level[3] += 1
        with pytest.raises(TrieError):
            t.validate()

    def test_detects_double_reference(self, small_table):
        t = UnibitTrie(small_table)
        # point some node's unused child at an already-referenced node
        victim = t._left[0]
        for node in t.nodes():
            if t._right[node] == NONE and t._left[node] != NONE and node != 0:
                t._right[node] = victim
                break
        with pytest.raises(TrieError):
            t.validate()


class TestStrideWalk:
    """The frozen walk's stride tables (see FrozenWalk)."""

    def test_single_child_node_on_a_stride_boundary_parks_there(self):
        # 10.1/16 sits at level 16, the first stride boundary, and has
        # only a 0-child (10.1.0/20); 10.1.0.0/24 sits at level 24, the
        # second, and has only a 0-child (10.1.0.0/28)
        table = RoutingTable.from_strings(
            [("10.1.0.0/16", 1), ("10.1.0.0/20", 2), ("10.1.0.0/24", 3), ("10.1.0.0/28", 4)]
        )
        trie = UnibitTrie(table)
        frozen = trie.freeze()
        assert frozen.strides == ((16, 8), (24, 4))
        addresses = np.array(
            [parse_address(a) for a in ("10.1.128.1", "10.1.0.128", "10.1.0.1")],
            dtype=np.uint32,
        )
        node = frozen.walk(addresses)
        n_real = len(trie.nodes())
        # the first two park beside their boundary node's live child
        assert (node[:2] >= n_real).all()
        assert (frozen.rowbase[node[:2]] == 0).all()
        depths, results = trie.walk_batch(addresses)
        assert depths.tolist() == [16, 24, 28]
        assert results.tolist() == [1, 3, 4]
        assert results.tolist() == [trie.lookup(int(a)) for a in addresses]
