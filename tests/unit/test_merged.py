"""Merged trie (repro.virt.merged)."""

import numpy as np
import pytest

from repro.errors import MergeError
from repro.iplookup.rib import NO_ROUTE, RoutingTable
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.iplookup.trie import UnibitTrie, WalkWorkspace
from repro.virt.merged import (
    _leaf_matrix,
    global_alpha_from_pairwise,
    merge_tries,
    pairwise_alpha_from_global,
)


@pytest.fixture(scope="module")
def vn_tables():
    return generate_virtual_tables(3, 0.6, SyntheticTableConfig(n_prefixes=250, seed=17))


@pytest.fixture(scope="module")
def merged(vn_tables):
    return merge_tries([UnibitTrie(t) for t in vn_tables])


class TestAlphaConversions:
    def test_roundtrip(self):
        for k in (2, 5, 15):
            for alpha in (0.1, 0.5, 0.9):
                g = global_alpha_from_pairwise(alpha, k)
                assert pairwise_alpha_from_global(g, k) == pytest.approx(alpha)

    def test_identical_tables_bound(self):
        # K identical tables: global alpha = (K-1)/K maps to pairwise 1
        assert pairwise_alpha_from_global(14 / 15, 15) == pytest.approx(1.0)

    def test_rejects_small_k(self):
        with pytest.raises(MergeError):
            pairwise_alpha_from_global(0.5, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(MergeError):
            pairwise_alpha_from_global(0.9, 2)  # > (k-1)/k
        with pytest.raises(MergeError):
            global_alpha_from_pairwise(1.5, 3)


class TestMergeStructure:
    def test_full_and_leaf_pushed(self, merged):
        merged.structure.validate()
        assert merged.structure.is_leaf_pushed()

    def test_every_leaf_has_a_vector(self, merged):
        trie = merged.structure
        for node in trie.nodes():
            if trie.is_leaf(node):
                assert merged.leaf_vector(node).shape == (merged.k,)
            else:
                with pytest.raises(MergeError):
                    merged.leaf_vector(node)

    def test_a_leaf_without_a_vector_is_rejected(self):
        structure = UnibitTrie(RoutingTable.from_strings([("128.0.0.0/1", 1)]))
        vectors = [None, None]  # the root is internal, node 1 a leaf
        with pytest.raises(MergeError, match="missing its NHI vector"):
            _leaf_matrix(structure, vectors, 2)

    def test_identical_tries_fully_overlap(self, vn_tables):
        tries = [UnibitTrie(vn_tables[0]) for _ in range(4)]
        m = merge_tries(tries)
        assert m.union_input_nodes == tries[0].num_nodes
        assert m.global_alpha == pytest.approx(3 / 4)
        assert m.pairwise_alpha == pytest.approx(1.0)

    def test_disjoint_tries_small_alpha(self):
        a = UnibitTrie(RoutingTable.from_strings([("10.0.0.0/8", 1)]))
        b = UnibitTrie(RoutingTable.from_strings([("192.0.0.0/8", 2)]))
        m = merge_tries([a, b])
        # only the root is shared
        assert m.union_input_nodes == a.num_nodes + b.num_nodes - 1

    def test_single_trie_merge(self, vn_tables):
        m = merge_tries([UnibitTrie(vn_tables[0])])
        assert m.k == 1
        assert m.pairwise_alpha == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(MergeError):
            merge_tries([])

    def test_merge_of_empty_tries(self):
        m = merge_tries([UnibitTrie(), UnibitTrie()])
        assert m.num_nodes == 1
        assert m.lookup(0, 0) == NO_ROUTE


class TestMergedLookup:
    def test_per_vn_correctness(self, vn_tables, merged, random_addresses):
        for vn, table in enumerate(vn_tables):
            expected = table.lookup_linear_batch(random_addresses[:100])
            got = np.array([merged.lookup(int(a), vn) for a in random_addresses[:100]])
            assert np.array_equal(expected, got)

    def test_batch_matches_scalar(self, merged, random_addresses):
        rng = np.random.default_rng(0)
        vnids = rng.integers(0, merged.k, size=len(random_addresses))
        batch = merged.lookup_batch(random_addresses, vnids)
        scalar = np.array(
            [merged.lookup(int(a), int(v)) for a, v in zip(random_addresses, vnids)]
        )
        assert np.array_equal(batch, scalar)

    def test_rejects_bad_vnid(self, merged):
        with pytest.raises(MergeError):
            merged.lookup(0, merged.k)
        with pytest.raises(MergeError):
            merged.lookup_batch(np.array([0], dtype=np.uint32), np.array([merged.k]))

    @pytest.mark.parametrize("bad", ["negative", "k", "huge"])
    def test_public_walk_batch_keeps_its_range_check(self, merged, bad):
        # the serve path skips the check (walk_histogram); direct callers may not
        vnid = {"negative": -1, "k": merged.k, "huge": 1 << 40}[bad]
        addresses = np.array([0, 1], dtype=np.uint32)
        vnids = np.array([0, vnid], dtype=np.int64)
        with pytest.raises(MergeError, match="vnid out of range"):
            merged.walk_batch(addresses, vnids)

    def test_walk_histogram_equals_walk_batch(self, merged, random_addresses):
        rng = np.random.default_rng(4)
        vnids = rng.integers(0, merged.k, size=len(random_addresses), dtype=np.int64)
        hist, results = merged.walk_histogram(random_addresses, vnids, WalkWorkspace())
        depths, checked = merged.walk_batch(random_addresses, vnids)
        assert np.array_equal(results, checked)
        leaves = merged._frozen.walk(random_addresses)
        rows = [merged.leaf_vector(int(leaf))[vn] for leaf, vn in zip(leaves, vnids)]
        assert np.array_equal(results, rows)
        assert np.array_equal(hist.sum(axis=1), np.bincount(depths, minlength=len(hist)))
        assert np.array_equal(hist.sum(axis=0), np.bincount(vnids, minlength=merged.k))

    def test_next_hops_too_wide_to_pack_are_refused(self):
        # the packed table keeps each next hop above the histogram bin
        table = RoutingTable.from_strings([("10.0.0.0/8", 1 << 60)])
        with pytest.raises(MergeError, match="to pack"):
            merge_tries([UnibitTrie(table)])

    def test_rejects_shape_mismatch(self, merged):
        with pytest.raises(MergeError):
            merged.lookup_batch(np.array([0, 1], dtype=np.uint32), np.array([0]))


class TestMergedStats:
    def test_stats_describe_structure(self, merged):
        stats = merged.stats()
        assert stats.total_nodes == merged.num_nodes
        assert stats.internal_nodes + stats.leaf_nodes == stats.total_nodes

    def test_alpha_monotone_in_sharing(self):
        config = SyntheticTableConfig(n_prefixes=250, seed=23)
        alphas = []
        for fraction in (0.0, 0.5, 1.0):
            tables = generate_virtual_tables(3, fraction, config)
            m = merge_tries([UnibitTrie(t) for t in tables])
            alphas.append(m.global_alpha)
        assert alphas[0] < alphas[1] < alphas[2]


class TestMergeWidths:
    """Width handling regressions from the real-RIB ingest path."""

    def _v6_tables(self):
        from repro.iplookup.prefix6 import parse_prefix6

        t1 = RoutingTable(name="a")
        t1.add(parse_prefix6("2001:db8::/32"), 1)
        t1.add(parse_prefix6("2001:db8:1::/48"), 2)
        t2 = RoutingTable(name="b")
        t2.add(parse_prefix6("2001:db8::/32"), 3)
        t2.add(parse_prefix6("::/0"), 4)
        return t1, t2

    def test_v6_merge_inherits_the_128_bit_width(self):
        t1, t2 = self._v6_tables()
        merged = merge_tries([UnibitTrie(t, width=128) for t in (t1, t2)])
        assert merged.structure.width == 128
        assert merged.structure.depth() == 48
        assert 0.0 < merged.global_alpha <= 0.5

    def test_v6_merged_lookups_match_the_per_vn_tries(self):
        from repro.iplookup.prefix6 import parse_prefix6

        tries = [UnibitTrie(t, width=128) for t in self._v6_tables()]
        merged = merge_tries(tries)
        address = parse_prefix6("2001:db8:1::5/128").value
        expected = [trie.lookup(address) for trie in tries]
        assert expected == [2, 3]
        assert [merged.lookup(address, vn) for vn in (0, 1)] == expected
        depths, results = merged.walk_batch([address, address], [0, 1])
        assert results.tolist() == expected
        assert depths.tolist() == [48, 48]

    def test_mixed_width_merge_is_rejected(self):
        t1, _ = self._v6_tables()
        v4 = RoutingTable.from_strings([("10.0.0.0/8", 1)])
        with pytest.raises(MergeError, match="mixed widths"):
            merge_tries([UnibitTrie(v4), UnibitTrie(t1, width=128)])
