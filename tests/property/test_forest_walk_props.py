"""Property tests: a forest walk ends where each engine's bit-by-bit walk ends.

:func:`~repro.iplookup.trie.freeze_forest` stacks K tries into one
:class:`~repro.iplookup.trie.FrozenWalk`; :meth:`FrozenWalk.walk` takes
each lane's engine beside its address.  The reference walks engine
``t``'s own ``left``/``right`` links one bit at a time and predicts the
forest node: ``offsets[t]`` plus the node the walk stops on, or — when
it stops beside a live sibling — the parked node the forest assigned
to the missing side, which must lie inside engine ``t``'s node range.
Forests hold 1 to 5 tries of unequal depth, among them tries shallower
than the 16-bit root jump and empty ones, 32 and 128 bits wide.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import NONE, FrozenWalk, UnibitTrie, freeze_forest
from tests.property.test_stride_walk_props import DEPTHS, addresses, tables


def reference_node(forest: FrozenWalk, engine: int, trie: UnibitTrie, address: int) -> int:
    """The forest node engine ``engine``'s per-bit walk of ``address`` ends on."""
    base = forest.offsets[engine]
    node = 0
    for level in range(trie.width):
        bit = (address >> (trie.width - 1 - level)) & 1
        child = trie.right(node) if bit else trie.left(node)
        if child == NONE:
            if not trie.is_leaf(node):
                parked = int(forest.childflat[((base + node) << 1) | bit])
                assert base + len(trie.nodes()) <= parked < forest.offsets[engine + 1]
                return parked
            break
        node = child
    return base + node


@st.composite
def forests(draw, width: int) -> list[RoutingTable]:
    """1–5 tables, each empty or with routes down to a drawn depth."""
    depth = DEPTHS if width == 32 else st.integers(0, 128)
    depths = draw(st.lists(st.one_of(st.none(), depth), min_size=1, max_size=5))
    return [RoutingTable() if d is None else draw(tables(width, d)) for d in depths]


def check_forest(width: int, data) -> None:
    tabs = data.draw(forests(width))
    tries = [UnibitTrie(table, width=width) for table in tabs]
    forest = freeze_forest(tries)
    k = len(tries)
    assert len(forest.offsets) == k + 1
    assert forest.depth == max(trie.depth() for trie in tries)
    lanes = []
    for engine, table in enumerate(tabs):
        lanes.extend((engine, a) for a in data.draw(addresses(width, table)))
    order = data.draw(st.permutations(range(len(lanes))))
    engines = np.array([lanes[i][0] for i in order], dtype=np.int64)
    addrs = [lanes[i][1] for i in order]
    batch = np.array(addrs, dtype=np.uint32) if width == 32 else addrs
    expected = np.array(
        [reference_node(forest, e, tries[e], a) for e, a in zip(engines, addrs)], dtype=np.int64
    )
    # one mixed-engine walk in arrival order, and one walk per engine
    assert np.array_equal(forest.walk(batch, engines), expected)
    for engine in range(k):
        mine = np.flatnonzero(engines == engine)
        sub = batch[mine] if width == 32 else [addrs[i] for i in mine]
        assert np.array_equal(forest.walk(sub, engine), expected[mine])
    # the tag of every node is engine * (depth + 1) + level
    for engine, trie in enumerate(tries):
        lo, hi = forest.offsets[engine], forest.offsets[engine + 1]
        assert np.all(forest.tag[lo:hi] // (forest.depth + 1) == engine)
        for node in trie.live_nodes():
            assert forest.tag[lo + node] - engine * (forest.depth + 1) == trie.level(node)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_forest_walk_equals_each_engines_bitwise_walk(data):
    check_forest(32, data)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_wide_forest_walk_equals_each_engines_bitwise_walk(data):
    check_forest(128, data)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_forest_stride_tables_hold_one_row_per_moving_node_of_every_engine(data):
    """Entries are the sum over engines of 2^bits × the engine's nodes
    with a child at each step's level, plus the shared zero row."""
    width = data.draw(st.sampled_from([32, 128]))
    tries = [UnibitTrie(table, width=width) for table in data.draw(forests(width))]
    forest = freeze_forest(tries)
    entries = 0
    for level, bits in forest.strides:
        for trie in tries:
            movers = sum(
                1 for node in trie.live_nodes()
                if trie.level(node) == level and not trie.is_leaf(node)
            )
            entries += movers << bits
    assert len(forest.delta) == (1 << UnibitTrie.STRIDE) + entries
    assert len(forest.jump) == len(tries) << forest.jump_stride
    assert forest.jump_stride == min(UnibitTrie.JUMP_STRIDE, forest.depth)


def test_an_empty_a_shallow_and_a_deep_engine_share_one_forest():
    tabs = [
        RoutingTable(),
        RoutingTable.from_strings([("10.0.0.0/8", 1), ("10.128.0.0/9", 2)]),
        RoutingTable.from_strings([("0.0.0.0/0", 4), ("10.1.0.0/17", 5), ("10.1.2.0/25", 3)]),
    ]
    tries = [UnibitTrie(table) for table in tabs]
    forest = freeze_forest(tries)
    assert (forest.depth, forest.jump_stride) == (25, 16)
    addrs = [0x0A010203, 0x0A800001, 0x0A010282, 0x0B000000, 0x0A0180FF]
    for engine, trie in enumerate(tries):
        engines = np.full(len(addrs), engine, dtype=np.int64)
        expected = [reference_node(forest, engine, trie, a) for a in addrs]
        got = forest.walk(np.array(addrs, dtype=np.uint32), engines)
        assert got.tolist() == expected
        assert forest.best[got].tolist() == [trie.lookup(a) for a in addrs]
