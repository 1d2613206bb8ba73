"""Property tests: the strided frozen walk ends where a bit-by-bit walk ends.

:meth:`~repro.iplookup.trie.FrozenWalk.walk` resolves the levels below
the root jump through 8-bit stride tables, down to level 32, and walks
one level per gather past that.  The reference here walks the trie's
``left``/``right`` links one bit at a time and predicts the exact node
the kernel must return: the real node the walk stops on, or — when it
stops on a node that has only the other child — the parked node the
freeze assigned to that missing side.  Tries are drawn with depths
either side of each stride boundary (below 16, 17, 24, 25, 32) and
128-bit wide, for the per-VN and the merged trie.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.iplookup.prefix import Prefix
from repro.iplookup.prefix6 import Prefix6
from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import NONE, UnibitTrie
from repro.virt.merged import merge_tries

DEPTHS = st.one_of(st.integers(min_value=1, max_value=15), st.sampled_from([17, 24, 25, 32]))


@st.composite
def tables(draw, width: int, depth: int) -> RoutingTable:
    """Routes no longer than ``depth``, one of them exactly that long."""
    build = Prefix6.normalized if width > 32 else Prefix.normalized
    values = st.integers(min_value=0, max_value=(1 << width) - 1)
    lengths = [depth] + draw(st.lists(st.integers(0, depth), max_size=30))
    table = RoutingTable()
    for length in lengths:
        table.add(build(draw(values), length), draw(st.integers(0, 63)))
    return table


@st.composite
def addresses(draw, width: int, table: RoutingTable) -> list[int]:
    """Uniform addresses plus addresses inside the table's prefixes,
    so walks reach every stride, not only the first."""
    host = st.integers(min_value=0, max_value=(1 << width) - 1)
    out = draw(st.lists(host, min_size=1, max_size=20))
    for route in table.routes():
        low = (1 << (width - route.prefix.length)) - 1
        out.append(route.prefix.value | (draw(host) & low))
    return out


def reference_nodes(trie: UnibitTrie, addrs) -> np.ndarray:
    """The node a per-bit walk over the child links ends on."""
    frozen = trie.freeze()
    n_real = len(trie.nodes())
    out = []
    for a in addrs:
        node = 0
        for level in range(trie.width):
            bit = (int(a) >> (trie.width - 1 - level)) & 1
            child = trie.right(node) if bit else trie.left(node)
            if child == NONE:
                if not trie.is_leaf(node):
                    # stopped beside a live sibling: the lane parks on
                    # the dedicated node of this missing side
                    child = int(frozen.childflat[(node << 1) | bit])
                    assert child >= n_real
                    node = child
                break
            node = child
        out.append(node)
    return np.array(out, dtype=np.int64)


def check_unibit(width: int, data) -> None:
    depth = data.draw(DEPTHS) if width == 32 else data.draw(st.integers(0, 128))
    table = data.draw(tables(width, depth))
    addrs = data.draw(addresses(width, table))
    trie = UnibitTrie(table, width=width)
    frozen = trie.freeze()
    assert frozen.depth == depth
    got = frozen.walk(np.array(addrs, dtype=np.uint32) if width == 32 else addrs)
    assert np.array_equal(got, reference_nodes(trie, addrs))


def check_merged(width: int, data) -> None:
    depths = data.draw(
        st.lists(DEPTHS if width == 32 else st.integers(0, 128), min_size=1, max_size=3)
    )
    tabs = [data.draw(tables(width, depth)) for depth in depths]
    addrs = data.draw(addresses(width, tabs[0]))
    merged = merge_tries([UnibitTrie(t, width=width) for t in tabs])
    got = merged._frozen.walk(np.array(addrs, dtype=np.uint32) if width == 32 else addrs)
    assert np.array_equal(got, reference_nodes(merged.structure, addrs))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_unibit_strided_walk_equals_bitwise_walk(data):
    check_unibit(32, data)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_wide_unibit_strided_walk_equals_bitwise_walk(data):
    check_unibit(128, data)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_merged_strided_walk_equals_bitwise_walk(data):
    check_merged(32, data)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_wide_merged_strided_walk_equals_bitwise_walk(data):
    check_merged(128, data)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_stride_tables_hold_one_row_per_moving_boundary_node(data):
    """Entries stay within 2^8 per node that has a child at a boundary
    level; only those nodes own a row, each aligned to its width."""
    width = data.draw(st.sampled_from([32, 128]))
    depth = data.draw(DEPTHS) if width == 32 else data.draw(st.integers(0, 128))
    trie = UnibitTrie(data.draw(tables(width, depth)), width=width)
    frozen = trie.freeze()
    # the steps tile the levels from the jump down to the cap, the
    # last one no wider than the levels left
    stop = max(frozen.jump_stride, min(depth, UnibitTrie.STRIDE_CAP))
    assert frozen.jump_stride + sum(bits for _, bits in frozen.strides) == stop
    owners = entries = 0
    for level, bits in frozen.strides:
        rows = [
            node for node in trie.live_nodes()
            if trie.level(node) == level and not trie.is_leaf(node)
        ]
        assert all(frozen.rowbase[node] % (1 << bits) == 0 for node in rows)
        assert all(frozen.rowbase[node] > 0 for node in rows)
        owners += len(rows)
        entries += len(rows) << bits
    assert len(frozen.delta) - (1 << UnibitTrie.STRIDE) == entries
    assert entries <= (1 << UnibitTrie.STRIDE) * owners
    assert np.count_nonzero(frozen.rowbase) == owners
    assert not frozen.delta[: 1 << UnibitTrie.STRIDE].any()
