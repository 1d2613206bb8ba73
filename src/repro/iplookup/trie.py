"""Uni-bit (binary) trie for longest-prefix match.

The paper maps one trie level to one pipeline stage (Section V-D), so
the trie is the structure from which all per-stage memory statistics
derive.  Nodes are stored in parallel arrays (structure-of-arrays)
rather than linked objects: child links are integer indices, which
keeps builds allocation-light and lets batch lookups run as a few
NumPy gathers per batch instead of a Python loop per packet: a 16-bit
root jump, then 8-bit stride tables down to level 32 (controlled
prefix expansion, the paper's reference [16]) and one gather per
level below that.  The walk's final node is the one a bit-by-bit walk
stops on, so depths — the per-stage activity the power model reads —
stay those of the uni-bit, level-per-stage pipeline.

The NV/VS serving path runs K separate engines, one trie per virtual
network.  :func:`freeze_forest` stacks their tries into one *forest*
snapshot: concatenated node arrays, one root-jump table indexed by
engine and top address bits, one set of stride tables and a per-node
``engine · (depth + 1) + level`` tag.  A whole mixed-VN batch then
walks in arrival order with the VNIDs as engine indices, and one
``bincount`` of the final nodes' tags yields every engine's depth
histogram — no partition of the batch by VN.  A single trie's own
snapshot is the K=1 forest.

Node index 0 is always the root.  A node is a *leaf* when it has no
children; next-hop information (NHI) may sit on any node in a plain
trie, and only on leaves after :func:`repro.iplookup.leafpush.leaf_push`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import TrieError
from repro.iplookup.prefix import Prefix
from repro.iplookup.rib import NO_ROUTE, RoutingTable
from repro.obs.registry import REGISTRY, Counter, Gauge, Histogram

__all__ = [
    "UnibitTrie",
    "TrieStats",
    "FrozenWalk",
    "NONE",
    "WalkWorkspace",
    "count_node_visits",
    "freeze_forest",
]

#: sentinel child index meaning "no child"
NONE = -1


@dataclass(frozen=True, slots=True)
class FrozenWalk:
    """Immutable structure-of-arrays snapshot of one or more tries' lookup state.

    Built once by :func:`freeze_forest` over K tries — a *forest* — and
    by :meth:`UnibitTrie._freeze` as the K=1 case (dropped on any
    mutating insert/remove).  Engine ``t`` owns the node range
    ``offsets[t] .. offsets[t + 1]``: its real nodes, then its parked
    nodes.  Every array is laid out so the batch walk needs no per-call
    setup:

    * ``jump`` — ``K · 2^jump_stride`` entries over the engine index
      and the top address bits: engine ``t``'s root jump sits at
      ``t << jump_stride`` and resolves its first ``jump_stride``
      levels in one gather.  ``jump_stride`` is capped at the deepest
      engine; a shallower (or empty) engine's entries park on the node
      its walk stops on;
    * ``rowbase`` / ``delta`` — the stride tables, one set over the
      whole forest: ``strides`` lists each ``(level, bits)`` step
      below the jump, down to :attr:`UnibitTrie.STRIDE_CAP`.  Every
      node at a step's level that has a child owns one row of
      ``2^bits`` entries starting at ``rowbase[node]``; entry ``p`` is
      ``target - node``, where ``target`` is the node a walk of bit
      pattern ``p`` reaches (or parks on).  Every other node has
      ``rowbase`` 0, and row 0 is all zeros, so a lane that has
      stopped stays where it is;
    * ``childflat`` — child indices indexed ``(node << 1) | bit``,
      walked one level per gather below the strides (128-bit tries);
      a missing child self-loops, so a lane whose walk terminated
      parks on its last real node and needs no masking;
    * ``best`` — per node, the NHI of the nearest ancestor-or-self
      carrying one (the LPM answer for any lane parked there);
    * ``tag`` — per node ``engine · (depth + 1) + level``: one
      ``bincount`` of the tags a batch ends on is the K × (depth + 1)
      walk-depth histogram, the per-engine activity the pipeline
      accounting reads.  With K=1 the tag is the node's level.

    :meth:`walk` is the one batch walk kernel: the NV/VS serve path
    walks a whole batch on the forest and gathers ``best`` and ``tag``,
    a :class:`UnibitTrie` walks its own K=1 snapshot, and the
    :class:`~repro.virt.merged.MergedTrie` gathers its packed NHI table.
    """

    tag: np.ndarray
    childflat: np.ndarray
    best: np.ndarray
    jump: np.ndarray
    jump_stride: int
    rowbase: np.ndarray
    delta: np.ndarray
    strides: tuple[tuple[int, int], ...]
    depth: int
    width: int
    offsets: tuple[int, ...]

    def walk(
        self,
        addresses: np.ndarray,
        engines: np.ndarray | int = 0,
        workspace: WalkWorkspace | None = None,
    ) -> np.ndarray:
        """The node each address's walk ends on (or parks on).

        ``engines`` names each lane's trie: an array beside
        ``addresses`` (the batch's VNIDs) or one engine for all lanes.
        Each lane's engine and address share one word, the engine
        above the address bits, so the jump key (engine and top
        ``jump_stride`` bits) is one shift of it.  The jump table
        resolves the engine and the first ``jump_stride`` levels with
        one gather, each stride step resolves up to
        :attr:`UnibitTrie.STRIDE` more with one ``delta`` gather, and
        every level past the strides is one gather over the flat
        self-looping child array — no per-level masking anywhere.

        Every step writes into the lane buffers of ``workspace`` (a
        fresh :class:`WalkWorkspace` when none is given), so a caller
        that keeps one workspace allocates nothing per batch once its
        buffers have grown to the batch size.  The returned node array
        is a view of that workspace, valid until its next walk.
        The jump key is the one index built from caller input (the
        engine): it is range-checked, and an engine outside ``0 ..
        K - 1`` raises :class:`~repro.errors.TrieError`.  Every later
        index is in range by construction, so those gathers use
        ``np.take(..., mode="wrap")``, which writes straight into its
        ``out`` buffer (``mode="raise"`` copies the whole result first).
        Addresses wider than 32 bits exceed the NumPy word size, so
        they are shifted as Python integers and only the extracted
        bits and node indices are NumPy integers.
        """
        ws = WalkWorkspace() if workspace is None else workspace
        width = self.width
        word, key, node, gather = ws.lanes(len(addresses))
        # one word per lane holding the engine above the address bits:
        # the jump key and every stride pattern are bit fields of it
        if width > 32:
            wide = np.array([int(a) for a in addresses], dtype=object)
            wide |= np.asarray(engines, dtype=np.int64).astype(object) << width

            def field(shift: int, mask: int | None = None) -> None:
                """The lanes' bits from ``shift`` up, under ``mask``, into ``key``."""
                key[:] = wide >> shift if mask is None else (wide >> shift) & mask

        else:
            if np.ndim(engines) == 0:
                np.copyto(word, np.asarray(addresses, dtype=np.uint32))
                if engines:
                    np.bitwise_or(word, int(engines) << width, out=word)
            else:
                np.left_shift(engines, width, out=word, dtype=np.int64)
                np.bitwise_or(word, np.asarray(addresses, dtype=np.uint32), out=word)

            def field(shift: int, mask: int | None = None) -> None:
                """The lanes' bits from ``shift`` up, under ``mask``, into ``key``."""
                np.right_shift(word, shift, out=key)
                if mask is not None:
                    np.bitwise_and(key, mask, out=key)

        level = self.jump_stride
        field(width - level)
        # a negative key reads as a huge unsigned one, so one max
        # checks both ends of the table
        if len(key) and key.view(np.uint64).max() >= len(self.jump):
            raise TrieError(f"engine out of range 0..{len(self.offsets) - 2}")
        np.take(self.jump, key, out=node, mode="wrap")
        for start, bits in self.strides:
            field(width - start - bits, (1 << bits) - 1)
            np.take(self.rowbase, node, out=gather, mode="wrap")
            np.bitwise_or(key, gather, out=key)
            np.take(self.delta, key, out=gather, mode="wrap")
            np.add(node, gather, out=node)
            level = start + bits
        for lvl in range(level, self.depth):
            field(width - 1 - lvl, 1)
            np.left_shift(node, 1, out=node)
            np.bitwise_or(key, node, out=key)
            np.take(self.childflat, key, out=node, mode="wrap")
        return node

    def tags(self, node: np.ndarray, workspace: WalkWorkspace) -> np.ndarray:
        """``tag[node]`` for nodes :meth:`walk` returned on ``workspace``.

        Gathered into the workspace's ``key`` buffer as int64, so a
        ``bincount`` reads it without a cast; a view, valid until the
        workspace's next walk.
        """
        return np.take(self.tag, node, out=workspace.key[: len(node)], mode="wrap")


class WalkWorkspace:
    """The lane buffers one :meth:`FrozenWalk.walk` at a time writes into.

    ``word`` holds each lane's engine above its address bits, ``key``
    the index of the current gather, ``node`` the node each lane has
    reached (all int64) and ``gather`` one int32 stride-table gather.
    The buffers grow to the largest batch seen and are reused by every
    later walk, so steady-state batches allocate no walk temporaries —
    above glibc's mmap threshold each fresh temporary came back as new
    pages that page-faulted on every batch.  Arrays a walk returns are
    views of these buffers: a workspace serves one walk at a time, and
    its owner consumes a walk's views before it starts the next.
    """

    __slots__ = ("word", "key", "node", "gather")

    def __init__(self) -> None:
        self._grow(0)

    def _grow(self, n: int) -> None:
        self.word = np.empty(n, dtype=np.int64)
        self.key = np.empty(n, dtype=np.int64)
        self.node = np.empty(n, dtype=np.int64)
        self.gather = np.empty(n, dtype=np.int32)

    def lanes(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(word, key, node, gather)`` views of the first ``n`` lanes."""
        if n > len(self.node):
            self._grow(n)
        return self.word[:n], self.key[:n], self.node[:n], self.gather[:n]


#: ``structure -> (registry generation, counter child)``: resolving the
#: family and its child costs more than the increment; a reset or clear
#: of the registry moves its generation and orphans the cached child
_visit_counters: dict[str, tuple[int, Counter | Gauge | Histogram]] = {}


def count_node_visits(structure: str, visits: int) -> None:
    """Add ``visits`` to ``repro_trie_node_visits_total{structure=...}``.

    Callers check ``REGISTRY.enabled`` first, so a walk with
    observability off pays one branch per batch.
    """
    cached = _visit_counters.get(structure)
    if cached is None or cached[0] != REGISTRY.generation:
        child = REGISTRY.counter(
            "repro_trie_node_visits_total",
            "Trie nodes touched by batch walks (root included)",
            labels=("structure",),
        ).labels(structure)
        cached = _visit_counters[structure] = (REGISTRY.generation, child)
    cached[1].inc(visits)


#: stride-table rows expanded per gather pass at freeze time; bounds the
#: build's transient ``rows x 2^stride`` int64 arrays to a few hundred KiB
_STRIDE_BUILD_ROWS = 128


def _stride_tables(
    childflat: np.ndarray,
    levels: np.ndarray,
    has_child: np.ndarray,
    start: int,
    stop: int,
    stride: int,
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """``(rowbase, delta, strides)`` of :class:`FrozenWalk` for levels
    ``start .. stop`` in ``stride``-bit steps (the last may be shorter).

    ``levels`` and ``has_child`` cover every node of the (possibly
    stacked) ``childflat``; parked nodes self-loop both ways, as do
    childless nodes, so neither has a child and neither gets a row.
    Row 0 is the shared all-zero row of every rowless node.  Every step but the last has
    ``2^stride``-entry rows, so each row starts at a multiple of its
    own width and ``rowbase | pattern`` addresses its entries.
    """
    steps = tuple((lvl, min(stride, stop - lvl)) for lvl in range(start, stop, stride))
    owners = [np.flatnonzero(has_child & (levels == lvl)) for lvl, _ in steps]
    size = (1 << stride) + sum(len(rows) << bits for rows, (_, bits) in zip(owners, steps))
    rowbase = np.zeros(len(childflat) // 2, dtype=np.int32)
    delta = np.zeros(size, dtype=np.int32)
    pairs = childflat.reshape(-1, 2)
    base = 1 << stride
    for rows, (_, bits) in zip(owners, steps):
        width = 1 << bits
        rowbase[rows] = base + np.arange(len(rows), dtype=np.int64) * width
        for first in range(0, len(rows), _STRIDE_BUILD_ROWS):
            chunk = rows[first : first + _STRIDE_BUILD_ROWS, None]
            # one level per pass: each column splits into its 0- and
            # 1-child, appending the next bit to the pattern
            target = chunk
            for _ in range(bits):
                target = pairs[target].reshape(len(chunk), -1)
            at = base + first * width
            delta[at : at + chunk.size * width] = (target - chunk).ravel()
        base += len(rows) * width
    return rowbase, delta, steps


@dataclass(frozen=True, slots=True)
class TrieStats:
    """Structural statistics of a trie.

    These are the quantities the paper reports for its reference
    routing table (Section V-E): total node count, and the split into
    pointer (non-leaf) and NHI (leaf) nodes that drives the Fig. 4
    memory accounting.
    """

    total_nodes: int
    internal_nodes: int
    leaf_nodes: int
    depth: int
    prefixes: int
    nodes_per_level: tuple[int, ...]
    internal_per_level: tuple[int, ...]
    leaves_per_level: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.internal_nodes + self.leaf_nodes != self.total_nodes:
            raise TrieError("internal + leaf node counts must equal total")


class UnibitTrie:
    """Array-backed binary trie supporting LPM lookup.

    Parameters
    ----------
    table:
        Optional routing table inserted at construction.
    width:
        Address width in bits: 32 for IPv4 (default), 128 for the
        IPv6 extension.  Batch lookups of wider tries shift their
        addresses as Python integers (see :meth:`FrozenWalk.walk`).
    """

    #: root-stride of the frozen jump table (capped at the trie depth)
    JUMP_STRIDE = 16
    #: levels one stride-table gather resolves below the jump
    STRIDE = 8
    #: deepest level the stride tables reach; deeper levels (128-bit
    #: tries) walk one gather per level
    STRIDE_CAP = 32

    __slots__ = (
        "_left",
        "_right",
        "_nhi",
        "_level",
        "_prefix_count",
        "_frozen",
        "_free",
        "width",
    )

    def __init__(self, table: RoutingTable | None = None, *, width: int = 32):
        if width < 1:
            raise TrieError(f"address width must be positive, got {width}")
        self.width = width
        self._left: list[int] = [NONE]
        self._right: list[int] = [NONE]
        self._nhi: list[int] = [NO_ROUTE]
        self._level: list[int] = [0]
        self._prefix_count = 0
        self._frozen: FrozenWalk | None = None
        # indices of withdrawn (unlinked) nodes available for reuse —
        # route withdrawal recycles storage instead of compacting
        self._free: list[int] = []
        if table is not None:
            for route in table:
                self.insert(route.prefix, route.next_hop)

    # -- construction --------------------------------------------------

    def _new_node(self, level: int) -> int:
        if self._free:
            node = self._free.pop()
            self._left[node] = NONE
            self._right[node] = NONE
            self._nhi[node] = NO_ROUTE
            self._level[node] = level
            return node
        self._left.append(NONE)
        self._right.append(NONE)
        self._nhi.append(NO_ROUTE)
        self._level.append(level)
        return len(self._left) - 1

    def insert(self, prefix: Prefix, next_hop: int) -> bool:
        """Insert ``prefix`` → ``next_hop``; re-insertion overwrites.

        Returns True when the trie actually changed — nodes were
        created or the stored NHI value differs.  Re-announcing an
        identical route is a no-op and leaves the frozen lookup
        arrays (and anything cached on top of them, e.g. the merged
        view in :class:`repro.virt.manager.VirtualRouterManager`)
        valid.
        """
        if next_hop < 0:
            raise TrieError(f"next hop must be non-negative, got {next_hop}")
        if prefix.length > self.width:
            raise TrieError(
                f"prefix length {prefix.length} exceeds trie width {self.width}"
            )
        node = 0
        created = False
        for level in range(prefix.length):
            bit = prefix.bit(level)
            children = self._right if bit else self._left
            child = children[node]
            if child == NONE:
                child = self._new_node(level + 1)
                children[node] = child
                created = True
            node = child
        if self._nhi[node] == NO_ROUTE:
            self._prefix_count += 1
        changed = created or self._nhi[node] != next_hop
        if changed:
            self._frozen = None
        self._nhi[node] = next_hop
        return changed

    def remove(self, prefix: Prefix) -> bool:
        """Withdraw ``prefix``; prune chain nodes it no longer needs.

        Returns True if the prefix was present.  Pruned nodes are
        recycled by later insertions (BGP churn does not grow the
        structure unboundedly).
        """
        path: list[int] = [0]
        node = 0
        for level in range(prefix.length):
            bit = prefix.bit(level)
            node = self._right[node] if bit else self._left[node]
            if node == NONE:
                return False
            path.append(node)
        if self._nhi[node] == NO_ROUTE:
            return False
        self._frozen = None
        self._nhi[node] = NO_ROUTE
        self._prefix_count -= 1
        # prune upward: drop nodes that are now childless and carry no NHI
        for depth in range(len(path) - 1, 0, -1):
            child = path[depth]
            if not self.is_leaf(child) or self._nhi[child] != NO_ROUTE:
                break
            parent = path[depth - 1]
            if self._left[parent] == child:
                self._left[parent] = NONE
            else:
                self._right[parent] = NONE
            self._free.append(child)
        return True

    # -- structure access ----------------------------------------------

    def __len__(self) -> int:
        return len(self._left) - len(self._free)

    @property
    def num_nodes(self) -> int:
        """Live node count including the root."""
        return len(self._left) - len(self._free)

    @property
    def num_prefixes(self) -> int:
        """Number of distinct prefixes inserted."""
        return self._prefix_count

    def left(self, node: int) -> int:
        """Index of the 0-child of ``node`` (``NONE`` if absent)."""
        return self._left[node]

    def right(self, node: int) -> int:
        """Index of the 1-child of ``node`` (``NONE`` if absent)."""
        return self._right[node]

    def nhi(self, node: int) -> int:
        """Next-hop stored at ``node`` (``NO_ROUTE`` if none)."""
        return self._nhi[node]

    def level(self, node: int) -> int:
        """Depth of ``node`` (root = 0)."""
        return self._level[node]

    def is_leaf(self, node: int) -> bool:
        """True if ``node`` has no children."""
        return self._left[node] == NONE and self._right[node] == NONE

    def nodes(self) -> range:
        """All *allocated* node slots (root first; otherwise unordered).

        After withdrawals this range may include recycled-but-free
        slots (unlinked, NHI-less leaves); positional consumers like
        the merged-trie gather arrays rely on the allocated range
        being stable.  Use :meth:`live_nodes` to visit only reachable
        nodes.
        """
        return range(len(self._left))

    def live_nodes(self) -> Iterator[int]:
        """Preorder iterator over nodes reachable from the root."""
        for node, _, _ in self.walk_paths():
            yield node

    def walk_paths(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(node, path_value, level)`` in preorder.

        ``path_value`` is the node's path from the root packed into
        the high bits of a 32-bit word, i.e. the network address of
        the prefix the node represents.  Used by the merge machinery
        to identify structurally common nodes.
        """
        stack: list[tuple[int, int]] = [(0, 0)]
        while stack:
            node, path = stack.pop()
            level = self._level[node]
            yield node, path, level
            right = self._right[node]
            if right != NONE:
                stack.append((right, path | (1 << (self.width - 1 - level))))
            left = self._left[node]
            if left != NONE:
                stack.append((left, path))

    # -- lookup ----------------------------------------------------------

    def lookup(self, address: int) -> int:
        """Longest-prefix-match ``address``, returning the NHI.

        Walks the trie bit by bit remembering the last node that held
        NHI — exactly the traversal a pipeline stage sequence performs.
        """
        return self._walk_scalar(address)[1]

    def _freeze(self) -> FrozenWalk:
        if self._frozen is None:
            self._frozen = freeze_forest([self])
        return self._frozen

    def freeze(self) -> FrozenWalk:
        """Build (or return) the frozen structure-of-arrays walk state.

        The serving layer calls this at service build time so the
        first served batch does not pay the freeze cost; any mutating
        :meth:`insert`/:meth:`remove` afterwards invalidates the
        snapshot and the next batch re-freezes transparently.
        """
        return self._freeze()

    def _walk_scalar(self, address: int) -> tuple[int, int]:
        """Scalar walk returning ``(depth, result)`` for one address."""
        node = 0
        best = self._nhi[0]
        level = 0
        while level < self.width:
            bit = (address >> (self.width - 1 - level)) & 1
            node = self._right[node] if bit else self._left[node]
            if node == NONE:
                break
            level += 1
            if self._nhi[node] != NO_ROUTE:
                best = self._nhi[node]
        return level, best

    def walk_batch(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized walk: per-address depth reached and LPM result.

        Runs :meth:`FrozenWalk.walk` over the frozen snapshot (built
        on first use, see :meth:`freeze`) on a fresh
        :class:`WalkWorkspace`; the per-lane depth and LPM answer come
        from two final gathers (``tag`` — the level, for one trie — and
        ``best``) — no per-call array setup.  The depth
        is the number of levels the walk descended — the quantity the
        pipeline simulator converts into per-stage memory accesses.
        """
        frozen = self._freeze()
        workspace = WalkWorkspace()  # the caller owns the returned depths
        node = frozen.walk(addresses, 0, workspace)
        depths = frozen.tags(node, workspace)
        best = frozen.best[node]
        if REGISTRY.enabled:  # one branch per batch; zero overhead off
            count_node_visits("unibit", int(depths.sum()) + len(node))
        return depths, best

    def lookup_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized LPM over an array of addresses.

        Shares the level-synchronous walk of :meth:`walk_batch`
        (discarding the depths).
        """
        return self.walk_batch(addresses)[1]

    # -- statistics ------------------------------------------------------

    def depth(self) -> int:
        """Maximum *reachable* node level."""
        if self._frozen is not None:  # a valid snapshot already holds it
            return self._frozen.depth
        return max(self._level[node] for node in self.live_nodes())

    def stats(self) -> TrieStats:
        """Compute structural statistics over reachable nodes."""
        levels = [self._level[node] for node in self.live_nodes()]
        depth = max(levels)
        nodes_per = [0] * (depth + 1)
        internal_per = [0] * (depth + 1)
        leaves_per = [0] * (depth + 1)
        internal = 0
        total = 0
        for node in self.live_nodes():
            lvl = self._level[node]
            total += 1
            nodes_per[lvl] += 1
            if self.is_leaf(node):
                leaves_per[lvl] += 1
            else:
                internal_per[lvl] += 1
                internal += 1
        return TrieStats(
            total_nodes=total,
            internal_nodes=internal,
            leaf_nodes=total - internal,
            depth=depth,
            prefixes=self._prefix_count,
            nodes_per_level=tuple(nodes_per),
            internal_per_level=tuple(internal_per),
            leaves_per_level=tuple(leaves_per),
        )

    def is_leaf_pushed(self) -> bool:
        """True if NHI only appears on leaves and the trie is full.

        A *full* binary trie (every internal node has both children)
        with NHI confined to leaves is the postcondition of
        :func:`repro.iplookup.leafpush.leaf_push`.
        """
        for node in self.nodes():
            leaf = self.is_leaf(node)
            if leaf:
                continue
            if self._nhi[node] != NO_ROUTE:
                return False
            if self._left[node] == NONE or self._right[node] == NONE:
                return False
        return True

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TrieError` if broken.

        Invariants: child levels are parent level + 1, every reachable
        non-root node is referenced exactly once, no child index is
        out of range, and freed slots are never referenced.
        """
        n = len(self._left)
        free = set(self._free)
        ref_count = [0] * n
        reachable = set()
        for node in self.live_nodes():
            reachable.add(node)
            for child in (self._left[node], self._right[node]):
                if child == NONE:
                    continue
                if not 0 <= child < n:
                    raise TrieError(f"child index {child} out of range at node {node}")
                if child in free:
                    raise TrieError(f"node {node} references freed slot {child}")
                if self._level[child] != self._level[node] + 1:
                    raise TrieError(
                        f"level mismatch: node {node} (level {self._level[node]}) "
                        f"→ child {child} (level {self._level[child]})"
                    )
                ref_count[child] += 1
        if ref_count[0] != 0:
            raise TrieError("root must not be referenced as a child")
        for node in reachable:
            if node != 0 and ref_count[node] != 1:
                raise TrieError(f"node {node} referenced {ref_count[node]} times")
        if free & reachable:
            raise TrieError(f"freed slots reachable from root: {sorted(free & reachable)}")
        if len(reachable) + len(free) != n:
            raise TrieError(
                f"{n - len(reachable) - len(free)} slots leaked "
                "(neither reachable nor on the free list)"
            )


def _engine_arrays(
    trie: UnibitTrie,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One trie's ``(childflat, levels, best, has_child, depth)``, its
    parked nodes appended after its real ones, indices local to it."""
    left = np.asarray(trie._left, dtype=np.int64)
    right = np.asarray(trie._right, dtype=np.int64)
    nhi = np.asarray(trie._nhi, dtype=np.int64)
    levels = np.asarray(trie._level, dtype=np.int64)
    n = len(left)
    identity = np.arange(n, dtype=np.int64)
    # parent pointers (root and freed slots point at themselves)
    parent = identity.copy()
    has_left = left != NONE
    parent[left[has_left]] = identity[has_left]
    has_right = right != NONE
    parent[right[has_right]] = identity[has_right]
    # every allocated slot is reachable or free (see validate), so
    # this is depth() without the Python preorder walk
    live = np.ones(n, dtype=bool)
    live[trie._free] = False
    depth = int(levels[live].max())
    # best[node] = nearest ancestor-or-self NHI, propagated one level
    # at a time (a child's parent is always one level up, so each
    # level's gather reads already-final values)
    best = nhi.copy()
    order = np.argsort(levels, kind="stable")
    starts = np.searchsorted(levels[order], np.arange(depth + 2))
    for lvl in range(1, depth + 1):
        at = order[starts[lvl] : starts[lvl + 1]]
        own = nhi[at]
        best[at] = np.where(own != NO_ROUTE, own, best[parent[at]])
    # child targets: a childless node self-loops (parking is safe — no
    # bit can leave it), but a node with exactly one child must NOT
    # self-loop on its missing side, or a later address bit would
    # un-park the lane into the live child.  Each such slot gets a
    # dedicated parked node carrying the parent's level/best; parked
    # nodes self-loop both ways.  A full (leaf-pushed) trie has no such
    # slots, so its childflat is exactly the merged-engine layout.
    childless = ~(has_left | has_right)
    lx = np.where(has_left, left, identity)
    rx = np.where(has_right, right, identity)
    miss_left = np.flatnonzero(~has_left & ~childless)
    miss_right = np.flatnonzero(~has_right & ~childless)
    parked_parents = np.concatenate([miss_left, miss_right])
    m = len(parked_parents)
    parked = n + np.arange(m, dtype=np.int64)
    lx[miss_left] = parked[: len(miss_left)]
    rx[miss_right] = parked[len(miss_left) :]
    childflat = np.empty(2 * (n + m), dtype=np.int64)
    childflat[0 : 2 * n : 2] = lx
    childflat[1 : 2 * n : 2] = rx
    childflat[2 * n :: 2] = parked
    childflat[2 * n + 1 :: 2] = parked
    return (
        childflat,
        np.concatenate([levels, levels[parked_parents]]),
        np.concatenate([best, best[parked_parents]]),
        np.concatenate([~childless, np.zeros(m, dtype=bool)]),
        depth,
    )


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate, without copying a single array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def freeze_forest(tries: list[UnibitTrie]) -> FrozenWalk:
    """Stack K tries into one :class:`FrozenWalk` (see its docstring).

    The node arrays concatenate, each engine's child indices shifted by
    its node offset; the jump table and the stride tables are built
    once over the whole forest, so a batch of mixed engines walks in
    one pass.
    """
    if not tries:
        raise TrieError("a forest needs at least one trie")
    widths = {trie.width for trie in tries}
    if len(widths) > 1:
        raise TrieError(f"cannot stack tries of mixed widths {sorted(widths)}")
    width = widths.pop()
    parts = [_engine_arrays(trie) for trie in tries]
    k = len(parts)
    depth = max(part[4] for part in parts)
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum([len(part[1]) for part in parts], out=offsets[1:])
    childflat = _stack(
        [part[0] + off if off else part[0] for part, off in zip(parts, offsets)]
    )
    levels = _stack([part[1] for part in parts])
    best = _stack([part[2] for part in parts])
    has_child = _stack([part[3] for part in parts])
    del parts
    # jump table over the engine and the top stride bits: entry
    # (t << stride) | p is the node engine t reaches (or parks on)
    # after walking bit pattern p.  One level per pass, each entry
    # splitting into its 0- and 1-child, so the table doubles per
    # level instead of every pass walking all 2^stride patterns.
    stride = min(UnibitTrie.JUMP_STRIDE, depth)
    pairs = childflat.reshape(-1, 2)
    jump = offsets[:-1, None]
    for _ in range(stride):
        jump = pairs[jump].reshape(k, -1)
    jump = jump.ravel()
    rowbase, delta, strides = _stride_tables(
        childflat,
        levels,
        has_child,
        stride,
        min(depth, UnibitTrie.STRIDE_CAP),
        UnibitTrie.STRIDE,
    )
    # the levels become the tags in place: engine t's nodes move up by
    # t histogram rows of depth + 1 bins
    for t in range(1, k):
        levels[offsets[t] : offsets[t + 1]] += t * (depth + 1)
    return FrozenWalk(
        tag=levels,
        childflat=childflat,
        best=best,
        jump=jump,
        jump_stride=stride,
        rowbase=rowbase,
        delta=delta,
        strides=strides,
        depth=depth,
        width=width,
        offsets=tuple(int(off) for off in offsets),
    )
