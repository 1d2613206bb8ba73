"""Merged router virtualization: trie merging with measured α.

The merged scheme (paper Section IV-C) unions the K virtual tries into
one structure whose leaves carry a VNID-indexed vector of next hops
(Section V-D).  The merge exploits structural similarity: a node at
the same root path in several tries is stored once.

Merging efficiency is the paper's Assumption 4:

    α_global = common nodes / total nodes
             = (Σᵢ nodes(trieᵢ) − union nodes) / Σᵢ nodes(trieᵢ)

α_global is bounded by (K−1)/K (identical tables), so the *model
parameter* the paper sweeps (α = 20 %, 80 % independent of K) is the
pairwise/incremental form: merged nodes = M·(1 + (K−1)(1−α_pair)) for
K equal-size tables.  Both are measured here and interconvert via
``α_pair = α_global · K/(K−1)`` (see DESIGN.md §2 for why we adopt
this reading of the paper's Eq. 5).

The merged trie produced is full and leaf-pushed: every internal node
has both children and every leaf holds the K-wide NHI vector of each
virtual network's longest matching prefix along the leaf's path — so a
single walk of the union structure answers lookups for every VN.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MergeError
from repro.iplookup.rib import NO_ROUTE
from repro.iplookup.trie import (
    NONE,
    TrieStats,
    UnibitTrie,
    WalkWorkspace,
    count_node_visits,
)
from repro.obs.registry import REGISTRY

__all__ = [
    "MergedTrie",
    "merge_tries",
    "pairwise_alpha_from_global",
    "global_alpha_from_pairwise",
]


def pairwise_alpha_from_global(alpha_global: float, k: int) -> float:
    """Convert the paper's common/total α into the model's pairwise α."""
    if k < 2:
        raise MergeError("pairwise alpha requires k >= 2")
    if not 0.0 <= alpha_global <= (k - 1) / k + 1e-12:
        raise MergeError(
            f"alpha_global {alpha_global:.3f} out of range [0, {(k - 1) / k:.3f}] for k={k}"
        )
    return min(1.0, alpha_global * k / (k - 1))


def global_alpha_from_pairwise(alpha_pair: float, k: int) -> float:
    """Convert a pairwise/model α into the common/total measurement."""
    if k < 2:
        raise MergeError("pairwise alpha requires k >= 2")
    if not 0.0 <= alpha_pair <= 1.0:
        raise MergeError(f"alpha_pair must be in [0, 1], got {alpha_pair}")
    return alpha_pair * (k - 1) / k


class MergedTrie:
    """Union trie over K virtual networks with per-leaf NHI vectors.

    **Immutability invariant.** The merged structure is never mutated
    after construction: control-plane updates go to the per-VN tries
    and the merged view is *rebuilt* (see
    :class:`repro.virt.manager.VirtualRouterManager`), mirroring the
    shadow-table update pattern of the authors' FPL'11 companion
    work.  Freezing and packing the child/leaf/NHI arrays once here is
    therefore sound — there is no invalidation path to miss, unlike
    :class:`~repro.iplookup.trie.UnibitTrie` whose ``_frozen`` cache
    must be dropped on every mutating insert/remove.
    """

    __slots__ = (
        "structure",
        "k",
        "union_input_nodes",
        "sum_input_nodes",
        "_frozen",
        "_packed",
        "_shift",
        "_mask",
    )

    def __init__(
        self,
        structure: UnibitTrie,
        nhi_matrix: np.ndarray,
        k: int,
        union_input_nodes: int,
        sum_input_nodes: int,
    ):
        if nhi_matrix.shape != (structure.num_nodes, k):
            raise MergeError("one K-wide NHI matrix row per structure node required")
        self.structure = structure
        self.k = k
        self.union_input_nodes = union_input_nodes
        self.sum_input_nodes = sum_input_nodes
        # freeze the lookup arrays once — the structure is immutable
        # (see class docstring), so no per-call revalidation is needed.
        # The walk is the per-VN engines' FrozenWalk kernel; for a full
        # trie the frozen arrays carry no parked nodes, so every walk
        # lands on a real leaf index, which is what lets the flat gather
        # of the packed table index the leaf's row directly.
        frozen = structure._freeze()
        if len(frozen.tag) != structure.num_nodes:
            raise MergeError(
                "merged structure must be full (leaf-pushed): a node with "
                "exactly one child cannot carry a per-leaf NHI vector"
            )
        self._frozen = frozen
        # The packed table: row ``node``, column ``vnid`` (flat index
        # ``node * k + vnid``) holds the VN's next hop above the low
        # bits ``level(node) * k + vnid``.  One gather then yields the
        # answer (the high bits) and the lane's walk-histogram bin (the
        # low bits) together, so counting lookups per VN costs no lane
        # operation of its own.  Packed in place: the matrix is this
        # trie's from here on.
        shift = ((frozen.depth + 1) * k - 1).bit_length()
        if nhi_matrix.size and int(nhi_matrix.max()) >= 1 << (63 - shift):
            raise MergeError(f"next hops must be below 2**{63 - shift} to pack")
        np.left_shift(nhi_matrix, shift, out=nhi_matrix)
        nhi_matrix += frozen.tag[:, None] * k
        nhi_matrix += np.arange(k)
        nhi_matrix.flags.writeable = False
        self._packed = nhi_matrix.reshape(-1)
        self._shift = shift
        self._mask = (1 << shift) - 1

    # -- merging efficiency ------------------------------------------------

    @property
    def global_alpha(self) -> float:
        """Paper Assumption 4: common nodes / total nodes."""
        if self.sum_input_nodes == 0:
            return 0.0
        return (self.sum_input_nodes - self.union_input_nodes) / self.sum_input_nodes

    @property
    def pairwise_alpha(self) -> float:
        """The model-parameter α: per-additional-table overlap fraction."""
        if self.k < 2:
            return 1.0
        return pairwise_alpha_from_global(self.global_alpha, self.k)

    # -- structure & memory accounting ---------------------------------------

    @property
    def num_nodes(self) -> int:
        """Nodes in the final (leaf-pushed) merged trie."""
        return self.structure.num_nodes

    def stats(self) -> TrieStats:
        """Per-level statistics of the merged structure.

        Feed to :func:`repro.iplookup.mapping.map_trie_to_stages` with
        ``nhi_vector_width=k`` to size the merged engine's memories.
        """
        return self.structure.stats()

    def leaf_vector(self, node: int) -> np.ndarray:
        """The K-wide NHI vector stored at leaf ``node``."""
        if not self.structure.is_leaf(node):
            raise MergeError(f"node {node} is not a leaf")
        return self._packed[node * self.k : (node + 1) * self.k] >> self._shift

    # -- lookup ---------------------------------------------------------------

    def lookup(self, address: int, vnid: int) -> int:
        """LPM for ``address`` within virtual network ``vnid``."""
        if not 0 <= vnid < self.k:
            raise MergeError(f"vnid {vnid} out of range 0..{self.k - 1}")
        trie = self.structure
        node = 0
        level = 0
        while not trie.is_leaf(node):
            bit = (address >> (trie.width - 1 - level)) & 1
            node = trie.right(node) if bit else trie.left(node)
            level += 1
        return int(self._packed[node * self.k + vnid] >> self._shift)

    def walk_batch(
        self, addresses: np.ndarray, vnids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized merged walk over (address, vnid) pairs.

        Returns per-pair ``(depths, results)``: the level of the leaf
        each address lands on (stages the shared engine touches) and
        the VN's next hop gathered from that leaf's K-wide vector.
        Checks the shapes and the VNID range (raising
        :class:`~repro.errors.MergeError`), then walks as
        :meth:`walk_histogram` does.
        """
        vnids = np.asarray(vnids, dtype=np.int64)
        if np.shape(addresses) != vnids.shape:
            raise MergeError("addresses and vnids must have the same shape")
        if len(vnids) and (vnids.min() < 0 or vnids.max() >= self.k):
            raise MergeError("vnid out of range")
        # the caller owns the returned depths: a fresh workspace
        bins, results = self._walk_packed(addresses, vnids, WalkWorkspace())
        depths = np.floor_divide(bins, self.k, out=bins)
        if REGISTRY.enabled:  # one branch per batch; zero overhead off
            count_node_visits("merged", int(depths.sum()) + len(depths))
        return depths, results

    def walk_histogram(
        self,
        addresses: np.ndarray,
        vnids: np.ndarray,
        workspace: WalkWorkspace,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hist, results)`` of a batch whose int64 VNIDs are known in range.

        The serve path's entry: its validate stage has already checked
        and cast the batch, and its engine group passes its own
        ``workspace``.  ``hist`` is the ``(depth + 1) × K`` walk
        histogram, ``hist[d, v]`` the lookups of VN ``v`` whose walk
        ended at depth ``d``: one ``bincount`` of the bins the packed
        gather yields.  Its row sums are the depth histogram the
        pipeline accounting reads, its column sums the per-VN lookup
        counts.  The results are written into ``out`` (an int64 array
        of one lane per address) when given, else into a fresh array.
        The caller counts the node visits, from the histogram.
        """
        bins, results = self._walk_packed(addresses, vnids, workspace, out)
        hist = np.bincount(bins, minlength=(self._frozen.depth + 1) * self.k)
        return hist.reshape(-1, self.k), results

    def _walk_packed(
        self,
        addresses: np.ndarray,
        vnids: np.ndarray,
        workspace: WalkWorkspace,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(bins, results)``: each lane's ``level * k + vnid`` and answer.

        :meth:`~repro.iplookup.trie.FrozenWalk.walk`, then one flat
        gather of the packed table at ``leaf * k + vnid`` into the
        workspace — no per-packet Python on tries up to 32 bits wide.
        The bins are a view of the workspace, valid until its next
        walk; the results are ``out`` or a fresh array.
        """
        node = self._frozen.walk(addresses, 0, workspace)
        node *= self.k
        node += vnids
        packed = np.take(self._packed, node, out=workspace.key[: len(node)], mode="wrap")
        results = np.right_shift(packed, self._shift, out=out)
        return np.bitwise_and(packed, self._mask, out=packed), results

    def lookup_batch(self, addresses: np.ndarray, vnids: np.ndarray) -> np.ndarray:
        """Vectorized merged lookup over (address, vnid) pairs."""
        return self.walk_batch(addresses, vnids)[1]


def merge_tries(tries: list[UnibitTrie]) -> MergedTrie:
    """Merge K per-VN tries into one :class:`MergedTrie`.

    Input tries may be plain or leaf-pushed; inherited next hops are
    tracked per VN during the simultaneous walk, so the result is
    always the full, leaf-pushed union with correct per-VN vectors.
    """
    if not tries:
        raise MergeError("need at least one trie to merge")
    k = len(tries)
    widths = {t.width for t in tries}
    if len(widths) > 1:
        raise MergeError(f"cannot merge tries of mixed widths {sorted(widths)}")
    # inherit the input width: merging 128-bit (IPv6) tries must build
    # a 128-bit union structure, not the 32-bit default
    structure = UnibitTrie(width=widths.pop())
    vectors: list[np.ndarray | None] = [None]
    union_input_nodes = 0
    sum_input_nodes = sum(t.num_nodes for t in tries)

    # stack entries: (per-trie node index or NONE, dst node, inherited NHI per VN)
    roots = np.zeros(k, dtype=np.int64)
    inherited0 = np.array([t.nhi(0) for t in tries], dtype=np.int64)
    stack: list[tuple[np.ndarray, int, np.ndarray]] = [(roots, 0, inherited0)]
    union_input_nodes += 1

    while stack:
        src, dst, inherited = stack.pop()
        # collect each VN's own NHI at this union node
        inherited = inherited.copy()
        any_left = False
        any_right = False
        lefts = np.full(k, NONE, dtype=np.int64)
        rights = np.full(k, NONE, dtype=np.int64)
        for i, trie in enumerate(tries):
            node = int(src[i])
            if node == NONE:
                continue
            nhi = trie.nhi(node)
            if nhi != NO_ROUTE:
                inherited[i] = nhi
            lefts[i] = trie.left(node)
            rights[i] = trie.right(node)
            if lefts[i] != NONE:
                any_left = True
            if rights[i] != NONE:
                any_right = True

        if not any_left and not any_right:
            # union leaf: store the per-VN vector
            vectors[dst] = inherited
            continue

        # union internal node: create both children (full/leaf-pushed)
        level = structure.level(dst) + 1
        dst_left = structure._new_node(level)
        vectors.append(None)
        structure._left[dst] = dst_left
        dst_right = structure._new_node(level)
        vectors.append(None)
        structure._right[dst] = dst_right

        if any_left:
            union_input_nodes += 1
            stack.append((lefts, dst_left, inherited))
        else:
            vectors[dst_left] = inherited.copy()
        if any_right:
            union_input_nodes += 1
            stack.append((rights, dst_right, inherited))
        else:
            vectors[dst_right] = inherited.copy()

    # the matrix replaces the per-leaf vectors before the freeze in
    # MergedTrie allocates the walk tables, so the two never coexist
    nhi_matrix = _leaf_matrix(structure, vectors, k)
    del vectors
    return MergedTrie(
        structure=structure,
        nhi_matrix=nhi_matrix,
        k=k,
        union_input_nodes=union_input_nodes,
        sum_input_nodes=sum_input_nodes,
    )


def _leaf_matrix(
    structure: UnibitTrie, vectors: list[np.ndarray | None], k: int
) -> np.ndarray:
    """The ``(nodes, K)`` NHI matrix: each leaf's vector, NO_ROUTE elsewhere."""
    matrix = np.full((len(vectors), k), NO_ROUTE, dtype=np.int64)
    for node, vector in enumerate(vectors):
        if structure.is_leaf(node):
            if vector is None:
                raise MergeError(f"leaf node {node} is missing its NHI vector")
            matrix[node] = vector
    return matrix
