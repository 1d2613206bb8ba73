"""Composable serving stages: validate → admit → partition → walk → scatter → account.

The serving tier is built from a small set of pure(ish) stage
functions over an :class:`EngineGroup` — the frozen engines one
process walks.  :class:`repro.serve.service.LookupService` composes
every stage; the sharded tier (:mod:`repro.serve.frontend`) hosts one
such service per shard worker (:mod:`repro.serve.shard`), so admission
is decided once, per engine inside the shard, by the same
:func:`plan_admission` as the synchronous tier — the frontend makes
no admission decision of its own.  Either way the pipeline is:

    validate_batch          strict typed rejection, never coerce
        │
    plan_admission          per-engine admitted fraction under faults
        │
    walk_nominal            NV/VS: one forest walk in arrival order,
        │                   VNIDs as engine indices → best[node] answers
        │                   + one bincount of tag[node] → per-engine
        │                   depth histograms (no partition, gather or
        │                   scatter); VM: one merged walk, one packed
        │                   gather → answers + level·K + vnid bins, one
        │                   bincount → depth-by-VN histogram
        │
        │                   lane split: a batch of at least
        │                   2·CHUNK_LANES lanes is cut into contiguous
        │                   chunks, one per CPU the process may run on;
        │                   the caller walks the first, helper threads
        │                   the rest, each into its own slice of the
        │                   answers and its own workspace, and the
        │                   chunk histograms are summed as integers
        │
    walk_degraded           faults only: partition by VN, head-of-slice
        │                   admission, each kept slice walked on the
        │                   forest, retry-with-backoff, engine shed
        │
    ServeTrace              account: per-engine activity + latency

Keeping the stages free functions (state rides in the
:class:`EngineGroup` argument) is what lets every shard host exactly
the same data path as the library call — shared-nothing,
no hidden globals — and what keeps the two paths provably identical
(the serve unit suite runs against the composition).

Every lane of a nominal walk is independent of every other, and each
NumPy call of the walk releases the GIL, so a large batch walks its
chunks at the same time on the host's cores.  The answers and traces
are those of the one-chunk walk, bit for bit.  A shard walks serially
(:class:`~repro.serve.shard.ShardRuntime` caps its group at one
chunk): the sharded tier already walks its shards in parallel.  The
degraded path is serial too.
"""

from __future__ import annotations

import os
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    MalformedBatchError,
    TransientEngineError,
)
from repro.faults.injectors import ActiveFaults
from repro.faults.policy import SHED_RESULT, DegradationPolicy
from repro.iplookup.pipeline import PipelineTrace, trace_from_histogram
from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import (
    FrozenWalk,
    UnibitTrie,
    WalkWorkspace,
    count_node_visits,
    freeze_forest,
)
from repro.obs.registry import REGISTRY
from repro.virt.distributor import Distributor
from repro.virt.merged import MergedTrie, merge_tries
from repro.virt.queueing import LatencyReport
from repro.virt.schemes import Scheme

if TYPE_CHECKING:  # its module loads on the first split; most processes never split
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "ADDRESS_MAX",
    "CHUNK_LANES",
    "DegradedWalk",
    "EngineGroup",
    "ServeTrace",
    "admit_count",
    "admit_indices",
    "degraded_utilizations",
    "plan_admission",
    "validate_batch",
    "walk_degraded",
    "walk_engine",
    "walk_nominal",
    "walk_with_retry",
]

#: address values are IPv4 words — anything above this cannot be cast
#: to uint32 without silent wraparound
ADDRESS_MAX = 0xFFFFFFFF

#: lanes per chunk of a split nominal walk: a batch splits into
#: ``min(EngineGroup.max_chunks, n // CHUNK_LANES)`` chunks, so only a
#: batch of at least two chunks' worth leaves the caller's thread.  The
#: measured break-even on a 2-core host: 32,768 lanes walked in 229 µs
#: serially and 239 µs split, 65,536 lanes in 457 µs and 346 µs.
CHUNK_LANES = 32_768


@dataclass(frozen=True)
class ServeTrace:
    """Measurement record of one served batch (the *account* stage).

    Attributes
    ----------
    scheme:
        Deployment scheme the batch was served under.
    n_packets:
        Pairs *offered* in the batch (admitted + shed).
    engine_traces:
        One :class:`~repro.iplookup.pipeline.PipelineTrace` per engine
        (K for NV/VS, 1 for VM); empty engines produce empty traces.
        Under active faults these cover only the *admitted* lookups.
    latency:
        M/D/1 pipeline + queueing latency estimate at the offered
        load the service was asked to model; under active faults this
        is the admitted-load-weighted degraded estimate
        (:func:`repro.virt.queueing.degraded_latency_ns`).
    elapsed_s:
        Host wall-clock time spent answering the batch.
    vn_counts:
        *Admitted* lookups per virtual network (length K).  Populated
        only while observability is enabled, and consumed by the
        per-VN power attribution of
        :class:`repro.obs.power.PowerTelemetrySampler`.  On a nominal
        batch they come for free from the walk's own histogram: the
        engine rows on NV/VS, the column sums of the depth-by-VN
        histogram on VM (:func:`walk_nominal`); under faults they are
        the offered lookups per VN less the shed ones.
    vn_shed:
        Lookups shed per virtual network by degraded admission
        control (length K under active faults, empty otherwise).
    retries:
        Walk retry attempts performed while answering the batch.
    walk_failures:
        Transient engine-walk failures observed (each either retried
        or, past the retry budget, converted into a shed engine).
    failed_engines:
        Engines whose walks still failed after the retry budget; their
        admitted share was shed.
    fault_labels:
        Labels of the faults active while the batch was served.
    """

    scheme: Scheme
    n_packets: int
    engine_traces: tuple[PipelineTrace, ...]
    latency: LatencyReport
    elapsed_s: float
    vn_counts: tuple[int, ...] = ()
    vn_shed: tuple[int, ...] = ()
    retries: int = 0
    walk_failures: int = 0
    failed_engines: tuple[int, ...] = ()
    fault_labels: tuple[str, ...] = ()

    @property
    def n_engines(self) -> int:
        return len(self.engine_traces)

    @property
    def n_shed(self) -> int:
        """Lookups shed by degraded admission control (0 when nominal)."""
        return int(sum(self.vn_shed))

    @property
    def n_admitted(self) -> int:
        """Lookups actually served (``n_packets - n_shed``)."""
        return self.n_packets - self.n_shed

    @property
    def host_ops_per_s(self) -> float:
        """Measured host-side serving rate (offered pairs per second)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.n_packets / self.elapsed_s

    def stage_accesses(self) -> np.ndarray:
        """Total per-stage memory accesses summed over engines."""
        return np.sum([t.accesses_per_stage for t in self.engine_traces], axis=0)

    def mean_duty_cycle(self) -> float:
        """Packet-weighted mean memory duty cycle across engines.

        This is the duty-cycle input of the clock-gated power models:
        a stage whose memory is idle dissipates no dynamic power.
        """
        packets = 0
        weighted = 0.0
        for t in self.engine_traces:
            packets += t.n_packets
            weighted += t.mean_duty_cycle() * t.n_packets
        return weighted / packets if packets else 0.0

    def engine_loads(self) -> np.ndarray:
        """Fraction of the *offered* batch each engine served.

        Sums to 1 on a nominal batch; under degraded admission the
        shortfall from 1 is exactly the shed fraction, which is what
        makes the loads usable as the degraded activity vector of the
        power models.
        """
        counts = np.array([t.n_packets for t in self.engine_traces], dtype=float)
        if self.n_packets == 0:
            return np.zeros(self.n_engines)
        return counts / self.n_packets

    def vn_loads(self) -> np.ndarray:
        """Fraction of the offered batch each virtual network contributed.

        Size-0 array when the trace was taken with observability
        disabled (``vn_counts`` untracked); an all-zeros length-K
        array for a tracked but empty batch (``vn_counts`` is
        ``(0,) * K`` there, and no VN contributed anything).
        """
        counts = np.asarray(self.vn_counts, dtype=float)
        if counts.size == 0 or self.n_packets == 0:
            return np.zeros(len(self.vn_counts))
        return counts / self.n_packets


class EngineGroup:
    """The *build* stage: one process's frozen lookup engines.

    For NV/VS this is the K per-VN :class:`~repro.iplookup.trie.UnibitTrie`
    engines behind a :class:`~repro.virt.distributor.Distributor`,
    walked through one forest snapshot (``forest``, built here by
    :func:`~repro.iplookup.trie.freeze_forest`) in place of K per-VN
    snapshots; for VM it is the single
    :class:`~repro.virt.merged.MergedTrie` union engine.  An
    ``EngineGroup`` is shared-nothing by construction — building one
    per shard is exactly how the sharded tier fans out.

    The group serves one batch at a time.  It owns one
    :class:`~repro.iplookup.trie.WalkWorkspace` per walk chunk
    (``workspaces``; the first, ``workspace``, is also the serial and
    degraded paths'), which the chunks write their lane temporaries
    into: a second concurrent batch would overwrite the first's
    buffers.  A nominal batch of at least ``2 · CHUNK_LANES`` lanes
    splits into ``min(max_chunks, n // CHUNK_LANES)`` chunks
    (:func:`walk_nominal`); ``max_chunks`` is the number of CPUs the
    process may run on, and a shard worker sets it to 1.  The helper
    threads that walk every chunk but the first come from a pool the
    group creates the first time a batch splits, and creates again in
    a forked child, whose copy of the pool has no threads.
    """

    def __init__(
        self,
        tables: list[RoutingTable],
        scheme: Scheme,
        n_stages: int | None,
    ):
        if not tables:
            raise ConfigurationError("need at least one routing table")
        if n_stages is not None and n_stages < 1:
            raise ConfigurationError(f"n_stages must be >= 1, got {n_stages}")
        self.k = len(tables)
        self.scheme = scheme
        self.tables = tables
        self.distributor = Distributor(k=self.k)
        self.tries: list[UnibitTrie] = [UnibitTrie(t) for t in tables]
        self.merged: MergedTrie | None = None
        self.forest: FrozenWalk | None = None
        self.workspace = WalkWorkspace()
        self.workspaces = [self.workspace]
        self.max_chunks = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        self._pool: ThreadPoolExecutor | None = None
        self._pool_pid = 0
        if scheme.shares_engine:
            self.merged = merge_tries(self.tries)
            depth = self.merged.structure.depth()
        else:
            # stack the per-VN engines into one frozen forest now, so
            # no served batch ever pays a freeze — the same build-time
            # discipline as the merged engine, whose MergedTrie
            # constructor freezes its union structure
            self.forest = freeze_forest(self.tries)
            depth = self.forest.depth
        if n_stages is None:
            # size the pipeline to the tables: real RIB snapshots have
            # /31-/32 more-specifics, deeper than the paper's 28 stages
            n_stages = max(depth, 1)
        elif depth > n_stages:
            raise ConfigurationError(
                f"trie depth {depth} exceeds pipeline depth {n_stages}"
            )
        self.n_stages = n_stages

    @property
    def n_engines(self) -> int:
        """Engines instantiated (K for NV/VS, 1 for VM)."""
        return self.scheme.engines_required(self.k)

    def chunk_bounds(self, n: int) -> list[int]:
        """Lane offsets of an ``n``-lane nominal batch's chunks.

        ``[0, n]`` (one chunk) below ``2 · CHUNK_LANES`` lanes or with
        one CPU; otherwise ``min(max_chunks, n // CHUNK_LANES)``
        contiguous chunks of (nearly) equal size.
        """
        chunks = min(self.max_chunks, n // CHUNK_LANES)
        if chunks < 2:
            return [0, n]
        return [n * i // chunks for i in range(chunks + 1)]

    def helpers(self, chunks: int) -> ThreadPoolExecutor:
        """The pool that walks chunks ``1 ..`` of a ``chunks``-chunk batch.

        Also grows ``workspaces`` to one per chunk.  A forked child
        inherits the pool object but none of its threads, so a pool
        made in another process is replaced, never waited on.
        """
        while len(self.workspaces) < chunks:
            self.workspaces.append(WalkWorkspace())
        pid = os.getpid()
        if self._pool is None or self._pool_pid != pid:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.max_chunks - 1, thread_name_prefix="repro-walk"
            )
            self._pool_pid = pid
        return self._pool


def _vnids_below(vnids: np.ndarray, k: int) -> bool:
    """Whether every one of the (non-empty, integer) ``vnids`` is in ``0..k-1``.

    One reduction: viewed as the unsigned type of the same width, a
    negative VNID reads as at least ``2**(bits - 1)``, so the unsigned
    maximum is below ``k`` exactly when every VNID is in range — unless
    ``k`` exceeds the signed type's maximum, where no value can reach
    ``k`` and only the sign is left to test.
    """
    if vnids.dtype.kind == "i":
        if k > np.iinfo(vnids.dtype).max:
            return int(vnids.min()) >= 0
        unsigned = np.dtype(f"{vnids.dtype.byteorder}u{vnids.dtype.itemsize}")
        vnids = vnids.view(unsigned)
    return int(vnids.max()) < k


def validate_batch(
    addresses: np.ndarray, vnids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The *validate* stage: reject malformed input, never coerce.

    Raises :class:`~repro.errors.MalformedBatchError` with a ``kind``
    of ``shape``, ``truncated``, ``dtype``, ``non_finite``,
    ``address_range`` or ``vnid_range``; a batch that passes is safely
    castable to ``(uint32, int64)``.
    """
    addresses = np.asarray(addresses)
    vnids = np.asarray(vnids)
    if addresses.ndim != 1 or vnids.ndim != 1:
        raise MalformedBatchError(
            "shape",
            f"batches must be one-dimensional, got {addresses.ndim}-D "
            f"addresses and {vnids.ndim}-D vnids",
        )
    if addresses.shape != vnids.shape:
        raise MalformedBatchError(
            "truncated",
            f"{len(addresses)} addresses vs {len(vnids)} vnids",
        )
    # dtype checks are unconditional: an empty float64 batch is
    # just as malformed as a full one, and "strict, never coerce"
    # must not depend on whether there happens to be data — the
    # guard used to sit inside the size check, silently astype'ing
    # empty float batches through
    if addresses.dtype.kind not in "iu":
        if (
            addresses.dtype.kind == "f"
            and addresses.size
            and np.isnan(addresses).any()
        ):
            raise MalformedBatchError("non_finite", "address array contains NaN")
        raise MalformedBatchError(
            "dtype",
            f"addresses must be an integer array, got {addresses.dtype}",
        )
    if vnids.dtype.kind not in "iu":
        raise MalformedBatchError(
            "dtype", f"vnids must be an integer array, got {vnids.dtype}"
        )
    if addresses.size:
        if addresses.dtype != np.uint32 and (
            int(addresses.max()) > ADDRESS_MAX or int(addresses.min()) < 0
        ):
            raise MalformedBatchError(
                "address_range",
                "address outside the 32-bit range would wrap on cast",
            )
        if not _vnids_below(vnids, k):
            raise MalformedBatchError(
                "vnid_range", f"vnid out of range 0..{k - 1}"
            )
    return (
        addresses.astype(np.uint32, copy=False),
        vnids.astype(np.int64, copy=False),
    )


def plan_admission(
    capacity_scales: np.ndarray,
    offered_load_fraction: float,
    policy: DegradationPolicy,
) -> np.ndarray:
    """The *admit* stage: admitted fraction of each engine's offered load.

    An engine whose remaining capacity would be driven past the
    policy's shed-utilization bound sheds the excess; an offline
    engine (scale 0) sheds everything.
    """
    rho = offered_load_fraction
    bound = policy.shed_utilization
    admit = np.ones(len(capacity_scales))
    for i, scale in enumerate(capacity_scales):
        if scale <= 0.0:
            admit[i] = 0.0
        elif rho > 0.0 and rho / scale > bound:
            admit[i] = bound * scale / rho
    return admit


def degraded_utilizations(
    scales: np.ndarray,
    offered_load_fraction: float,
    policy: DegradationPolicy,
) -> np.ndarray:
    """Per-engine utilization after admission under degraded capacity.

    Shedding caps every engine at the policy's shed-utilization bound;
    an offline engine runs at 0.
    """
    rho = offered_load_fraction
    return np.where(
        scales > 0.0,
        np.minimum(
            np.divide(rho, scales, where=scales > 0.0, out=np.ones_like(scales)),
            policy.shed_utilization,
        ),
        0.0,
    )


def admit_count(
    offered: int, admit: float, vn: int, vn_shed: np.ndarray
) -> int:
    """Admit the head of one VN's slice, shed (and count) the tail.

    Slice-based twin of the old index-list ``_admit_prefix``: the
    kept lookups are the first ``keep`` of the engine's contiguous
    slice, which (by sort stability) are exactly the VN's earliest
    arrivals — the set the index-list path admitted.
    """
    if admit >= 1.0:
        return offered
    keep = int(admit * offered + 0.5)
    vn_shed[vn] += offered - keep
    return keep


def admit_indices(
    vnids: np.ndarray, k: int, admit: float, vn_shed: np.ndarray
) -> np.ndarray:
    """Per-VN head admission for the shared engine (VM).

    The merged engine's degradation hits every VN, so each VN
    keeps the same admitted fraction of its own arrivals.
    """
    if admit >= 1.0:
        return np.arange(len(vnids), dtype=np.int64)
    mask = np.ones(len(vnids), dtype=bool)
    for vn in range(k):
        indices = np.flatnonzero(vnids == vn)
        keep = int(admit * len(indices) + 0.5)
        if keep < len(indices):
            mask[indices[keep:]] = False
            vn_shed[vn] += len(indices) - keep
    return np.flatnonzero(mask)


def walk_with_retry(
    engine: int,
    faults: ActiveFaults,
    policy: DegradationPolicy,
    walk: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> tuple[tuple[np.ndarray, np.ndarray] | None, int, int]:
    """Run one engine walk under the retry policy.

    Returns ``(result_or_None, retries, failures)``: the walk's
    ``(depths, results)`` when it eventually succeeded, or ``None``
    when the retry budget was exhausted.
    """
    retries = 0
    failures = 0
    attempt = 0
    while True:
        try:
            faults.check_walk(engine, attempt)
            return walk(), retries, failures
        except TransientEngineError:
            failures += 1
            if attempt >= policy.max_retries:
                return None, retries, failures
            policy.wait(attempt)
            retries += 1
            attempt += 1


def walk_nominal(
    group: EngineGroup,
    addresses: np.ndarray,
    vnids: np.ndarray,
    admission_rate: float = 1.0,
    *,
    track_vns: bool = False,
) -> tuple[np.ndarray, tuple[PipelineTrace, ...], tuple[int, ...]]:
    """The nominal *walk* and *account* stages (no faults).

    NV/VS walk the whole batch in arrival order on the group's forest,
    the VNIDs picking each lane's engine; the answers are one gather
    of ``best``, and one ``bincount`` of the final nodes' tags is the
    K × (depth + 1) depth histogram whose rows are the engine traces.
    The VNID demultiplexer costs nothing here, as the paper's
    Assumption 3 has it.  VM walks the whole batch on the single
    merged engine, whose one packed gather yields each lane's answer
    and its ``level · K + vnid`` bin; one ``bincount`` of the bins is
    the (depth + 1) × K histogram
    (:meth:`~repro.virt.merged.MergedTrie.walk_histogram`): the row
    sums are the engine trace, the column sums the per-VN counts.
    ``vnids`` must have passed :func:`validate_batch`.

    A batch of at least ``2 · CHUNK_LANES`` lanes is walked in
    contiguous chunks at the same time, the caller's thread walking
    the first and the group's helper threads the rest
    (:meth:`EngineGroup.chunk_bounds`).  Each chunk runs the same
    kernel into its own slice of one fresh answer array and its own
    workspace, and the chunk histograms are summed as integers, so
    the answers, traces and ``vn_counts`` are those of one walk.  An
    error in any chunk is raised once every chunk has finished.

    Returns ``(results, traces, vn_counts)``.  ``vn_counts`` is the
    lookups per VN when ``track_vns`` is set and ``()`` otherwise;
    either way the walk and the histogram are the same, so tracking
    costs no lane operation.  While the process-wide registry is
    enabled the walks' node visits are counted, from the traces.

    ``admission_rate`` is the offered load fraction the batch arrives
    at: it stretches the modeled arrival window so the measured duty
    cycle tracks the load actually offered, not a back-to-back replay
    (see :func:`repro.iplookup.pipeline.trace_from_histogram`).
    """
    if group.merged is not None:
        hist, results = _walk_chunks(group, _merged_chunk, addresses, vnids)
        traces: tuple[PipelineTrace, ...] = (
            trace_from_histogram(
                hist.sum(axis=1), group.n_stages, admission_rate=admission_rate
            ),
        )
        vn_counts = tuple(hist.sum(axis=0).tolist()) if track_vns else ()
    else:
        rows, results = _walk_chunks(group, _forest_chunk, addresses, vnids)
        traces = tuple(
            trace_from_histogram(row, group.n_stages, admission_rate=admission_rate)
            for row in rows
        )
        # NV/VS: engine i walked exactly VN i's lookups
        vn_counts = tuple(t.n_packets for t in traces) if track_vns else ()
    if REGISTRY.enabled:  # one branch per batch; zero overhead off
        _count_visits(group, traces)
    return results, traces, vn_counts


#: one chunk's walk: ``(group, workspace, addresses, vnids, out)`` →
#: ``(integer histogram, answers)``, the answers written into ``out``
#: (a fresh array when ``out`` is None)
_ChunkWalk = Callable[
    [EngineGroup, WalkWorkspace, np.ndarray, np.ndarray, np.ndarray | None],
    tuple[np.ndarray, np.ndarray],
]


def _walk_chunks(
    group: EngineGroup, walk: _ChunkWalk, addresses: np.ndarray, vnids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(hist, results)``: ``walk`` run over each chunk of
    :meth:`EngineGroup.chunk_bounds`.

    One chunk is walked as it is, on the caller's thread.  Otherwise
    the caller's thread walks the first chunk and the group's helper
    threads the others, each into its own slice of one fresh answer
    array and its own workspace.  Every chunk has finished before this
    returns or raises (a helper's error is raised here, after the
    join), so no helper still writes into a buffer once the batch is
    over.  The chunk histograms are summed as integers: the same
    counts, hence the same traces, as one walk of the whole batch.
    """
    bounds = group.chunk_bounds(len(addresses))
    if len(bounds) == 2:
        return walk(group, group.workspace, addresses, vnids, None)
    pool = group.helpers(len(bounds) - 1)
    results = np.empty(len(addresses), dtype=np.int64)
    lanes = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    futures = [
        pool.submit(walk, group, ws, addresses[sl], vnids[sl], results[sl])
        for ws, sl in zip(group.workspaces[1:], lanes[1:])
    ]
    try:
        sl = lanes[0]
        hist = walk(group, group.workspace, addresses[sl], vnids[sl], results[sl])[0]
    finally:
        wait(futures)
    for future in futures:
        hist += future.result()[0]
    return hist, results


def _forest_chunk(
    group: EngineGroup,
    workspace: WalkWorkspace,
    addresses: np.ndarray,
    vnids: np.ndarray,
    out: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """NV/VS: the lanes' K × (depth + 1) tag histogram, and their
    ``best`` answers gathered into ``out``."""
    forest = group.forest
    assert forest is not None
    node = forest.walk(addresses, vnids, workspace)
    results = np.take(forest.best, node, out=out, mode="wrap")
    bins = forest.depth + 1
    hist = np.bincount(forest.tags(node, workspace), minlength=group.k * bins)
    return hist.reshape(group.k, bins), results


def _merged_chunk(
    group: EngineGroup,
    workspace: WalkWorkspace,
    addresses: np.ndarray,
    vnids: np.ndarray,
    out: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """VM: the merged walk's (depth + 1) × K histogram and answers."""
    merged = group.merged
    assert merged is not None
    return merged.walk_histogram(addresses, vnids, workspace, out)


def _count_visits(group: EngineGroup, traces: tuple[PipelineTrace, ...]) -> None:
    """Count the trie nodes a batch's walks touched, from its traces.

    The pipeline is at least as deep as the engines, so each trace's
    accesses are its lanes' summed walk depths, and each lane also
    touched the root.
    """
    visits = 0
    for t in traces:
        visits += t.total_accesses + t.n_packets
    count_node_visits("unibit" if group.merged is None else "merged", visits)


def walk_engine(
    forest: FrozenWalk, addresses: np.ndarray, engine: int, workspace: WalkWorkspace
) -> tuple[np.ndarray, np.ndarray]:
    """``(depths, results)`` of one engine's walk on the forest.

    The degraded path's per-slice walk: the same kernel as the nominal
    batch walk, with one engine index for every lane.  The results
    are a fresh array; the depths are a view of ``workspace``, valid
    until its next walk.
    """
    node = forest.walk(addresses, engine, workspace)
    depths = forest.tags(node, workspace)
    depths -= engine * (forest.depth + 1)
    return depths, forest.best[node]


@dataclass
class DegradedWalk:
    """Outcome of the degraded *admit → walk → scatter* stages."""

    results: np.ndarray
    traces: tuple[PipelineTrace, ...]
    vn_shed: np.ndarray
    retries: int = 0
    walk_failures: int = 0
    failed_engines: list[int] = field(default_factory=list)


def walk_degraded(
    group: EngineGroup,
    addresses: np.ndarray,
    vnids: np.ndarray,
    admit: np.ndarray,
    faults: ActiveFaults,
    policy: DegradationPolicy,
    admission_rate: float = 1.0,
) -> DegradedWalk:
    """The degraded *admit → walk → scatter* stages under active faults.

    Implements the degradation policy: per-VN admission shedding
    against the degraded per-engine capacity (``admit``, from
    :func:`plan_admission`), retry-with-backoff for transiently
    failing walks, and shedding of engines whose retry budget is
    exhausted.  Shed lookups answer
    :data:`~repro.faults.policy.SHED_RESULT`.

    Every engine trace is windowed over the lookups *offered* to that
    engine at ``admission_rate`` (shed arrival slots stay idle), so
    the measured duty cycle visibly drops when admission control
    sheds — the signal the DVS governor trades voltage against.
    """
    n = len(addresses)
    results = np.full(n, SHED_RESULT, dtype=np.int64)
    vn_shed = np.zeros(group.k, dtype=np.int64)
    out = DegradedWalk(results=results, traces=(), vn_shed=vn_shed)
    # an engine with nothing admitted is not walked: no walk, so no
    # walk failure or retry can be counted against it
    no_walk = np.zeros(1, dtype=np.int64)

    if group.merged is not None:
        kept = admit_indices(vnids, group.k, admit[0], vn_shed)
        hist = no_walk
        if len(kept):
            kept_addresses = addresses[kept]
            kept_vnids = vnids[kept]
            # bind the walk inputs as defaults: a plain closure would
            # re-read the enclosing names at call time (late binding),
            # which the retry loop must never depend on
            walked, walk_retries, failures = walk_with_retry(
                0,
                faults,
                policy,
                lambda m=group.merged, a=kept_addresses, v=kept_vnids, w=group.workspace: (
                    m.walk_histogram(a, v, w)
                ),
            )
            out.retries += walk_retries
            out.walk_failures += failures
            if walked is None:
                out.failed_engines.append(0)
                np.add.at(vn_shed, kept_vnids, 1)
            else:
                depth_by_vn, walk_results = walked
                results[kept] = walk_results
                hist = depth_by_vn.sum(axis=1)
        out.traces = (
            trace_from_histogram(
                hist, group.n_stages, admission_rate=admission_rate, window_packets=n
            ),
        )
        if REGISTRY.enabled:  # one branch per batch; zero overhead off
            _count_visits(group, out.traces)
        return out

    # head-of-slice admission needs each VN's arrivals contiguous:
    # the VNID-sorted batch keeps arrival order within a VN (stable
    # sort), so admission sheds the *tail* of each engine's slice,
    # the kept lookups stay a prefix of it, each walks on the forest
    # with that one engine, and the answers scatter back through the
    # same permutation.
    part = group.distributor.partition(vnids)
    sorted_addresses = part.gather(addresses)
    engine_traces = []
    for vn in range(group.k):
        start_vn, stop_vn = part.engine_slice(vn).start, part.engine_slice(vn).stop
        offered = stop_vn - start_vn
        keep = admit_count(offered, admit[vn], vn, vn_shed)
        hist = no_walk
        if keep:
            kept_addresses = sorted_addresses[start_vn : start_vn + keep]
            # default-arg binding: the thunk must capture *this*
            # iteration's engine and slice, not the loop variables
            walked, walk_retries, failures = walk_with_retry(
                vn,
                faults,
                policy,
                lambda f=group.forest, a=kept_addresses, e=vn, w=group.workspace: (
                    walk_engine(f, a, e, w)
                ),
            )
            out.retries += walk_retries
            out.walk_failures += failures
            if walked is None:
                out.failed_engines.append(vn)
                vn_shed[vn] += keep
            else:
                depths, engine_results = walked
                results[part.order[start_vn : start_vn + keep]] = engine_results
                hist = np.bincount(depths)
        engine_traces.append(
            trace_from_histogram(
                hist,
                group.n_stages,
                admission_rate=admission_rate,
                window_packets=offered,
            )
        )
    out.traces = tuple(engine_traces)
    if REGISTRY.enabled:  # one branch per batch; zero overhead off
        _count_visits(group, out.traces)
    return out
