"""Shard runtime and worker: one engine group serving its slice of the VNs.

One shard owns a **contiguous range of virtual networks** and hosts a
complete, shared-nothing :class:`~repro.serve.service.LookupService`
over just those tables — the same stage pipeline as the library call
(:mod:`repro.serve.stages`), built from its own frozen engines, its
own scoped :class:`~repro.faults.FaultPlan`, and its own
process-local :class:`~repro.obs.registry.MetricsRegistry`.  The
frontend (:mod:`repro.serve.frontend`) picks each shard's lanes out of
a batch and writes them, with VNIDs rebased to the shard's range, into
that shard's :class:`LaneArena`: one ``memfd`` mapping shared with the
worker, which writes its answers back into it.  The lane arrays never
cross the :func:`multiprocessing.Pipe`; it carries only the
protocol's small messages.  With the process transport, shards
``0 … n_shards − 2`` run :func:`shard_worker` in worker processes and
the front end hosts the last shard's :class:`ShardRuntime` itself,
calling :meth:`ShardRuntime.handle` on its event loop.

The worker protocol is a strict request/reply alternation per pipe
(the frontend holds one lock per service across each exchange, which
posts every worker its request before the front end walks its own
shard and awaits the replies):

==============================  =======================================
request                         reply
==============================  =======================================
``("arena", None)`` + an fd     ``("ok", None)``; the fd, sent by
                                :func:`multiprocessing.reduction.send_handle`
                                right after the message, is the new
                                arena, which replaces the old one
``("lanes", (batch, n))``       ``("ok", ReplyHeader)``; the first ``n``
                                arena lanes are served at batch index
                                ``batch`` and answered in place, and
                                the batch's trace is written into the
                                arena's :class:`ReplyHeader`
``("metrics", None)``           ``("ok", RegistrySnapshot)`` (shard-labeled)
``("reconfig", payload)``       ``("ok", None)``; payload is
                                ``(OperatingPoint, nominal_load_fraction)``
``("stop", None)``              ``("bye", None)`` then the worker exits
any, on failure                 ``("error", formatted traceback)``
==============================  =======================================

On the pipe, a ``lanes`` request is :data:`LANES_REQUEST`'s 17 bytes
and its ``("ok", …)`` reply is the 1-byte :data:`LANES_DONE` token,
each sent with ``send_bytes``: the answers and the reply header are
already in the arena, which the front end maps too.  Every other
message, a ``lanes`` request's ``("error", traceback)`` reply included,
is pickled.  A runtime in the front end's process (the last shard's,
or every shard's with the inline transport) is handed the ``("arena",
LaneArena)`` object itself.  Everything pickled on the pipe is a
plain picklable value object — the lint pack's CONC003 rule checks the
worker entry point's defaults stay picklable.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.reduction import recv_handle
from typing import NamedTuple

import numpy as np

from repro.errors import ShardError
from repro.faults.plan import FaultPlan
from repro.faults.policy import DegradationPolicy
from repro.iplookup.pipeline import PipelineTrace
from repro.iplookup.rib import RoutingTable
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import RegistrySnapshot, snapshot_registry
from repro.obs.tracing import Tracer
from repro.serve.service import LookupService, ServeTrace
from repro.virt.schemes import Scheme

__all__ = [
    "LANES_DONE",
    "LANES_REQUEST",
    "LANES_TAG",
    "LaneArena",
    "ReplyHeader",
    "ReplyShape",
    "ShardConfig",
    "ShardBatchRequest",
    "ShardBatchResult",
    "ShardRuntime",
    "decode_engines",
    "shard_worker",
]


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker process needs to build its service (picklable).

    ``vn_base`` is the first *global* VN this shard owns; the shard
    serves global VNs ``[vn_base, vn_base + len(tables))``, rebased to
    local VNIDs ``0..len(tables)-1``.  ``fault_plan`` must already be
    scoped to the shard (:meth:`repro.faults.FaultPlan.scoped_to_engines`).
    """

    shard_id: int
    vn_base: int
    tables: tuple[RoutingTable, ...]
    scheme: Scheme
    n_stages: int = 28
    frequency_mhz: float = 200.0
    offered_load_fraction: float = 0.5
    fault_plan: FaultPlan | None = None
    policy: DegradationPolicy | None = None
    metrics: bool = True

    @property
    def reply_shape(self) -> "ReplyShape":
        """The shape of this shard's :class:`ReplyHeader`."""
        k_local = len(self.tables)
        return ReplyShape(
            self.scheme.engines_required(k_local), self.n_stages, k_local
        )


@dataclass(frozen=True)
class ShardBatchRequest:
    """One sub-batch offered to a shard (local VNIDs, arrival order).

    ``queue_seed`` is ignored by the shard; it stays because the
    serving benchmark builds requests with it and seeds its own M/D/1
    timing section from it.
    """

    batch_index: int
    addresses: np.ndarray
    vnids: np.ndarray
    queue_seed: int = 0


@dataclass(frozen=True)
class ShardBatchResult:
    """One shard's answer: results and trace."""

    shard_id: int
    results: np.ndarray
    trace: ServeTrace


#: bytes per arena lane: an int64 answer, an int64 local VNID and a
#: uint32 address, laid out as three arrays in that order (each one
#: starts 8-byte aligned)
LANE_BYTES = 20

#: lanes an arena's capacity is rounded up to, so a run of slowly
#: growing batches does not map a new arena for each one
ARENA_GRAIN = 4096

#: a ``("lanes", (batch, n))`` request on the pipe: a tag byte, which
#: no pickle starts with, then the batch index and the lane count
LANES_REQUEST = struct.Struct("<cqq")
LANES_TAG = b"L"

#: a worker's reply to a served ``lanes`` request: the answers and the
#: :class:`ReplyHeader` are in the arena
LANES_DONE = b"D"

#: columns of a :class:`ReplyHeader` engine row before the stage arrays
ENGINE_CYCLES, ENGINE_PACKETS, ENGINE_FAILED = 0, 1, 2
ENGINE_FIXED = 3


class ReplyShape(NamedTuple):
    """What a shard's :class:`ReplyHeader` holds: engines, stages, VNs."""

    n_engines: int
    n_stages: int
    k_local: int

    @property
    def row_words(self) -> int:
        """int64 words of one engine row: the fixed columns, then the
        per-stage accesses and busy cycles."""
        return ENGINE_FIXED + 2 * self.n_stages

    @property
    def words(self) -> int:
        """int64 words of the whole header."""
        return 6 + self.n_engines * self.row_words + self.k_local


class ReplyHeader:
    """A shard's trace of its last ``lanes`` batch, in its lane arena.

    Fixed-shape views of the arena's first :attr:`ReplyShape.words`
    int64 words, so the reply needs no pickle and the front end folds
    it array by array:

    * ``counts`` — ``n_packets``, ``retries`` and ``walk_failures``;
    * ``floats`` — ``pipeline_ns``, ``queueing_ns`` and ``elapsed_s``
      (float64);
    * ``engines`` — one row per engine: total cycles, packets walked, a
      failed flag (the engine shed its share past the retry budget),
      then the per-stage accesses and the per-stage busy cycles;
    * ``vn_shed`` — lookups shed per local VN (zeros on a nominal
      batch).

    The fault labels are not carried: the front end recomputes them
    from the shard's own scoped fault plan.
    """

    def __init__(self, buffer: mmap.mmap, shape: ReplyShape):
        self.shape = shape
        words = np.frombuffer(buffer, np.int64, shape.words, 0)
        end = 6 + shape.n_engines * shape.row_words
        self.counts = words[:3]
        self.floats = words[3:6].view(np.float64)
        self.engines = words[6:end].reshape(shape.n_engines, shape.row_words)
        self.vn_shed = words[end:]

    @property
    def n_packets(self) -> int:
        return int(self.counts[0])

    def write(self, trace: ServeTrace) -> None:
        """Store one served batch's trace (the shard's side)."""
        self.counts[:] = (trace.n_packets, trace.retries, trace.walk_failures)
        latency = trace.latency
        self.floats[:] = (latency.pipeline_ns, latency.queueing_ns, trace.elapsed_s)
        stages = self.shape.n_stages
        for row, engine in zip(self.engines, trace.engine_traces):
            row[ENGINE_CYCLES] = engine.total_cycles
            row[ENGINE_PACKETS] = engine.n_packets
            row[ENGINE_FAILED] = 0
            row[ENGINE_FIXED : ENGINE_FIXED + stages] = engine.accesses_per_stage
            row[ENGINE_FIXED + stages :] = engine.busy_cycles_per_stage
        for engine in trace.failed_engines:
            self.engines[engine, ENGINE_FAILED] = 1
        self.vn_shed[:] = trace.vn_shed or 0

    def release(self) -> None:
        """Drop the views, so the arena's mapping can close."""
        del self.counts, self.floats, self.engines, self.vn_shed


def decode_engines(
    engines: np.ndarray, n_stages: int
) -> tuple[tuple[PipelineTrace, ...], tuple[int, ...]]:
    """The engine traces and the failed engines of rows laid out as
    :attr:`ReplyHeader.engines` — one shard's, or several shards'
    added together.  The traces' stage arrays are views of ``engines``.
    """
    cycles = engines[:, ENGINE_CYCLES].tolist()
    packets = engines[:, ENGINE_PACKETS].tolist()
    traces = tuple(
        PipelineTrace(
            total_cycles=cycles[e],
            accesses_per_stage=row[ENGINE_FIXED : ENGINE_FIXED + n_stages],
            busy_cycles_per_stage=row[ENGINE_FIXED + n_stages :],
            n_packets=packets[e],
        )
        for e, row in enumerate(engines)
    )
    failed = tuple(np.flatnonzero(engines[:, ENGINE_FAILED]).tolist())
    return traces, failed


class LaneArena:
    """One shard's lane buffers and reply, mapped by the front end and its worker.

    An anonymous ``memfd`` holds the shard's :class:`ReplyHeader`, then
    ``capacity`` lanes as three arrays: ``results`` (int64), ``vnids``
    (int64, shard-local) and ``addresses`` (uint32).  It never appears
    under ``/dev/shm`` and needs no resource tracker: the memory goes
    when the last descriptor and mapping of it close.  The front end
    creates it (:meth:`create`) and sends the descriptor to the worker,
    which maps the same pages (``LaneArena(fd, shape)``).  An arena
    never grows in place; a larger batch gets a new one.
    """

    def __init__(self, fd: int, shape: ReplyShape):
        size = os.fstat(fd).st_size
        head = 8 * shape.words
        self.fd = fd
        self.capacity = (size - head) // LANE_BYTES
        self._map: mmap.mmap | None = mmap.mmap(fd, size)
        cap = self.capacity
        self.header = ReplyHeader(self._map, shape)
        self.results = np.frombuffer(self._map, np.int64, cap, head)
        self.vnids = np.frombuffer(self._map, np.int64, cap, head + 8 * cap)
        self.addresses = np.frombuffer(self._map, np.uint32, cap, head + 16 * cap)

    @classmethod
    def create(
        cls, lanes: int, shape: ReplyShape, name: str = "repro-lanes"
    ) -> "LaneArena":
        """A new arena for at least ``lanes`` lanes (at least one grain)."""
        capacity = -(-max(lanes, 1) // ARENA_GRAIN) * ARENA_GRAIN
        fd = os.memfd_create(name, os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, 8 * shape.words + capacity * LANE_BYTES)
            return cls(fd, shape)
        except BaseException:
            os.close(fd)
            raise

    def lanes(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the first ``n`` lanes: ``(addresses, vnids, results)``."""
        if self._map is None:
            raise ShardError("the lane arena is closed")
        if not 0 <= n <= self.capacity:
            raise ShardError(
                f"{n} lanes do not fit the lane arena's {self.capacity}"
            )
        return self.addresses[:n], self.vnids[:n], self.results[:n]

    def close(self) -> None:
        """Unmap the arena and close its descriptor (idempotent).

        Every view of the arena must be gone by then: the map cannot
        close under a live view.  The header's own views go here, even
        while a stale reply still refers to the header.
        """
        if self._map is None:
            return
        self.header.release()
        del self.results, self.vnids, self.addresses
        self._map.close()
        self._map = None
        os.close(self.fd)


class ShardRuntime:
    """The shard's in-process engine: build once, answer sub-batches.

    Hosts the full :class:`LookupService` composition over the shard's
    tables with a private registry (so per-shard counters merge
    losslessly under the ``shard`` label) and a disabled tracer (span
    streams don't cross processes; the frontend owns tracing).  Its
    engine group walks every sub-batch in one chunk, on the calling
    thread, however large (:func:`repro.serve.stages.walk_nominal`
    splits only outside the sharded tier).  Hosted by a worker process
    or, for the last shard and with the frontend's ``inline``
    transport, in the front end's own process; the inline transport is
    how the unit suite exercises the tier deterministically.
    """

    def __init__(self, config: ShardConfig):
        self.config = config
        self.arena: LaneArena | None = None
        self.registry = MetricsRegistry(enabled=config.metrics)
        self.service = LookupService(
            list(config.tables),
            config.scheme,
            n_stages=config.n_stages,
            frequency_mhz=config.frequency_mhz,
            offered_load_fraction=config.offered_load_fraction,
            fault_plan=config.fault_plan,
            policy=config.policy,
            registry=self.registry,
            tracer=Tracer(enabled=False),
        )
        # the tier already walks its shards in parallel (the workers and
        # the front end): helper threads would only compete for the cores
        self.service.group.max_chunks = 1

    def serve(self, request: ShardBatchRequest) -> ShardBatchResult:
        """Answer one sub-batch at the frontend's batch index.

        The service's batch clock is pinned to the frontend's index
        before serving so every shard consults its scoped fault plan
        at the same schedule position — identical requests produce
        identical results and traces.
        """
        self.service.batches_served = request.batch_index
        results, trace = self.service.serve(request.addresses, request.vnids)
        return ShardBatchResult(
            shard_id=self.config.shard_id, results=results, trace=trace
        )

    def serve_lanes(self, batch_index: int, n: int) -> ServeTrace:
        """Serve the arena's first ``n`` lanes and answer them in place.

        The lanes go through :meth:`serve` like any other sub-batch
        (so its ``LookupService`` validates them); the answers are
        copied into the arena's ``results``, the trace is written into
        its :class:`ReplyHeader`, and returned.
        """
        if self.arena is None:
            raise ShardError("no lane arena attached")
        addresses, vnids, answers = self.arena.lanes(n)
        outcome = self.serve(ShardBatchRequest(batch_index, addresses, vnids))
        answers[:] = outcome.results
        self.arena.header.write(outcome.trace)
        return outcome.trace

    def snapshot(self) -> RegistrySnapshot:
        """Shard-labeled snapshot of the private registry."""
        return snapshot_registry(self.registry, shard=self.config.shard_id)

    def handle(self, message: tuple[str, object]) -> tuple[str, object]:
        """Dispatch one protocol message (shared by pipe and inline paths)."""
        op, payload = message
        try:
            if op == "lanes":
                assert isinstance(payload, tuple) and len(payload) == 2
                batch_index, n = payload
                self.serve_lanes(batch_index, n)
                assert self.arena is not None
                return ("ok", self.arena.header)
            if op == "arena":
                assert isinstance(payload, LaneArena)
                if payload.header.shape != self.config.reply_shape:
                    raise ShardError(
                        f"the arena's reply header {payload.header.shape} does "
                        f"not fit the shard's {self.config.reply_shape}"
                    )
                # serve from the new arena; the one it replaces is done
                if self.arena is not None and self.arena is not payload:
                    self.arena.close()
                self.arena = payload
                return ("ok", None)
            if op == "metrics":
                return ("ok", self.snapshot())
            if op == "reconfig":
                assert isinstance(payload, tuple) and len(payload) == 2
                point, nominal = payload
                self.service.set_offered_load(nominal)
                self.service.apply_operating_point(point)
                return ("ok", None)
            if op == "stop":
                return ("bye", None)
            return ("error", f"unknown shard op {op!r}")
        except Exception:
            return ("error", traceback.format_exc())


def shard_worker(
    conn: Connection, config: ShardConfig, inherited: tuple[Connection, ...] = ()
) -> None:
    """Worker-process entry point: serve the pipe until told to stop.

    First closes ``inherited``, the front end's pipe ends a forked
    worker holds copies of: while any copy stays open, a front end
    that dies without ``stop()`` never closes the pipe, and the worker
    would wait on it forever.  Then builds the runtime (freezing the
    shard's engines once) and answers the strict request/reply
    protocol documented in the module docstring; an ``"arena"``
    request's descriptor is taken off the pipe right after it, and a
    served ``lanes`` request is answered with the :data:`LANES_DONE`
    token.  Any
    per-request failure is returned as an ``("error", traceback)``
    reply — the worker itself stays up, so one poisoned batch cannot
    take a shard's tables with it.
    """
    for end in inherited:
        end.close()
    runtime = ShardRuntime(config)
    try:
        while True:
            data = conn.recv_bytes()
            if data[:1] == LANES_TAG:
                _, batch_index, n = LANES_REQUEST.unpack(data)
                reply = runtime.handle(("lanes", (batch_index, n)))
                if reply[0] == "ok":
                    conn.send_bytes(LANES_DONE)
                    continue
            else:
                message = pickle.loads(data)
                if message[0] == "arena":
                    message = ("arena", LaneArena(recv_handle(conn), config.reply_shape))
                reply = runtime.handle(message)
            conn.send(reply)
            if reply[0] == "bye":
                break
    except (EOFError, KeyboardInterrupt):
        pass  # frontend went away; exit quietly
    finally:
        if runtime.arena is not None:
            runtime.arena.close()
        conn.close()
