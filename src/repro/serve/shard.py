"""Shard worker: one engine group serving its slice of the VNs.

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
protocol's small messages.

The worker protocol is a strict request/reply alternation per pipe
(the frontend holds one lock per service across each exchange, which
sends every shard its request before it awaits the replies):

==============================  =======================================
request                         reply
==============================  =======================================
``("arena", None)`` + an fd     ``("ok", None)``; the fd, sent by
                                :func:`multiprocessing.reduction.send_handle`
                                right after the message, is the new
                                arena, which replaces the old one
``("lanes", (batch, n))``       ``("ok", ServeTrace)``; the first ``n``
                                arena lanes are served at batch index
                                ``batch`` and answered in place
``("metrics", None)``           ``("ok", RegistrySnapshot)`` (shard-labeled)
``("reconfig", payload)``       ``("ok", None)``; payload is
                                ``(OperatingPoint, nominal_load_fraction)``
``("stop", None)``              ``("bye", None)`` then the worker exits
any, on failure                 ``("error", formatted traceback)``
==============================  =======================================

The inline transport hands :meth:`ShardRuntime.handle` the
``("arena", LaneArena)`` object itself.  Everything else crossing the
pipe is a plain picklable value object — the lint pack's CONC003 rule
checks the worker entry point's defaults stay picklable.
"""

from __future__ import annotations

import mmap
import os
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.reduction import recv_handle

import numpy as np

from repro.errors import ShardError
from repro.faults.plan import FaultPlan
from repro.faults.policy import DegradationPolicy
from repro.iplookup.rib import RoutingTable
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import RegistrySnapshot, snapshot_registry
from repro.obs.tracing import Tracer
from repro.serve.service import LookupService, ServeTrace
from repro.virt.schemes import Scheme

__all__ = [
    "LaneArena",
    "ShardConfig",
    "ShardBatchRequest",
    "ShardBatchResult",
    "ShardRuntime",
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


class LaneArena:
    """One shard's lane buffers, mapped by the front end and its worker.

    An anonymous ``memfd`` holds ``capacity`` lanes as three arrays:
    ``results`` (int64), ``vnids`` (int64, shard-local) and
    ``addresses`` (uint32).  It never appears under ``/dev/shm`` and
    needs no resource tracker: the memory goes when the last
    descriptor and mapping of it close.  The front end creates it
    (:meth:`create`) and sends the descriptor to the worker, which
    maps the same pages (``LaneArena(fd)``).  An arena never grows in
    place; a larger batch gets a new one.
    """

    def __init__(self, fd: int):
        size = os.fstat(fd).st_size
        self.fd = fd
        self.capacity = size // LANE_BYTES
        self._map: mmap.mmap | None = mmap.mmap(fd, size)
        cap = self.capacity
        self.results = np.frombuffer(self._map, np.int64, cap, 0)
        self.vnids = np.frombuffer(self._map, np.int64, cap, 8 * cap)
        self.addresses = np.frombuffer(self._map, np.uint32, cap, 16 * cap)

    @classmethod
    def create(cls, lanes: int, name: str = "repro-lanes") -> "LaneArena":
        """A new arena for at least ``lanes`` lanes (at least one grain)."""
        capacity = -(-max(lanes, 1) // ARENA_GRAIN) * ARENA_GRAIN
        fd = os.memfd_create(name, os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, capacity * LANE_BYTES)
            return cls(fd)
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
        close under a live view.
        """
        if self._map is None:
            return
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
    engine group walks every sub-batch in one chunk, on the worker's
    own thread, however large (:func:`repro.serve.stages.walk_nominal`
    splits only outside the sharded tier).  Also
    usable in-process via the frontend's ``inline`` transport, which
    is how the unit suite exercises the tier deterministically.
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
        # the tier runs one worker process per shard already: helper
        # threads inside a worker would only compete for the same cores
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
        copied into the arena's ``results`` and the trace returned.
        """
        if self.arena is None:
            raise ShardError("no lane arena attached")
        addresses, vnids, answers = self.arena.lanes(n)
        outcome = self.serve(ShardBatchRequest(batch_index, addresses, vnids))
        answers[:] = outcome.results
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
                return ("ok", self.serve_lanes(batch_index, n))
            if op == "arena":
                assert isinstance(payload, LaneArena)
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
    request's descriptor is taken off the pipe right after it.  Any
    per-request failure is returned as an ``("error", traceback)``
    reply — the worker itself stays up, so one poisoned batch cannot
    take a shard's tables with it.
    """
    for end in inherited:
        end.close()
    runtime = ShardRuntime(config)
    try:
        while True:
            message = conn.recv()
            if message[0] == "arena":
                message = ("arena", LaneArena(recv_handle(conn)))
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
