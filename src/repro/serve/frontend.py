"""Sharded asyncio serving tier: fan-out and reassembly.

This is the "millions of users" face of the serving stack.  The serve
core is :class:`~repro.serve.service.LookupService`, hosted once per
shard (:mod:`repro.serve.shard`): shards ``0 … n_shards − 2`` each in
a **worker process**, and the last shard in the front end's own
process, whose event loop walks it while the workers walk theirs.
Otherwise the front end only splits each batch across the shards and
puts it back together.  The control plane (operating point, offered
load, capacity, the publish tail, the oracle check) is the same
:class:`~repro.serve.service.TierControl` the synchronous tier uses.
One batch flows as:

1. **validate** — :func:`repro.serve.stages.validate_batch`, same
   strict typed rejection as the library call;
2. **split** — every shard owns a *contiguous VN range*, so its lanes
   are one range test over the VNIDs and one ``np.flatnonzero``, in
   arrival order: no sort.  The front end gathers those lanes'
   addresses and shard-local VNIDs straight into the shard's
   :class:`~repro.serve.shard.LaneArena`, a ``memfd`` mapping the
   worker shares;
3. **exchange** — the workers first: each worker shard is split,
   staged and posted its fixed-size ``(batch_index, n)`` request, one
   shard at a time, before the front end touches its own shard.  Only
   then does the front end split and stage its own shard and walk it
   on the loop, while the workers walk theirs.  A worker answers with
   a one-byte token, read by an event-loop reader on its pipe, so the
   loop never blocks on a worker.  One lock per service keeps each
   pipe strictly request/reply and each arena to one batch: staging,
   the exchange and reading the answers back all happen under it;
4. **admit and walk** — each shard's ``LookupService`` admits per
   engine under its scoped fault plan
   (:func:`repro.serve.stages.plan_admission`, exactly the
   single-process policy), walks the arena's lanes and writes the
   answers, and its trace as a fixed-shape
   :class:`~repro.serve.shard.ReplyHeader`, into the arena.  The
   front end makes no admission decision of its own;
5. **scatter / account** — each shard's answers scatter from its arena
   back to arrival order through the same lane indices, and its header
   folds into the batch's global arrays: the front end's own shard as
   soon as it is walked, a worker's once its token arrives.  The
   folded arrays become one *global-shaped*
   :class:`~repro.serve.service.ServeTrace`, so the frontend's single
   :class:`~repro.obs.power.PowerTelemetrySampler` attributes power
   exactly as a single-process service would — per-shard watts are
   that sample cut along shard boundaries, which is why they sum to
   the single-process total.

The modeled M/D/1 queue wait is published once per batch, from the
reassembled trace at its realized (post-shedding) load, by the same
:class:`~repro.serve.service.TierControl` helper the synchronous tier
uses; shards simulate no queue.

Metrics appear on two surfaces: shard-local registries (scraped and
merged through shard-labeled snapshots — :meth:`ShardedLookupService.scrape`
/ :meth:`~ShardedLookupService.merged_snapshot`) and the frontend's
own ``repro_frontend_*`` / ``repro_shard_power_watts`` families on
the process registry.  The walks of the front end's own shard count
their node visits (``repro_trie_node_visits_total``) on the front
end's process-global registry, as the synchronous tier's walks do; a
worker's stay in its own process.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import pickle
import time
from collections.abc import AsyncIterator
from contextlib import asynccontextmanager
from multiprocessing.connection import Connection
from multiprocessing.reduction import send_handle
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ConfigurationError, ShardError
from repro.faults.plan import FaultPlan
from repro.faults.policy import DegradationPolicy
from repro.fpga.dvs import OperatingPoint
from repro.iplookup.rib import RoutingTable
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import RegistrySnapshot, merge_snapshots, snapshot_registry
from repro.obs.tracing import Tracer
from repro.serve.service import ServeTrace, TierControl
from repro.serve.shard import (
    LANES_DONE,
    LANES_REQUEST,
    LANES_TAG,
    LaneArena,
    ReplyHeader,
    ReplyShape,
    ShardConfig,
    ShardRuntime,
    decode_engines,
    shard_worker,
)
from repro.serve.stages import validate_batch
from repro.virt.queueing import LatencyReport
from repro.virt.schemes import Scheme

if TYPE_CHECKING:  # the sampler pulls in the experiment stack
    from repro.obs.power import PowerTelemetrySampler

__all__ = ["ShardedLookupService", "shard_vn_bounds"]


def shard_vn_bounds(k: int, n_shards: int) -> tuple[int, ...]:
    """Contiguous VN split: boundaries of each shard's range.

    Returns ``n_shards + 1`` offsets; shard *s* owns global VNs
    ``bounds[s]..bounds[s+1]-1``.  VNs spread as evenly as possible,
    earlier shards taking the remainder (the same convention as
    :func:`numpy.array_split`).
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > k:
        raise ConfigurationError(
            f"cannot spread {k} virtual network(s) over {n_shards} shards"
        )
    base, extra = divmod(k, n_shards)
    bounds = [0]
    for s in range(n_shards):
        bounds.append(bounds[-1] + base + (1 if s < extra else 0))
    return tuple(bounds)


class _ShardHandle:
    """One shard's frontend-side state: config, transport and lane arena.

    ``inline`` shards run their :class:`ShardRuntime` in the front
    end's process; the others run it in a worker process.
    """

    def __init__(
        self, config: ShardConfig, vn_lo: int, vn_hi: int, inline: bool = False
    ):
        self.config = config
        self.vn_lo = vn_lo
        self.vn_hi = vn_hi
        self.inline = inline
        # the lanes the worker serves; grown under the exchange lock
        self.arena: LaneArena | None = None
        # process transport state
        self.process: mp.Process | None = None
        self.conn: Connection | None = None
        # inline transport state
        self.runtime: ShardRuntime | None = None

    @property
    def k_local(self) -> int:
        return self.vn_hi - self.vn_lo

    @property
    def n_engines(self) -> int:
        return self.config.scheme.engines_required(self.k_local)

    @property
    def rows(self) -> slice:
        """This shard's engine rows in the global trace: its VNs' on
        NV/VS, the one merged engine's on VM."""
        if self.config.scheme.shares_engine:
            return slice(0, 1)
        return slice(self.vn_lo, self.vn_hi)

    def start_transport(self, front_ends: tuple[Connection, ...] = ()) -> None:
        """Boot the worker or build the runtime inline.

        ``front_ends`` are the front end's ends of the pipes already
        open (earlier shards').  A forked worker inherits them and its
        own pipe's front-end end; it closes them all first, so when the
        front end dies without :meth:`ShardedLookupService.stop`, each
        worker's pipe reaches EOF and the worker exits.
        """
        if self.runtime is not None or self.process is not None:
            return
        if self.inline:
            self.runtime = ShardRuntime(self.config)
            return
        parent, child = mp.Pipe(duplex=True)
        process = mp.Process(
            target=shard_worker,
            args=(child, self.config, (parent, *front_ends)),
            daemon=True,
            name=f"repro-shard-{self.config.shard_id}",
        )
        process.start()
        child.close()
        self.conn = parent
        self.process = process

    def lanes(self, vnids: np.ndarray, k: int) -> np.ndarray:
        """Indices of the batch's lanes in this shard's VN range, in arrival order.

        ``vnids`` are validated to ``0..k-1``, so the first and the last
        shard test one bound only.
        """
        if self.vn_lo == 0:
            return np.flatnonzero(vnids < self.vn_hi)
        if self.vn_hi == k:
            return np.flatnonzero(vnids >= self.vn_lo)
        return np.flatnonzero((vnids >= self.vn_lo) & (vnids < self.vn_hi))

    def reserve(self, n: int) -> bool:
        """Make the arena hold ``n`` lanes; whether a new one was made.

        A new arena replaces the old one, which the front end unmaps at
        once; the worker must attach the new one (an ``"arena"``
        request) before it is sent lanes.
        """
        if self.arena is not None and n <= self.arena.capacity:
            return False
        if self.arena is not None:
            self.arena.close()
        self.arena = LaneArena.create(
            n, self.config.reply_shape, f"repro-lanes-{self.config.shard_id}"
        )
        return True

    def stage(
        self, addresses: np.ndarray, vnids: np.ndarray, lanes: np.ndarray
    ) -> int:
        """Write ``lanes``' addresses and shard-local VNIDs into the arena."""
        assert self.arena is not None, "reserve() made the arena"
        arena_addresses, arena_vnids, _ = self.arena.lanes(len(lanes))
        # the lane indices are in range: "clip" writes ``out`` directly,
        # where the default mode would stage it in a temporary
        np.take(addresses, lanes, out=arena_addresses, mode="clip")
        np.take(vnids, lanes, out=arena_vnids, mode="clip")
        if self.vn_lo:
            arena_vnids -= self.vn_lo
        return len(lanes)

    def post(
        self,
        loop: asyncio.AbstractEventLoop,
        message: tuple[str, object],
        reply: asyncio.Future,
    ) -> None:
        """Send one request; its reply settles ``reply``.

        Inline, the runtime answers on the spot; an ``("arena",
        LaneArena)`` request hands it the arena object itself.  Over
        the pipe, a ``lanes`` request crosses as the fixed
        :data:`~repro.serve.shard.LANES_REQUEST` bytes, the arena as
        ``("arena", None)`` followed by its descriptor, and a reader on
        the pipe (:meth:`on_readable`) takes the reply off it once it
        has arrived.
        """
        if self.runtime is not None:
            self.resolve(reply, self.runtime.handle(message))
            return
        assert self.conn is not None and self.process is not None, "started"
        op, payload = message
        try:
            if op == "lanes":
                assert isinstance(payload, tuple)
                self.conn.send_bytes(LANES_REQUEST.pack(LANES_TAG, *payload))
            elif isinstance(payload, LaneArena):
                self.conn.send((op, None))
                send_handle(self.conn, payload.fd, self.process.pid)
            else:
                self.conn.send(message)
        except ConnectionError:
            pass  # the worker is gone: the reader reports its EOF
        loop.add_reader(self.conn.fileno(), self.on_readable, loop, reply)

    def on_readable(self, loop: asyncio.AbstractEventLoop, reply: asyncio.Future) -> None:
        """Reader callback: take one reply off the pipe into ``reply``.

        The only place the front end calls ``recv_bytes()``: the reply
        (or the EOF of a dead worker) is already waiting, so the event
        loop never blocks on a worker that has not answered.  A served
        ``lanes`` request's reply is the :data:`~repro.serve.shard.LANES_DONE`
        token, and its payload the arena's header; any other reply is
        unpickled.
        """
        assert self.conn is not None
        loop.remove_reader(self.conn.fileno())
        try:
            data = self.conn.recv_bytes()
            if data == LANES_DONE:
                assert self.arena is not None
                message: tuple[str, object] = ("ok", self.arena.header)
            else:
                message = pickle.loads(data)
        except (EOFError, OSError) as error:
            reply.set_exception(
                ShardError(f"shard {self.config.shard_id} worker died: {error!r}")
            )
        except Exception as error:  # never leave the caller waiting
            reply.set_exception(
                ShardError(
                    f"shard {self.config.shard_id} sent an unreadable reply: {error!r}"
                )
            )
        else:
            self.resolve(reply, message)

    @staticmethod
    def resolve(reply: asyncio.Future, message: tuple[str, object]) -> None:
        """Settle ``reply`` from a protocol reply: payload or ShardError."""
        op, payload = message
        if op == "error":
            reply.set_exception(ShardError(str(payload)))
        else:
            reply.set_result(payload)

    def close_transport(self) -> None:
        """Close the pipe, reclaim the process, unmap the arena (idempotent)."""
        self.runtime = None
        if self.arena is not None:
            self.arena.close()
            self.arena = None
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=5.0)
            self.process = None


class _Reassembly:
    """One batch's global trace, folded from each shard's reply header.

    Fresh arrays per batch, so the trace built from them
    (:meth:`ShardedLookupService._account`) aliases neither an arena
    nor another batch.
    """

    def __init__(self, service: "ShardedLookupService"):
        n_engines = 1 if service.scheme.shares_engine else service.k
        shape = ReplyShape(n_engines, service.n_stages, service.k)
        self.engines = np.zeros((n_engines, shape.row_words), dtype=np.int64)
        self.vn_shed = np.zeros(service.k, dtype=np.int64)
        self.retries = 0
        self.walk_failures = 0
        # per shard: (admitted lookups, pipeline_ns, queueing_ns), or
        # None for a shard that answered nothing
        self.reports: list[tuple[float, float, float] | None] = [None] * service.n_shards

    def fold(
        self,
        handle: _ShardHandle,
        lanes: np.ndarray,
        header: ReplyHeader,
        results: np.ndarray,
    ) -> None:
        """Scatter one shard's answers and add its header to the batch's."""
        assert handle.arena is not None
        results[lanes] = handle.arena.results[: len(lanes)]
        self.engines[handle.rows] += header.engines
        shed = self.vn_shed[handle.vn_lo : handle.vn_hi]
        shed += header.vn_shed
        n_packets, retries, walk_failures = header.counts.tolist()
        self.retries += retries
        self.walk_failures += walk_failures
        pipeline_ns, queueing_ns, _ = header.floats.tolist()
        admitted = float(n_packets - int(shed.sum()))
        self.reports[handle.config.shard_id] = (admitted, pipeline_ns, queueing_ns)


class ShardedLookupService(TierControl):
    """Asyncio front end over shard worker processes and a shard of its own.

    The async twin of :class:`~repro.serve.service.LookupService`:
    same constructor vocabulary plus sharding knobs, an ``async``
    serve path, and explicit lifecycle (``start``/``stop``, or use it
    as an async context manager).

    Parameters
    ----------
    tables:
        One routing table per virtual network (K = len(tables)).
    scheme:
        Deployment scheme.  NV/VS shards own contiguous VN ranges and
        their per-VN engines; VM gives each shard a merged engine over
        its own VN range.
    n_shards:
        Shards to fan out across (1 ≤ n_shards ≤ K).
    transport:
        ``"process"`` (default) boots one worker process per shard
        but the last, each over a pipe, and serves the last shard in
        the front end's own process, on the event loop, while the
        workers walk theirs: ``n_shards − 1`` workers in all.
        ``"inline"`` hosts every shard runtime in-process — same code
        path minus the pipes, for deterministic tests.
    fault_plan:
        *Global* fault plan; engine-targeted faults are re-scoped to
        each shard's local engines
        (:meth:`~repro.faults.FaultPlan.scoped_to_engines`), while
        device-wide storms reach every shard.
    policy:
        Degradation knobs, passed to every shard's ``LookupService``
        (admission and retries happen inside the shards).
    power_sampler:
        Optional sampler fed the reassembled *global* trace each
        batch, so per-VN/per-shard power attribution matches the
        single-process value on the same workload.
    metrics:
        Enable each shard's private registry (per-shard counters for
        the scrape-merge path).
    Other parameters mirror :class:`~repro.serve.service.LookupService`.
    """

    def __init__(
        self,
        tables: list[RoutingTable],
        scheme: Scheme = Scheme.VM,
        *,
        n_shards: int = 2,
        n_stages: int | None = 28,
        frequency_mhz: float = 200.0,
        offered_load_fraction: float = 0.5,
        fault_plan: FaultPlan | None = None,
        policy: DegradationPolicy | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        power_sampler: "PowerTelemetrySampler | None" = None,
        transport: str = "process",
        metrics: bool = True,
    ):
        if transport not in ("process", "inline"):
            raise ConfigurationError(
                f"transport must be 'process' or 'inline', got {transport!r}"
            )
        super().__init__(
            tables,
            scheme,
            n_stages=n_stages,
            frequency_mhz=frequency_mhz,
            offered_load_fraction=offered_load_fraction,
            fault_plan=fault_plan,
            policy=policy,
            registry=registry,
            tracer=tracer,
            power_sampler=power_sampler,
        )
        self._pending_reconfig: tuple[OperatingPoint, float] | None = None
        # one exchange at a time: every pipe is strict request/reply
        self._lock = asyncio.Lock()
        self._in_flight: list[asyncio.Future] = []
        self.bounds = shard_vn_bounds(self.k, n_shards)
        self._started = False
        self.shards: list[_ShardHandle] = []
        for shard_id in range(n_shards):
            lo, hi = self.bounds[shard_id], self.bounds[shard_id + 1]
            # the front end walks the last shard itself, once serve() has
            # posted every worker its request; start() forks every
            # worker before it builds this shard's engines
            inline = transport == "inline" or shard_id == n_shards - 1
            plan = self._scoped_plan(fault_plan, lo, hi)
            config = ShardConfig(
                shard_id=shard_id,
                vn_base=lo,
                tables=tuple(tables[lo:hi]),
                scheme=scheme,
                n_stages=self.n_stages,
                frequency_mhz=frequency_mhz,
                offered_load_fraction=offered_load_fraction,
                fault_plan=plan,
                policy=self.policy,
                metrics=metrics,
            )
            self.shards.append(_ShardHandle(config, lo, hi, inline=inline))

    def _scoped_plan(
        self, plan: FaultPlan | None, lo: int, hi: int
    ) -> FaultPlan | None:
        """Project the global plan onto one shard's engines.

        NV/VS bind global engine *i* to VN *i*, so the shard sees the
        engines of its VN range rebased to local indices.  VM has one
        merged engine per shard; engine-0 faults (the only valid VM
        target) apply to every shard's merged engine — there is no
        narrower addressable unit in that scheme.
        """
        if plan is None:
            return None
        if self.scheme.shares_engine:
            return plan
        return plan.scoped_to_engines(tuple(range(lo, hi)))

    # -- DVS operating point ----------------------------------------------

    def _on_reclock(self, point: OperatingPoint) -> None:
        """Queue the device-wide rail decision for every shard.

        The broadcast is one exchange at the *start of the next served
        batch*: the pipe protocol is strict request/reply, and a
        decision made while a batch is accounted must never interleave
        with it.
        """
        self._pending_reconfig = (point, self._nominal_load_fraction)

    async def _flush_reconfig(self) -> None:
        """Broadcast a pending operating point to every shard runtime."""
        if self._pending_reconfig is None:
            return
        message = ("reconfig", self._pending_reconfig)
        self._pending_reconfig = None
        await self._exchange([(handle, message) for handle in self.shards])

    # -- capacity ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_engines(self) -> int:
        """Engines across all shards (K for NV/VS, one merged per shard)."""
        return sum(handle.n_engines for handle in self.shards)

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "ShardedLookupService":
        """Boot the shard workers, then build the front end's own shard.

        The workers build their engines on their own, while the front
        end builds its shard's.
        """
        if not self._started:
            for handle in self.shards:
                handle.start_transport(
                    tuple(h.conn for h in self.shards if h.conn is not None)
                )
            self._started = True
        return self

    async def stop(self) -> None:
        """Stop every worker and reclaim it (idempotent)."""
        if not self._started:
            return
        try:
            await self._exchange([(handle, ("stop", None)) for handle in self.shards])
        except ShardError:
            pass  # a dead worker needs no goodbye
        for handle in self.shards:
            handle.close_transport()
        self._started = False

    async def __aenter__(self) -> "ShardedLookupService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @asynccontextmanager
    async def _turn(self) -> AsyncIterator[None]:
        """Hold the pipes and arenas: the lock, once in-flight replies landed.

        A caller cancelled mid-exchange leaves its replies in flight;
        the next turn lets them land (and so lets their workers finish
        writing their arenas) before it stages or sends anything.
        """
        async with self._lock:
            if self._in_flight:
                await asyncio.wait(self._in_flight)
            self._in_flight = []
            yield

    def _post(
        self,
        loop: asyncio.AbstractEventLoop,
        handle: _ShardHandle,
        message: tuple[str, object],
    ) -> asyncio.Future:
        """Send one shard one message; its reply is in flight until it lands."""
        reply = loop.create_future()
        self._in_flight.append(reply)
        handle.post(loop, message, reply)
        return reply

    async def _round(
        self, messages: list[tuple[_ShardHandle, tuple[str, object]]]
    ) -> list[Any]:
        """Send every shard its message, then await every reply.

        Call it inside :meth:`_turn`.  Each message is sent before any
        reply is awaited (:meth:`_ShardHandle.post`).  Returns the
        reply payloads in ``messages`` order.  A dead worker or an
        ``("error", traceback)`` reply raises
        :class:`~repro.errors.ShardError`, but only once every other
        shard has answered, so no reply is left in a pipe.
        """
        loop = asyncio.get_running_loop()
        replies = [self._post(loop, handle, message) for handle, message in messages]
        if replies:
            await asyncio.wait(replies)
        return [reply.result() for reply in replies]

    async def _exchange(
        self, messages: list[tuple[_ShardHandle, tuple[str, object]]]
    ) -> list[Any]:
        """One :meth:`_round` in its own :meth:`_turn`."""
        async with self._turn():
            return await self._round(messages)

    # -- serving ----------------------------------------------------------

    async def serve(
        self, addresses: np.ndarray, vnids: np.ndarray
    ) -> tuple[np.ndarray, ServeTrace]:
        """Answer one batch through the sharded tier.

        Same contract as :meth:`LookupService.serve`, asynchronously:
        next hops in arrival order plus a global-shaped
        :class:`ServeTrace`; lookups shed by shard admission answer
        :data:`~repro.faults.SHED_RESULT`.  A dead worker raises
        :class:`~repro.errors.ShardError`.
        """
        if not self._started:
            raise ShardError("service is not started; use 'async with' or start()")
        addresses, vnids = self._validated(addresses, vnids)
        await self._flush_reconfig()
        start = time.perf_counter()
        batch_index = self.batches_served
        self.batches_served += 1
        # every lane belongs to exactly one shard, which answers it
        results = np.empty(len(addresses), dtype=np.int64)
        folded = _Reassembly(self)
        replies: list[tuple[_ShardHandle, np.ndarray, asyncio.Future]] = []
        async with self._turn():
            loop = asyncio.get_running_loop()
            # the workers first: each has its request before the front
            # end touches its own shard's lanes
            work = [
                (handle, handle.lanes(vnids, self.k))
                for handle in self.shards
                if handle.runtime is None
            ]
            work = [(handle, lanes) for handle, lanes in work if len(lanes)]
            grown = [handle for handle, lanes in work if handle.reserve(len(lanes))]
            if grown:
                await self._round([(handle, ("arena", handle.arena)) for handle in grown])
            for handle, lanes in work:
                n = handle.stage(addresses, vnids, lanes)
                replies.append(
                    (handle, lanes, self._post(loop, handle, ("lanes", (batch_index, n))))
                )
            # then the front end's own shard, walked on the loop and
            # folded at once, while the workers walk theirs
            for handle in self.shards:
                if handle.runtime is None:
                    continue
                lanes = handle.lanes(vnids, self.k)
                if not len(lanes):
                    continue
                if handle.reserve(len(lanes)):
                    # the runtime attaches the arena made from its own
                    # config's reply shape on the spot
                    handle.runtime.handle(("arena", handle.arena))
                n = handle.stage(addresses, vnids, lanes)
                reply = self._post(loop, handle, ("lanes", (batch_index, n)))
                if reply.exception() is None:
                    folded.fold(handle, lanes, reply.result(), results)
                replies.append((handle, lanes, reply))
            if replies:
                await asyncio.wait([reply for _, _, reply in replies])
            # errors in shard order (the workers are shards 0 … n − 2),
            # once every shard has answered
            for handle, lanes, reply in replies:
                header = reply.result()
                if handle.runtime is None:
                    folded.fold(handle, lanes, header, results)
        trace = self._account(folded, vnids, batch_index, start)
        self._publish(trace, batch_index)
        return results, trace

    async def lookup_batch(
        self, addresses: np.ndarray, vnids: np.ndarray
    ) -> np.ndarray:
        """Results-only convenience wrapper around :meth:`serve`."""
        results, _ = await self.serve(addresses, vnids)
        return results

    # -- accounting -------------------------------------------------------

    def _account(
        self, folded: "_Reassembly", vnids: np.ndarray, batch_index: int, start: float
    ) -> ServeTrace:
        """Build the global-shaped ServeTrace from the folded shard replies.

        NV/VS: engine *i*'s row is VN *i*'s, written by the shard that
        owns it (a shard that answered nothing leaves its rows empty),
        and VN *i*'s admitted count is engine *i*'s ``n_packets``.  VM:
        the shards' merged-engine rows sum into the single global
        engine — the global topology has one engine, and the power
        model attributes by lookup share, which summing preserves — and
        the admitted counts are a ``bincount`` of the VNIDs less the
        shed.  The latency is the admitted-load-weighted mean of the
        shards' reports, and the fault labels are each answering
        shard's scoped plan's at ``batch_index``, the labels the shard
        itself served under.
        """
        engine_traces, failed_engines = decode_engines(folded.engines, self.n_stages)
        if self.scheme.shares_engine:
            offered = np.bincount(vnids, minlength=self.k)
            vn_counts = tuple((offered - folded.vn_shed).tolist())
        else:
            vn_counts = tuple(trace.n_packets for trace in engine_traces)
        served = [
            (handle, report)
            for handle, report in zip(self.shards, folded.reports)
            if report is not None
        ]
        total = sum(weight for _, (weight, _, _) in served)
        pipeline = queueing = 0.0
        if total:
            pipeline = sum(w * p for _, (w, p, _) in served) / total
            queueing = sum(w * q for _, (w, _, q) in served) / total
        fault_labels: list[str] = []
        for handle, _ in served:
            plan = handle.config.fault_plan
            if plan is not None:
                fault_labels.extend(plan.context_at(batch_index).labels())
        return ServeTrace(
            scheme=self.scheme,
            n_packets=len(vnids),
            engine_traces=engine_traces,
            latency=LatencyReport(
                scheme_label=str(self.scheme),
                frequency_mhz=self.frequency_mhz,
                pipeline_ns=pipeline,
                queueing_ns=queueing,
            ),
            elapsed_s=time.perf_counter() - start,
            vn_counts=vn_counts,
            vn_shed=tuple(folded.vn_shed.tolist()),
            retries=folded.retries,
            walk_failures=folded.walk_failures,
            failed_engines=failed_engines,
            fault_labels=tuple(dict.fromkeys(fault_labels)),
        )

    # -- metrics ----------------------------------------------------------

    def _publish(self, trace: ServeTrace, batch_index: int) -> None:
        """Frontend-side metrics, span and power for one served batch."""
        metrics_on = self._registry.enabled
        tracing_on = self._tracer.enabled
        if not metrics_on and not tracing_on:
            return
        with self._tracer.span(
            "frontend.batch",
            scheme=self.scheme.name,
            n_packets=trace.n_packets,
            n_shards=self.n_shards,
        ) as span:
            span.set("n_shed", trace.n_shed)
            span.set("elapsed_s", trace.elapsed_s)
            if not metrics_on:
                return
            scheme = self.scheme.name
            self._registry.counter(
                "repro_frontend_batches_total",
                "Batches served through the sharded frontend",
                labels=("scheme",),
            ).labels(scheme).inc()
            self._registry.counter(
                "repro_frontend_lookups_total",
                "Lookups admitted through the sharded frontend",
                labels=("scheme",),
            ).labels(scheme).inc(trace.n_admitted)
            if trace.n_shed:
                shed = self._registry.counter(
                    "repro_frontend_shed_lookups_total",
                    "Lookups shed by shard admission",
                    labels=("scheme", "vn"),
                )
                for vn, count in enumerate(trace.vn_shed):
                    if count:
                        shed.labels(scheme, vn).inc(count)
            write_rate = None
            if self.fault_plan is not None:
                write_rate = self.fault_plan.context_at(batch_index).write_rate
            sample = self._publish_tail(trace, span, write_rate)
            if sample is not None:
                watts = self._registry.gauge(
                    "repro_shard_power_watts",
                    "Power attributed to each shard's virtual networks",
                    labels=("scheme", "shard"),
                )
                for handle in self.shards:
                    shard_w = float(
                        sum(sample.per_vn_w[handle.vn_lo : handle.vn_hi])
                    )
                    watts.labels(scheme, handle.config.shard_id).set(shard_w)

    # -- scrape-merge -----------------------------------------------------

    async def scrape(self) -> list[RegistrySnapshot]:
        """Collect every shard's shard-labeled registry snapshot.

        A scrape is one exchange like a batch (the pipe is strict
        request/reply), so it never interleaves with an in-flight
        batch; the frontend's own registry joins the list labeled
        ``shard="frontend"``.
        """
        if not self._started:
            raise ShardError("service is not started; use 'async with' or start()")
        snapshots = await self._exchange(
            [(handle, ("metrics", None)) for handle in self.shards]
        )
        snapshots.append(snapshot_registry(self._registry, shard="frontend"))
        return snapshots

    async def merged_snapshot(self) -> RegistrySnapshot:
        """One merged multi-shard snapshot (see :func:`merge_snapshots`)."""
        return merge_snapshots(await self.scrape())

    # -- verification -----------------------------------------------------

    async def verify(
        self, addresses: np.ndarray, vnids: np.ndarray
    ) -> bool:
        """Cross-check a nominal batch against per-VN linear-scan oracles.

        Serves the batch through the tier, then checks every answered
        lookup against its VN's linear-scan oracle (shed lookups are
        excluded — a faulted tier can still verify its admitted
        traffic).
        """
        results, _ = await self.serve(addresses, vnids)
        addresses, vnids = validate_batch(addresses, vnids, self.k)
        return self._matches_oracle(addresses, vnids, results)
