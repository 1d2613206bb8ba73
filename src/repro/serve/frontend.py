"""Sharded asyncio serving tier: fan-out and reassembly.

This is the "millions of users" face of the serving stack.  The serve
core is :class:`~repro.serve.service.LookupService`, hosted once per
**shard worker process** (:mod:`repro.serve.shard`); this front end
only splits each batch across the shards and puts it back together.
The control plane (operating point, offered load, capacity, the
publish tail, the oracle check) is the same
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
3. **exchange** — every shard is sent ``(batch_index, n)`` before any
   reply is awaited, and each reply, the shard's trace, is read by an
   event-loop reader on its pipe, so the shards walk concurrently,
   each in its own process, and the loop never blocks on a worker.
   One lock per service keeps each pipe strictly request/reply and
   each arena to one batch: staging, the exchange and reading the
   answers back all happen under it;
4. **admit and walk** — each shard's ``LookupService`` admits per
   engine under its scoped fault plan
   (:func:`repro.serve.stages.plan_admission`, exactly the
   single-process policy), walks the arena's lanes and writes the
   answers into the arena.  The front end makes no admission decision
   of its own;
5. **scatter / account** — the answers scatter from each arena back to
   arrival order through the same lane indices, and the shard traces
   reassemble into one *global-shaped*
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
the process registry.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
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
from repro.iplookup.pipeline import PipelineTrace, trace_from_walk
from repro.iplookup.rib import RoutingTable
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import RegistrySnapshot, merge_snapshots, snapshot_registry
from repro.obs.tracing import Tracer
from repro.serve.service import ServeTrace, TierControl
from repro.serve.shard import LaneArena, ShardConfig, ShardRuntime, shard_worker
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
    """One shard's frontend-side state: config, transport and lane arena."""

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

    def start_transport(self, front_ends: tuple[Connection, ...] = ()) -> None:
        """Boot the worker (process transport) or build it inline.

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

    def lanes(self, vnids: np.ndarray) -> np.ndarray:
        """Indices of the batch's lanes in this shard's VN range, in arrival order."""
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
        self.arena = LaneArena.create(n, f"repro-lanes-{self.config.shard_id}")
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
        the pipe, the arena crosses as ``("arena", None)`` followed by
        its descriptor, and a reader on the pipe (:meth:`on_readable`)
        takes the reply off it once it has arrived.
        """
        if self.runtime is not None:
            self.resolve(reply, self.runtime.handle(message))
            return
        assert self.conn is not None and self.process is not None, "started"
        op, payload = message
        try:
            if isinstance(payload, LaneArena):
                self.conn.send((op, None))
                send_handle(self.conn, payload.fd, self.process.pid)
            else:
                self.conn.send(message)
        except ConnectionError:
            pass  # the worker is gone: the reader reports its EOF
        loop.add_reader(self.conn.fileno(), self.on_readable, loop, reply)

    def on_readable(self, loop: asyncio.AbstractEventLoop, reply: asyncio.Future) -> None:
        """Reader callback: take one reply off the pipe into ``reply``.

        The only place the front end calls ``recv()``: the reply (or
        the EOF of a dead worker) is already waiting, so the event
        loop never blocks on a worker that has not answered.
        """
        assert self.conn is not None
        loop.remove_reader(self.conn.fileno())
        try:
            message = self.conn.recv()
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


class ShardedLookupService(TierControl):
    """Asyncio front end over shard worker processes.

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
        Worker processes to fan out across (1 ≤ n_shards ≤ K).
    transport:
        ``"process"`` (default) boots one worker process per shard
        over a pipe; ``"inline"`` hosts the shard runtimes in-process
        — same code path minus the pipe, for deterministic tests.
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
            self.shards.append(
                _ShardHandle(config, lo, hi, inline=transport == "inline")
            )

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
        """Boot the shard workers (they build their engines on their own)."""
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
            yield

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
        replies: list[asyncio.Future] = []
        self._in_flight = replies
        for handle, message in messages:
            reply = loop.create_future()
            replies.append(reply)
            handle.post(loop, message, reply)
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
        work = [(handle, handle.lanes(vnids)) for handle in self.shards]
        work = [(handle, lanes) for handle, lanes in work if len(lanes)]
        # every lane belongs to exactly one shard, which answers it
        results = np.empty(len(addresses), dtype=np.int64)
        traces: dict[int, ServeTrace] = {}
        async with self._turn():
            grown = [handle for handle, lanes in work if handle.reserve(len(lanes))]
            if grown:
                await self._round([(handle, ("arena", handle.arena)) for handle in grown])
            replies = await self._round(
                [
                    (handle, ("lanes", (batch_index, handle.stage(addresses, vnids, lanes))))
                    for handle, lanes in work
                ]
            )
            for (handle, lanes), reply in zip(work, replies):
                assert isinstance(reply, ServeTrace) and handle.arena is not None
                traces[handle.config.shard_id] = reply
                results[lanes] = handle.arena.results[: len(lanes)]
        trace = self._account(traces, vnids, start)
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
        self, traces: dict[int, ServeTrace], vnids: np.ndarray, start: float
    ) -> ServeTrace:
        """Reassemble shard traces into one global-shaped ServeTrace.

        NV/VS: per-VN engine traces concatenate in global VN order (a
        shard that answered nothing contributes empty traces), and VN
        *i*'s admitted count is engine *i*'s ``n_packets``.  VM: the
        shards' merged-engine traces fold into a single engine trace —
        the global topology has one engine, and the power model
        attributes by lookup share, which summing preserves — and the
        admitted counts are a ``bincount`` of the VNIDs less the shed.
        """
        empty = np.array([], dtype=np.int64)
        engine_traces: list[PipelineTrace] = []
        vn_shed = np.zeros(self.k, dtype=np.int64)
        retries = 0
        walk_failures = 0
        failed_engines: list[int] = []
        fault_labels: list[str] = []
        weights: list[float] = []
        reports: list[LatencyReport] = []
        for handle in self.shards:
            shard_trace = traces.get(handle.config.shard_id)
            if shard_trace is None:
                if not self.scheme.shares_engine:
                    engine_traces.extend(
                        trace_from_walk(empty, empty, self.n_stages)
                        for _ in range(handle.k_local)
                    )
                continue
            # the shard's own admission and walk shedding, rebased to
            # global VNs (empty on a nominal batch)
            if shard_trace.vn_shed:
                vn_shed[handle.vn_lo : handle.vn_hi] += shard_trace.vn_shed
            retries += shard_trace.retries
            walk_failures += shard_trace.walk_failures
            fault_labels.extend(shard_trace.fault_labels)
            weights.append(float(shard_trace.n_admitted))
            reports.append(shard_trace.latency)
            if self.scheme.shares_engine:
                failed_engines.extend(0 for _ in shard_trace.failed_engines)
            else:
                failed_engines.extend(
                    handle.vn_lo + e for e in shard_trace.failed_engines
                )
                engine_traces.extend(shard_trace.engine_traces)
        if self.scheme.shares_engine:
            merged = [t for shard_trace in traces.values() for t in shard_trace.engine_traces]
            engine_traces = [self._merge_engine_traces(merged)]
            offered = np.bincount(vnids, minlength=self.k)
            vn_counts = tuple(int(c) for c in offered - vn_shed)
        else:
            vn_counts = tuple(t.n_packets for t in engine_traces)
        latency = self._blend_latency(reports, weights)
        return ServeTrace(
            scheme=self.scheme,
            n_packets=len(vnids),
            engine_traces=tuple(engine_traces),
            latency=latency,
            elapsed_s=time.perf_counter() - start,
            vn_counts=vn_counts,
            vn_shed=tuple(int(c) for c in vn_shed),
            retries=retries,
            walk_failures=walk_failures,
            failed_engines=tuple(sorted(set(failed_engines))),
            fault_labels=tuple(dict.fromkeys(fault_labels)),
        )

    def _merge_engine_traces(
        self, traces: list[PipelineTrace]
    ) -> PipelineTrace:
        """Fold shard merged-engine traces into the global single engine."""
        if not traces:
            empty = np.array([], dtype=np.int64)
            return trace_from_walk(empty, empty, self.n_stages)
        return PipelineTrace(
            total_cycles=int(sum(t.total_cycles for t in traces)),
            accesses_per_stage=np.sum(
                [t.accesses_per_stage for t in traces], axis=0
            ),
            busy_cycles_per_stage=np.sum(
                [t.busy_cycles_per_stage for t in traces], axis=0
            ),
            n_packets=int(sum(t.n_packets for t in traces)),
        )

    def _blend_latency(
        self, reports: list[LatencyReport], weights: list[float]
    ) -> LatencyReport:
        """Admitted-load-weighted mean of the shard latency reports."""
        total = sum(weights)
        if not reports or total == 0:
            return LatencyReport(
                scheme_label=str(self.scheme),
                frequency_mhz=self.frequency_mhz,
                pipeline_ns=0.0,
                queueing_ns=0.0,
            )
        pipeline = sum(w * r.pipeline_ns for w, r in zip(weights, reports)) / total
        queueing = sum(w * r.queueing_ns for w, r in zip(weights, reports)) / total
        return LatencyReport(
            scheme_label=str(self.scheme),
            frequency_mhz=self.frequency_mhz,
            pipeline_ns=pipeline,
            queueing_ns=queueing,
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
