"""Shard worker: one engine group serving its slice of the VNs.

One shard owns a **contiguous range of virtual networks** and hosts a
complete, shared-nothing :class:`~repro.serve.service.LookupService`
over just those tables — the same stage pipeline as the library call
(:mod:`repro.serve.stages`), built from its own frozen engines, its
own scoped :class:`~repro.faults.FaultPlan`, and its own
process-local :class:`~repro.obs.registry.MetricsRegistry`.  The
frontend (:mod:`repro.serve.frontend`) partitions each batch by VNID
and ships every shard its contiguous sub-batch over a
:func:`multiprocessing.Pipe`; shard-local VNIDs are the global ones
rebased to the shard's range.

The worker protocol is a strict request/reply alternation per pipe
(the frontend holds one lock per service across each exchange, which
sends every shard its request before it awaits the replies):

========================  =============================================
request                   reply
========================  =============================================
``("serve", payload)``    ``("ok", ShardBatchResult)``
``("metrics", None)``     ``("ok", RegistrySnapshot)`` (shard-labeled)
``("reconfig", payload)`` ``("ok", None)``; payload is
                          ``(OperatingPoint, nominal_load_fraction)``
``("stop", None)``        ``("bye", None)`` then the worker exits
any, on failure           ``("error", formatted traceback)``
========================  =============================================

Everything crossing the pipe is a plain picklable value object —
the lint pack's CONC003 rule checks the worker entry point's defaults
stay picklable.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.policy import DegradationPolicy
from repro.iplookup.rib import RoutingTable
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import RegistrySnapshot, snapshot_registry
from repro.obs.tracing import Tracer
from repro.serve.service import LookupService, ServeTrace
from repro.virt.schemes import Scheme

__all__ = [
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

    ``queue_seed`` is a per-(shard, batch) seed the frontend derives
    (``batch_index × n_shards + shard_id``).  The shard ignores it; it
    stays because the serving benchmark builds requests with it and
    seeds its own M/D/1 timing section from it.
    """

    batch_index: int
    addresses: np.ndarray
    vnids: np.ndarray
    queue_seed: int


@dataclass(frozen=True)
class ShardBatchResult:
    """One shard's answer: results and trace."""

    shard_id: int
    results: np.ndarray
    trace: ServeTrace


class ShardRuntime:
    """The shard's in-process engine: build once, answer sub-batches.

    Hosts the full :class:`LookupService` composition over the shard's
    tables with a private registry (so per-shard counters merge
    losslessly under the ``shard`` label) and a disabled tracer (span
    streams don't cross processes; the frontend owns tracing).  Also
    usable in-process via the frontend's ``inline`` transport, which
    is how the unit suite exercises the tier deterministically.
    """

    def __init__(self, config: ShardConfig):
        self.config = config
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

    def snapshot(self) -> RegistrySnapshot:
        """Shard-labeled snapshot of the private registry."""
        return snapshot_registry(self.registry, shard=self.config.shard_id)

    def handle(self, message: tuple[str, object]) -> tuple[str, object]:
        """Dispatch one protocol message (shared by pipe and inline paths)."""
        op, payload = message
        try:
            if op == "serve":
                assert isinstance(payload, ShardBatchRequest)
                return ("ok", self.serve(payload))
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


def shard_worker(conn: Connection, config: ShardConfig) -> None:
    """Worker-process entry point: serve the pipe until told to stop.

    Builds the runtime (freezing the shard's engines once), then
    answers the strict request/reply protocol documented in the
    module docstring.  Any per-request failure is returned as an
    ``("error", traceback)`` reply — the worker itself stays up, so
    one poisoned batch cannot take a shard's tables with it.
    """
    runtime = ShardRuntime(config)
    try:
        while True:
            message = conn.recv()
            reply = runtime.handle(message)
            conn.send(reply)
            if reply[0] == "bye":
                break
    except (EOFError, KeyboardInterrupt):
        pass  # frontend went away; exit quietly
    finally:
        conn.close()
