"""Batched data-plane serving layer.

Two front ends over one stage pipeline (:mod:`repro.serve.stages`:
validate → admit → partition → walk → scatter → account):

* :class:`LookupService` — the synchronous library call: admits
  ``(addresses, vnids)`` batches and routes them through the
  deployment scheme's engines (distributor → per-VN pipelines for
  NV/VS, the merged engine for VM) in-process.
* :class:`ShardedLookupService` — the service tier: one
  ``LookupService`` per shared-nothing shard worker process
  (:mod:`repro.serve.shard`) behind an asyncio front end that adds
  only fan-out, reassembly and shard-labeled metric scrape-merge.  See ``docs/SERVING.md``.

Every serve returns the results plus a :class:`ServeTrace` carrying
per-stage activity and a queueing-latency estimate, so throughput,
latency and the power models' duty-cycle inputs flow from one call.
Both tiers are measured from outside by the serving benchmark
(``perfbench/``), and ``tools/perf_ab.py`` gates a change against its
base commit on the same host; see ``docs/SERVING.md``.

While the observability layer is enabled (:func:`repro.obs.enable`)
the serve path also publishes per-batch metrics, spans and — with a
:class:`repro.obs.power.PowerTelemetrySampler` attached — live power
telemetry; see ``docs/OBSERVABILITY.md``.
"""

from repro.serve.frontend import ShardedLookupService, shard_vn_bounds
from repro.serve.service import LookupService, ServeTrace
from repro.serve.shard import (
    ShardBatchRequest,
    ShardBatchResult,
    ShardConfig,
    ShardRuntime,
    shard_worker,
)

__all__ = [
    "LookupService",
    "ServeTrace",
    "ShardedLookupService",
    "shard_vn_bounds",
    "ShardConfig",
    "ShardBatchRequest",
    "ShardBatchResult",
    "ShardRuntime",
    "shard_worker",
]
