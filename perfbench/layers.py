"""The traced run: each workload's batch time broken down by layer.

The traced run replays the workload's seeded batches through the
public layer functions (``validate_batch``, ``Distributor.partition``,
``UnibitTrie.walk_batch``, ``ShardRuntime.serve`` ...) composed the way
the serve path composes them, with a span around every call; the
tier's own ``serve()`` is never patched, and the composed results must
equal ``serve()``'s on every batch.  Each batch runs back to back
through ``serve()``, the composition with spans and the composition
without, so the per-batch differences give the tracing overhead and
the part of ``serve()`` the composition does not cover.  Layers that
are not on a workload's path are still measured on its tables and
batches, in side sections, so every per-layer metric is a measurement
in every traced run; the per-layer table marks which layers were on
the path.

Spans are recorded by :class:`SpanRecorder` (name, start, end,
parent, batch) in memory and written out at the end.  A span's self
time is its duration minus the time its child spans cover; every
duration is scaled by the reference probe taken around its batch, as
the untraced run scales its batches.
"""

from __future__ import annotations

import itertools
import json
import operator
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Iterator

import numpy as np

from perfbench.probe import scale, setup_probe
from perfbench.workloads import (
    FIXTURE,
    Inputs,
    WorkloadSpec,
    build_sharded,
    build_sync,
    count_mismatches,
    first_pass,
    gate,
    host_metadata,
    make_inputs,
    make_sampler,
)
from repro.faults.policy import SHED_RESULT
from repro.iplookup.mrt import load_dataset
from repro.iplookup.pipeline import trace_from_walk
from repro.iplookup.trie import UnibitTrie
from repro.obs.power import PowerTelemetrySampler
from repro.serve.frontend import shard_vn_bounds
from repro.serve.shard import ShardBatchRequest, ShardConfig, ShardRuntime
from repro.serve.stages import ServeTrace, validate_batch
from repro.virt.distributor import Distributor
from repro.virt.merged import MergedTrie, merge_tries
from repro.virt.queueing import simulate_md1_waits

#: arrivals an instrumented ``LookupService`` simulates per batch
#: (``repro.serve.service``); a shard also simulates its whole sub-batch
MD1_ARRIVALS = 4096
#: batches each side section replays (cycling the pool)
SIDE_BATCHES = 32


# -- span recording --------------------------------------------------------------


@dataclass
class SpanRecorder:
    """In-memory spans: name, start, end, parent, batch, section, attributes."""

    enabled = True
    spans: list[dict] = field(default_factory=list)
    #: probe scale of each batch key (nominal / probe around the batch)
    scales: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, batch: str, section: str, **attrs: object) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "batch": batch,
            "section": section,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, span: dict) -> float:
        """Normalized duration of one span, seconds."""
        return (span["end"] - span["start"]) * self.scales.get(span["batch"], 1.0)

    def self_times(self) -> list[float]:
        """Normalized self time of every span (duration minus covered child time)."""
        children: dict[int, list[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        out = []
        for span in self.spans:
            covered = _covered(
                [(c["start"], c["end"]) for c in children[span["id"]]], span["start"], span["end"]
            )
            out.append((span["end"] - span["start"] - covered) * self.scales.get(span["batch"], 1.0))
        return out

    def write_jsonl(self, path: Path) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _NullSpan:
    """Context manager of the untraced replay: records nothing."""

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc: object) -> None:
        return None


class _NullRecorder:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, batch: str, section: str, **attrs: object) -> _NullSpan:
        return self._span


#: stands in for a :class:`SpanRecorder` when the same calls run untraced
NULL_RECORDER = _NullRecorder()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# -- composed serve paths ------------------------------------------------------------


def compose_walk(
    rec: SpanRecorder,
    key: str,
    section: str,
    *,
    tries: list[UnibitTrie] | None,
    merged: MergedTrie | None,
    distributor: Distributor,
    n_stages: int,
    admission_rate: float,
    addresses: np.ndarray,
    vnids: np.ndarray,
    depth_caps: list[int],
) -> tuple[np.ndarray, tuple]:
    """``stages.walk_nominal`` composed call by call (VM if ``merged`` is given)."""
    if merged is not None:
        with rec.span("merged.walk", key, section, n=len(addresses)) as span:
            depths, results = merged.walk_batch(addresses, vnids)
        if rec.enabled:
            span.update(depth_sum=int(depths.sum()), depth_cap=len(depths) * depth_caps[0])
        with rec.span("pipeline.trace", key, section):
            traces = (trace_from_walk(depths, results, n_stages, admission_rate=admission_rate),)
        return results, traces
    assert tries is not None
    with rec.span("distributor.partition", key, section):
        part = distributor.partition(vnids)
    with rec.span("distributor.gather", key, section):
        sorted_addresses = part.gather(addresses)
    sorted_results = np.empty(len(addresses), dtype=np.int64)
    traces = []
    for vn, trie in enumerate(tries):
        sl = part.engine_slice(vn)
        with rec.span("trie.walk", key, section, n=sl.stop - sl.start) as span:
            depths, engine_results = trie.walk_batch(sorted_addresses[sl])
        if rec.enabled:
            span.update(depth_sum=int(depths.sum()), depth_cap=len(depths) * depth_caps[vn])
        sorted_results[sl] = engine_results
        with rec.span("pipeline.trace", key, section):
            traces.append(
                trace_from_walk(depths, engine_results, n_stages, admission_rate=admission_rate)
            )
    with rec.span("distributor.scatter", key, section):
        results = part.scatter(sorted_results)
    return results, tuple(traces)


def compose_account(
    rec: SpanRecorder,
    key: str,
    section: str,
    *,
    sampler: PowerTelemetrySampler,
    template: ServeTrace,
    traces: tuple,
    vnids: np.ndarray,
    k: int,
    rho: float,
    frequency_mhz: float,
    seed: int,
) -> None:
    """The instrumented account stage: queue simulation and power sampling."""
    n = len(vnids)
    with rec.span("queueing.md1_sim", key, section, arrivals=max(1, min(n, MD1_ARRIVALS))):
        simulate_md1_waits(rho, frequency_mhz, max(1, min(n, MD1_ARRIVALS)), seed=seed)
    trace = ServeTrace(
        scheme=template.scheme,
        n_packets=n,
        engine_traces=traces,
        latency=template.latency,
        elapsed_s=template.elapsed_s,
        vn_counts=tuple(int(c) for c in np.bincount(vnids, minlength=k)),
    )
    with rec.span("power.observe", key, section):
        sampler.observe(trace, duty_cycle=trace.mean_duty_cycle())


@dataclass
class ShardReplay:
    """Inline shard runtimes plus the frontend state a replay needs."""

    k: int
    bounds: tuple[int, ...]
    runtimes: list[ShardRuntime]
    distributor: Distributor
    #: ``depth()`` of each runtime's walked tries, for the useful-level share
    depth_caps: list[list[int]]


def shard_replay(spec: WorkloadSpec, inputs: Inputs, n_stages: int) -> ShardReplay:
    """Inline runtimes for the workload's tables, split as the frontend splits them."""
    bounds = shard_vn_bounds(spec.k, spec.n_shards or 2)
    runtimes = [
        ShardRuntime(
            ShardConfig(
                shard_id=s,
                vn_base=bounds[s],
                tables=tuple(inputs.tables[bounds[s] : bounds[s + 1]]),
                scheme=spec.scheme,
                n_stages=n_stages,
            )
        )
        for s in range(len(bounds) - 1)
    ]
    caps = [_depth_caps(r.service.group.tries, r.service.group.merged) for r in runtimes]
    return ShardReplay(spec.k, bounds, runtimes, Distributor(k=spec.k), caps)


def _depth_caps(tries: list[UnibitTrie], merged: MergedTrie | None) -> list[int]:
    """``depth()`` of each trie a walk runs over: the merged one, else each VN's."""
    if merged is not None:
        return [merged.structure.depth()]
    return [trie.depth() for trie in tries]


def compose_sharded(
    rec: SpanRecorder,
    key: str,
    section: str,
    replay: ShardReplay,
    addresses: np.ndarray,
    vnids: np.ndarray,
    batch_index: int,
    *,
    walk_nominal: bool,
) -> tuple[np.ndarray, int]:
    """``ShardedLookupService.serve`` at nominal load, composed call by call.

    The pipe is replaced by a pickle round trip of exactly the
    messages the process transport sends.  With ``walk_nominal`` the
    shard's walk is also replayed, stage by stage, on the same
    sub-batch under its own root span (the work inside the shard).
    Returns the results and the lookups whose replayed shard walk
    disagreed with ``ShardRuntime.serve``.
    """
    n_shards = len(replay.runtimes)
    results = np.full(len(addresses), SHED_RESULT, dtype=np.int64)
    with rec.span("batch", key, section, n=len(addresses)):
        with rec.span("stages.validate", key, section):
            addresses, vnids = validate_batch(addresses, vnids, replay.k)
        with rec.span("distributor.partition", key, section):
            part = replay.distributor.partition(vnids)
        with rec.span("distributor.gather", key, section):
            sorted_addresses = part.gather(addresses)
            sorted_vnids = part.gather(vnids)
        sub_batches = []
        for s, runtime in enumerate(replay.runtimes):
            lo, hi = replay.bounds[s], replay.bounds[s + 1]
            sl = slice(int(part.offsets[lo]), int(part.offsets[hi]))
            request = ShardBatchRequest(
                batch_index=batch_index,
                addresses=sorted_addresses[sl],
                vnids=sorted_vnids[sl] - lo,
                queue_seed=batch_index * n_shards + s,
            )
            with rec.span("transport.pickle", key, section) as span:
                blob = bytes(ForkingPickler.dumps(("serve", request)))
                ForkingPickler.loads(blob)
            span["bytes"] = len(blob)
            with rec.span("shard.runtime_serve", key, section, n=sl.stop - sl.start):
                outcome = runtime.serve(request)
            with rec.span("transport.pickle", key, section) as span:
                blob = bytes(ForkingPickler.dumps(("ok", outcome)))
                ForkingPickler.loads(blob)
            span["bytes"] = len(blob)
            with rec.span("distributor.scatter", key, section):
                results[part.order[sl]] = outcome.results
            sub_batches.append((runtime, request, outcome))
    walk_mismatches = 0
    if walk_nominal:
        for (runtime, request, outcome), caps in zip(sub_batches, replay.depth_caps):
            walk_mismatches += _replay_shard_walk(rec, key, section, runtime, request, outcome, caps)
    return results, walk_mismatches


def _replay_shard_walk(rec, key, section, runtime, request, outcome, caps) -> int:
    """The work inside one shard, replayed on its sub-batch; returns the
    lookups whose replayed answer differs from ``ShardRuntime.serve``'s."""
    service = runtime.service
    group = service.group
    with rec.span("stages.walk_nominal", key, section, n=len(request.addresses)):
        results, _ = compose_walk(
            rec,
            key,
            section,
            tries=group.tries,
            merged=group.merged,
            distributor=group.distributor,
            n_stages=group.n_stages,
            admission_rate=service.offered_load_fraction or 1.0,
            addresses=request.addresses,
            vnids=request.vnids,
            depth_caps=caps,
        )
    for arrivals in (max(1, min(len(request.addresses), MD1_ARRIVALS)), len(request.addresses)):
        with rec.span("queueing.md1_sim", key, section, arrivals=arrivals):
            simulate_md1_waits(
                service.offered_load_fraction, service.frequency_mhz, arrivals, request.queue_seed
            )
    return count_mismatches(results, outcome.results)


# -- the traced run -----------------------------------------------------------------------


@contextmanager
def _bracketed(rec: SpanRecorder, key: str) -> Iterator[None]:
    """Scale everything recorded under ``key`` as ``setup_s`` is scaled."""
    probe = setup_probe()
    before = probe.time_min()
    yield
    after = probe.time_min()
    rec.scales[key] = scale(probe.nominal_s, (before + after) / 2.0)


def _n_stages(spec: WorkloadSpec, inputs: Inputs) -> int:
    if spec.fixture:
        return max(max(t.max_length() for t in inputs.tables), 1)
    return 28


def run_traced(spec: WorkloadSpec, seed: int, seconds: float, root: Path, out_dir: Path) -> dict:
    """One traced run; returns the run record with the per-layer metrics."""
    probe = spec.probe()
    rec = SpanRecorder()
    inputs = make_inputs(spec, seed, root)
    n_stages = _n_stages(spec, inputs)

    # -- build layers, each timed once, cold, in a fresh interpreter
    with _bracketed(rec, "build"):
        with rec.span("mrt.ingest", "build", "build"):
            load_dataset(str(root / FIXTURE))
        with rec.span("trie.build_freeze", "build", "build"):
            tries = [UnibitTrie(t) for t in inputs.tables]
            for trie in tries:
                trie.freeze()
        with rec.span("merged.merge", "build", "build"):
            merged = merge_tries(tries)
        with rec.span("power.sampler_build", "build", "build"):
            PowerTelemetrySampler(
                spec.scheme,
                spec.k,
                alpha=merged.pairwise_alpha if spec.scheme.shares_engine else None,
            )
        with rec.span("shard.ready", "build", "build"):
            process_tier = build_sharded(spec, inputs.tables, "process")
    with ExitStack() as stack:
        stack.callback(process_tier.close)
        inline_tier = build_sharded(spec, inputs.tables, "inline")
        stack.callback(inline_tier.close)
        if spec.n_shards:
            tier = process_tier
            sync = build_sync(spec, inputs.tables, instrumented=False)
        else:
            tier = sync = build_sync(spec, inputs.tables, instrumented=spec.instrumented)
        replay = shard_replay(spec, inputs, n_stages)

        # -- the workload's own path: serve() and its composition, interleaved
        answers, traces = first_pass(tier, inputs)
        replayed = _replay_path(
            rec, spec, inputs, answers, traces, tier, sync, replay, probe, seconds
        )
        side_mismatches = _side_sections(
            rec, spec, inputs, answers, traces, tries, merged, sync, replay,
            process_tier, inline_tier, probe, n_stages,
        )
    reference = sync.service.lookup_batch if spec.n_shards else None
    oracle_mismatches = sum(gate(inputs, answers, reference)) + replayed.inconsistent
    composed_mismatches = replayed.composed_mismatches + side_mismatches

    metrics, table = per_layer_metrics(rec, spec)
    attempted = replayed.attempted
    failed = min(replayed.shed + composed_mismatches + oracle_mismatches, attempted)
    metrics["serve.lookups_attempted"] = (float(attempted), "count")
    metrics["serve.lookups_answered"] = (float(attempted - failed), "count")
    metrics["serve.oracle_mismatches"] = (float(oracle_mismatches), "count")

    out_dir.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{seed}"
    rec.write_jsonl(out_dir / f"{stem}-spans.jsonl")
    (out_dir / f"{stem}-layers.md").write_text(table)
    return {
        "workload": spec.name,
        "correct": oracle_mismatches == 0 and composed_mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "context": {
            "host": host_metadata(seed),
            "composed_mismatches": composed_mismatches,
            "oracle_mismatches": oracle_mismatches,
            "batches": replayed.batches,
            "spans": len(rec.spans),
            "probe_nominal_ms": probe.nominal_s * 1e3,
        },
    }


@dataclass
class Replayed:
    """Counts from the interleaved replay of the workload's path."""

    batches: int = 0
    attempted: int = 0
    shed: int = 0
    #: serve() answers that differ from the first pass over the same batch
    inconsistent: int = 0
    #: composed answers that differ from serve()'s
    composed_mismatches: int = 0


def _replay_path(rec, spec, inputs, answers, traces, tier, sync, replay, probe, seconds):
    """Serve and replay the workload's own path for ``seconds``.

    Every batch goes through the tier's ``serve()``, through the
    composition with spans, and through the same composition without
    spans, in rotating order, all scaled by the probes around them; the
    per-batch differences give the tracing overhead and the part of
    ``serve()`` the composition does not cover.
    """
    service = sync.service
    group = service.group
    caps = _depth_caps(group.tries, group.merged)
    sampler = make_sampler(spec, service) if spec.instrumented else None
    pool = len(inputs.batches)
    out = Replayed()

    def compose(recorder, key: str, i: int) -> tuple[np.ndarray, int]:
        """One batch composed; returns its results and the shard-walk mismatches."""
        addresses, vnids = inputs.batches[i % pool]
        if spec.n_shards:
            return compose_sharded(
                recorder, key, "path", replay, addresses, vnids, i, walk_nominal=recorder is rec
            )
        with recorder.span("batch", key, "path", n=len(addresses)):
            with recorder.span("stages.validate", key, "path"):
                a, v = validate_batch(addresses, vnids, service.k)
            results, engine_traces = compose_walk(
                recorder,
                key,
                "path",
                tries=group.tries,
                merged=group.merged,
                distributor=group.distributor,
                n_stages=group.n_stages,
                admission_rate=service.offered_load_fraction or 1.0,
                addresses=a,
                vnids=v,
                depth_caps=caps,
            )
            if sampler is not None:
                compose_account(
                    recorder, key, "path", sampler=sampler, template=traces[i % pool],
                    traces=engine_traces, vnids=v, k=service.k,
                    rho=service.offered_load_fraction,
                    frequency_mhz=service.frequency_mhz, seed=i,
                )
        return results, 0

    def traced(key: str, i: int) -> None:
        results, walk_mismatches = compose(rec, key, i)
        out.composed_mismatches += walk_mismatches + count_mismatches(results, answers[i % pool])

    def untraced(key: str, i: int) -> None:
        with rec.span("replay.untraced", key, "compare"):
            results, _ = compose(NULL_RECORDER, key, i)
        out.composed_mismatches += count_mismatches(results, answers[i % pool])

    def served(key: str, i: int) -> None:
        addresses, vnids = inputs.batches[i % pool]
        with rec.span("tier.serve", key, "compare"):
            results, _ = tier.serve(addresses, vnids)
        out.attempted += len(addresses)
        out.shed += int(np.count_nonzero(results == SHED_RESULT))
        out.inconsistent += count_mismatches(results, answers[i % pool])

    # cycling through every order gives each variant each predecessor
    # equally often, so no variant inherits another's cache footprint
    orders = list(itertools.permutations([served, untraced, traced]))
    before = probe.time()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        i = out.batches
        key = f"b{i}"
        for run in orders[i % len(orders)]:
            run(key, i)
        after = probe.time()
        rec.scales[key] = scale(probe.nominal_s, (before + after) / 2.0)
        before = after
        out.batches += 1
    return out


def _side_batches(rec, probe, inputs, prefix):
    """Yield (key, index, addresses, vnids) for one side section, probe-scaled."""
    pool = len(inputs.batches)
    for i in range(SIDE_BATCHES):
        key = f"{prefix}{i}"
        before = probe.time()
        addresses, vnids = inputs.batches[i % pool]
        yield key, i, addresses, vnids
        rec.scales[key] = scale(probe.nominal_s, (before + probe.time()) / 2.0)


def _side_sections(rec, spec, inputs, answers, traces, tries, merged, sync, replay,
                   process_tier, inline_tier, probe, n_stages) -> int:
    """Measure the layers off the workload's path; returns result mismatches."""
    pool = len(inputs.batches)
    mismatches = 0
    # the other walker: VM replay on VS workloads, VS replay on VM
    other_merged = None if spec.scheme.shares_engine else merged
    caps = _depth_caps(tries, other_merged)
    distributor = Distributor(k=spec.k)
    for key, i, addresses, vnids in _side_batches(rec, probe, inputs, "w"):
        results, _ = compose_walk(
            rec,
            key,
            "walk",
            tries=tries,
            merged=other_merged,
            distributor=distributor,
            n_stages=n_stages,
            admission_rate=sync.service.offered_load_fraction or 1.0,
            addresses=addresses,
            vnids=vnids,
            depth_caps=caps,
        )
        mismatches += count_mismatches(results, answers[i % pool])

    # the sharded tier's layers, composed over inline shard runtimes
    if not spec.n_shards:
        for key, i, addresses, vnids in _side_batches(rec, probe, inputs, "s"):
            results, walk_mismatches = compose_sharded(
                rec, key, "sharded", replay, addresses, vnids, i, walk_nominal=True
            )
            mismatches += walk_mismatches + count_mismatches(results, answers[i % pool])

    # the instrumented account stage, where the path does not run it
    if not spec.instrumented:
        sampler = make_sampler(spec)
        for key, i, addresses, vnids in _side_batches(rec, probe, inputs, "a"):
            trace = traces[i % pool]
            with rec.span("queueing.md1_sim", key, "account"):
                simulate_md1_waits(
                    sync.service.offered_load_fraction,
                    sync.service.frequency_mhz,
                    max(1, min(len(addresses), MD1_ARRIVALS)),
                    seed=i,
                )
            with rec.span("power.observe", key, "account"):
                sampler.observe(trace, duty_cycle=trace.mean_duty_cycle())

    # registry on vs off, and process vs inline transport, interleaved
    service = build_sync(spec, inputs.tables, instrumented=True)
    for key, i, addresses, vnids in _side_batches(rec, probe, inputs, "c"):
        order = (True, False) if i % 2 else (False, True)
        for metrics_on in order:
            if metrics_on:
                service.registry.enable()
            else:
                service.registry.disable()
            name = "service.serve_instrumented" if metrics_on else "service.serve_plain"
            with rec.span(name, key, "service"):
                results, _ = service.serve(addresses, vnids)
            mismatches += count_mismatches(results, answers[i % pool])
        transports = [(process_tier, "sharded.serve_process"), (inline_tier, "sharded.serve_inline")]
        for tier, name in transports if i % 2 else transports[::-1]:
            with rec.span(name, key, "transport"):
                results, _ = tier.serve(addresses, vnids)
            mismatches += count_mismatches(results, answers[i % pool])
        # the same batch composed, for the shard runtime time inside the inline serve
        results, _ = compose_sharded(
            rec, key, "frontend", replay, addresses, vnids, i, walk_nominal=False
        )
        mismatches += count_mismatches(results, answers[i % pool])
    return mismatches


# -- aggregation ---------------------------------------------------------------------------

#: where an off-path layer is measured instead
_SIDE_SECTION = {
    "distributor.partition": "walk",
    "distributor.gather": "walk",
    "distributor.scatter": "walk",
    "trie.walk": "walk",
    "merged.walk": "walk",
    "queueing.md1_sim": "account",
    "power.observe": "account",
    "shard.runtime_serve": "sharded",
    "stages.walk_nominal": "sharded",
    "transport.pickle": "sharded",
}


@dataclass
class LayerStats:
    section: str
    spans: list[dict]
    self_s: list[float]
    duration_s: list[float]

    @property
    def total_s(self) -> float:
        return sum(self.self_s)

    @property
    def n_batches(self) -> int:
        return len({s["batch"] for s in self.spans})

    def per_batch_s(self) -> float:
        return self.total_s / self.n_batches if self.spans else 0.0

    def mean_span_s(self) -> float:
        return self.total_s / len(self.spans) if self.spans else 0.0

    def attr(self, name: str) -> float:
        return float(sum(s.get(name, 0) for s in self.spans))


def collect(rec: SpanRecorder) -> dict[str, LayerStats]:
    """Per-layer stats: the path's spans where the layer is on the path,
    else the side section that measures it."""
    by_name: dict[tuple[str, str], LayerStats] = {}
    for span, self_s in zip(rec.spans, rec.self_times()):
        stats = by_name.setdefault(
            (span["name"], span["section"]), LayerStats(span["section"], [], [], [])
        )
        stats.spans.append(span)
        stats.self_s.append(self_s)
        stats.duration_s.append(rec.duration(span))
    out = {}
    for name in {n for n, _ in by_name}:
        for section in ("path", _SIDE_SECTION.get(name), "build", "service", "transport"):
            if (name, section) in by_name:
                out[name] = by_name[(name, section)]
                break
    return out


def _per_key(rec: SpanRecorder, name: str, section: str) -> dict[str, float]:
    """Normalized duration of the spans ``name`` in ``section``, summed per batch key."""
    out: dict[str, float] = defaultdict(float)
    for span in rec.spans:
        if span["name"] == name and span["section"] == section:
            out[span["batch"]] += rec.duration(span)
    return out


def _paired(a: dict[str, float], b: dict[str, float], op) -> float:
    """Median over the batch keys of ``op(a[key], b[key])``: the two sides
    ran back to back on the same batch, so host drift cancels."""
    return statistics.median(op(a[key], b[key]) for key in a.keys() & b.keys())


def per_layer_metrics(rec: SpanRecorder, spec: WorkloadSpec):
    """The per-layer metrics and a markdown table of every layer."""
    stats = collect(rec)
    empty = LayerStats("none", [], [], [])

    def get(name: str) -> LayerStats:
        return stats.get(name, empty)

    traced = _per_key(rec, "batch", "path")
    untraced = _per_key(rec, "replay.untraced", "compare")
    served = _per_key(rec, "tier.serve", "compare")
    traced_batch_s = statistics.median(traced.values())
    overhead_s = _paired(traced, untraced, operator.sub)
    unreplayed_s = _paired(served, untraced, operator.sub)
    walker = get("merged.walk") if spec.scheme.shares_engine else get("trie.walk")
    runtime = get("shard.runtime_serve")
    metrics = {
        "stages.validate_us": (get("stages.validate").per_batch_s() * 1e6, "us"),
        "distributor.partition_us": (get("distributor.partition").per_batch_s() * 1e6, "us"),
        "distributor.gather_scatter_us": (
            (get("distributor.gather").per_batch_s() + get("distributor.scatter").per_batch_s()) * 1e6,
            "us",
        ),
        "trie.walk_ns_per_lookup": (get("trie.walk").total_s / get("trie.walk").attr("n") * 1e9, "ns"),
        "trie.walk_calls_per_batch": (len(get("trie.walk").spans) / get("trie.walk").n_batches, "count"),
        "merged.walk_ns_per_lookup": (
            get("merged.walk").total_s / get("merged.walk").attr("n") * 1e9,
            "ns",
        ),
        "walk.useful_level_share": (walker.attr("depth_sum") / walker.attr("depth_cap"), "share"),
        "pipeline.trace_us": (get("pipeline.trace").per_batch_s() * 1e6, "us"),
        "service.instrumented_over_plain": (
            _paired(
                _per_key(rec, "service.serve_instrumented", "service"),
                _per_key(rec, "service.serve_plain", "service"),
                operator.truediv,
            ),
            "ratio",
        ),
        "queueing.md1_sim_us": (get("queueing.md1_sim").per_batch_s() * 1e6, "us"),
        "power.observe_us": (get("power.observe").per_batch_s() * 1e6, "us"),
        "shard.runtime_serve_us": (runtime.mean_span_s() * 1e6, "us"),
        "shard.runtime_over_walk": (
            sum(runtime.duration_s) / sum(get("stages.walk_nominal").duration_s),
            "ratio",
        ),
        "transport.bytes_per_lookup": (get("transport.pickle").attr("bytes") / runtime.attr("n"), "bytes"),
        "transport.pickle_us": (get("transport.pickle").per_batch_s() * 1e6, "us"),
        "transport.process_over_inline": (
            _paired(
                _per_key(rec, "sharded.serve_process", "transport"),
                _per_key(rec, "sharded.serve_inline", "transport"),
                operator.truediv,
            ),
            "ratio",
        ),
        "frontend.own_us": (
            _paired(
                _per_key(rec, "sharded.serve_inline", "transport"),
                _per_key(rec, "shard.runtime_serve", "frontend"),
                operator.sub,
            )
            * 1e6,
            "us",
        ),
        "mrt.ingest_ms": (get("mrt.ingest").total_s * 1e3, "ms"),
        "trie.build_freeze_ms": (get("trie.build_freeze").total_s * 1e3, "ms"),
        "merged.merge_ms": (get("merged.merge").total_s * 1e3, "ms"),
        "power.sampler_build_ms": (get("power.sampler_build").total_s * 1e3, "ms"),
        "shard.ready_ms": (get("shard.ready").total_s * 1e3, "ms"),
        "trace.batch_us": (traced_batch_s * 1e6, "us"),
        "trace.overhead_us": (overhead_s * 1e6, "us"),
        "trace.unreplayed_us": (unreplayed_s * 1e6, "us"),
    }
    lines = [
        f"# {spec.name}: per-layer breakdown",
        "",
        f"Composed batch {traced_batch_s * 1e6:.1f} us traced (median over "
        f"{len(traced)} batches); tracing overhead {overhead_s * 1e6:.1f} us; "
        f"serve() exceeds the untraced composition by {unreplayed_s * 1e6:.1f} us.",
        "Times are normalized by the reference probe.  `path` layers are on the "
        "workload's serve path; others were measured in the named side section.  "
        "Shares are of the traced batch's median.",
        "",
        "| layer | section | spans | batches | self us/batch | share of batch |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for name in sorted(stats):
        s = stats[name]
        share = s.per_batch_s() / traced_batch_s if s.section == "path" else float("nan")
        lines.append(
            f"| {name} | {s.section} | {len(s.spans)} | {s.n_batches} | "
            f"{s.per_batch_s() * 1e6:.2f} | {share:.3f} |"
        )
    lines += ["", "| metric | value | unit |", "|---|---:|---|"]
    lines += [f"| {name} | {v:.6g} | {u} |" for name, (v, u) in metrics.items()]
    return metrics, "\n".join(lines) + "\n"
