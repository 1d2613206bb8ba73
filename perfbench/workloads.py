"""The three serving workloads, their inputs, tiers and correctness gate.

Every workload is a closed loop: one caller keeps one batch in flight
and sends the next only after the previous one returned, as every
caller in the repository does (the experiments, the governor ramp and
``serve_cli`` all await each batch).  Batches are generated from the
seed before anything is timed and reused cyclically; the tier only
ever sees the generated arrays.

``bulk_uniform``
    Sync ``LookupService``, VS, K=4 synthetic tables, 100,000-pair
    uniform batches, observability off: the walk -> partition ->
    gather/scatter data path does nearly all the work.
``ris_instrumented``
    Sync ``LookupService``, VM, K=8 tables cut from the committed RIS
    fixture, 4,096-pair batches of addresses inside the fixture's
    prefixes, metrics on with a power sampler attached: per-call and
    telemetry costs outweigh per-lookup costs.
``sharded_pipe``
    ``ShardedLookupService`` with the process transport over 2 shards,
    the ``bulk_uniform`` tables, 16,384-pair uniform batches: the same
    lookups plus the tier's own cost (frontend, pipes, worker processes).
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench.probe import Probe, normalize_batches, normalize_span, percentile, setup_probe
from repro.errors import MalformedBatchError, ShardError
from repro.faults.policy import SHED_RESULT
from repro.iplookup.mrt import load_dataset, virtual_tables_from_table
from repro.iplookup.rib import RoutingTable
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.obs.power import PowerTelemetrySampler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serve.frontend import ShardedLookupService
from repro.serve.service import LookupService
from repro.serve.stages import ServeTrace
from repro.virt.schemes import Scheme

#: the committed RIS-shaped fixture, relative to the checkout root
FIXTURE = "examples/data/ris_sample.bgpdump.txt"
#: fresh interpreters timed for ``setup_s`` in every run
SETUP_REPEATS = 9
#: untimed closed-loop serving before the timed loop: the first seconds
#: of a process run measurably slower (allocator and cache warm-up)
WARMUP_S = 2.0
#: addresses checked against the linear-scan oracle per broadcast chunk
_ORACLE_CHUNK = 2048


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload; tests shrink it with :func:`dataclasses.replace`.

    ``probe_lanes`` sizes the reference probe to the workload's per-walk
    array length; ``nominal_probe_s`` is the probe's time right after
    one of the workload's batches on the reference host (a 2-core Xeon)
    in its fast state, so normalized times read as that host's.
    """

    name: str
    scheme: Scheme
    k: int
    batch_size: int
    pool_size: int
    probe_lanes: int
    nominal_probe_s: float
    n_prefixes: int = 2000
    fixture: bool = False
    instrumented: bool = False
    n_shards: int = 0

    def probe(self) -> Probe:
        return Probe(self.probe_lanes, self.nominal_probe_s)


BULK_UNIFORM = WorkloadSpec(
    name="bulk_uniform",
    scheme=Scheme.VS,
    k=4,
    batch_size=100_000,
    pool_size=4,
    probe_lanes=25_000,
    nominal_probe_s=1.3e-3,
)
RIS_INSTRUMENTED = WorkloadSpec(
    name="ris_instrumented",
    scheme=Scheme.VM,
    k=8,
    batch_size=4096,
    pool_size=32,
    probe_lanes=4096,
    nominal_probe_s=0.3e-3,
    fixture=True,
    instrumented=True,
)
SHARDED_PIPE = WorkloadSpec(
    name="sharded_pipe",
    scheme=Scheme.VS,
    k=4,
    batch_size=16_384,
    pool_size=16,
    probe_lanes=4096,
    nominal_probe_s=0.5e-3,
    n_shards=2,
)
WORKLOADS = {w.name: w for w in (BULK_UNIFORM, RIS_INSTRUMENTED, SHARDED_PIPE)}


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything generated from the seed before any timing."""

    tables: list[RoutingTable]
    batches: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def synthetic_tables(spec: WorkloadSpec, seed: int) -> list[RoutingTable]:
    config = SyntheticTableConfig(n_prefixes=spec.n_prefixes, seed=seed)
    return generate_virtual_tables(spec.k, 0.5, config)


def fixture_tables(
    spec: WorkloadSpec, seed: int, root: Path
) -> tuple[RoutingTable, list[RoutingTable]]:
    """Ingest the RIS fixture; return its IPv4 table and K overlapping VN cuts."""
    source = load_dataset(str(root / FIXTURE)).v4
    return source, virtual_tables_from_table(source, spec.k, shared_fraction=0.5, seed=seed)


def _addresses_in(table: RoutingTable, rng: np.random.Generator, n: int) -> np.ndarray:
    """Addresses inside randomly chosen prefixes of ``table`` (hit-heavy walks)."""
    routes = table.routes()
    values = np.array([r.prefix.value for r in routes], dtype=np.uint64)
    host_bits = np.array([32 - r.prefix.length for r in routes], dtype=np.uint64)
    pick = rng.integers(0, len(routes), size=n)
    host = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    host &= (np.uint64(1) << host_bits[pick]) - np.uint64(1)
    return (values[pick] | host).astype(np.uint32)


def make_inputs(spec: WorkloadSpec, seed: int, root: Path) -> Inputs:
    """Tables and the cyclic batch pool of one workload at one seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng((seed, sorted(WORKLOADS).index(spec.name)))
    if spec.fixture:
        source, tables = fixture_tables(spec, seed, root)
    else:
        tables = synthetic_tables(spec, seed)
    inputs = Inputs(tables)
    for _ in range(spec.pool_size):
        if spec.fixture:
            addresses = _addresses_in(source, rng, spec.batch_size)
        else:
            addresses = rng.integers(
                0, 1 << 32, size=spec.batch_size, dtype=np.uint64
            ).astype(np.uint32)
        vnids = rng.integers(0, spec.k, size=spec.batch_size).astype(np.int64)
        inputs.batches.append((addresses, vnids))
    return inputs


# -- tiers -------------------------------------------------------------------


class SyncTier:
    """A ``LookupService`` driven by a blocking caller."""

    def __init__(self, service: LookupService, registry: MetricsRegistry):
        self.service = service
        self.registry = registry

    def serve(self, addresses: np.ndarray, vnids: np.ndarray) -> tuple[np.ndarray, ServeTrace]:
        return self.service.serve(addresses, vnids)

    def worker_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        pass


class ShardedTier:
    """A ``ShardedLookupService`` awaited batch by batch on a private loop."""

    def __init__(self, service: ShardedLookupService):
        self.service = service
        self.loop = asyncio.new_event_loop()
        self._started = False

    def start(self) -> "ShardedTier":
        """Boot the workers and wait until every one has answered."""
        self.loop.run_until_complete(self.service.start())
        self._started = True
        # start() returns before the workers have built their engines;
        # a scrape is one round trip to every worker, answered only
        # after its engines are frozen
        self.loop.run_until_complete(self.service.scrape())
        return self

    def serve(self, addresses: np.ndarray, vnids: np.ndarray) -> tuple[np.ndarray, ServeTrace]:
        return self.loop.run_until_complete(self.service.serve(addresses, vnids))

    def worker_pids(self) -> list[int]:
        return child_pids()

    def close(self) -> None:
        """Stop and join the workers, then the loop's executor threads."""
        try:
            if self._started:
                self.loop.run_until_complete(self.service.stop())
                self._started = False
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
        finally:
            self.loop.close()


def build_sync(
    spec: WorkloadSpec, tables: list[RoutingTable], *, instrumented: bool
) -> SyncTier:
    """A sync tier; instrumented means metrics on and a sampler attached."""
    registry = MetricsRegistry(enabled=instrumented)
    service = LookupService(
        tables,
        spec.scheme,
        n_stages=None if spec.fixture else 28,
        registry=registry,
        tracer=Tracer(enabled=False),
    )
    if instrumented:
        service.power_sampler = make_sampler(spec, service, registry)
    return SyncTier(service, registry)


def build_sharded(
    spec: WorkloadSpec, tables: list[RoutingTable], transport: str = "process"
) -> ShardedTier:
    service = ShardedLookupService(
        tables,
        spec.scheme,
        n_shards=spec.n_shards or 2,
        n_stages=None if spec.fixture else 28,
        registry=MetricsRegistry(enabled=False),
        tracer=Tracer(enabled=False),
        transport=transport,
    )
    return ShardedTier(service).start()


def make_sampler(
    spec: WorkloadSpec,
    service: LookupService | None = None,
    registry: MetricsRegistry | None = None,
) -> PowerTelemetrySampler:
    """The workload's power sampler; VM takes its α from the built merge."""
    alpha = None
    if spec.scheme is Scheme.VM and spec.k > 1:
        if service is None:
            raise ValueError("a VM sampler needs the built service for its alpha")
        alpha = service.merged().pairwise_alpha
    return PowerTelemetrySampler(
        spec.scheme, spec.k, alpha=alpha, registry=registry or MetricsRegistry()
    )


def build_tier(spec: WorkloadSpec, seed: int, root: Path, tables: list[RoutingTable] | None):
    """The timed set-up: from generated inputs to a tier ready to serve.

    The fixture workload's set-up includes the RIB ingest and the VN
    cut (``tables`` is ``None`` there); the synthetic workloads start
    from generated tables.
    """
    if spec.fixture:
        _, tables = fixture_tables(spec, seed, root)
    assert tables is not None
    if spec.n_shards:
        return build_sharded(spec, tables)
    return build_sync(spec, tables, instrumented=spec.instrumented)


# -- correctness gate ----------------------------------------------------------


def oracle_answers(
    tables: list[RoutingTable], addresses: np.ndarray, vnids: np.ndarray
) -> np.ndarray:
    """Per-VN linear-scan answers for one batch (chunked to bound memory)."""
    expected = np.empty(len(addresses), dtype=np.int64)
    for vn, table in enumerate(tables):
        indices = np.flatnonzero(vnids == vn)
        for start in range(0, len(indices), _ORACLE_CHUNK):
            chunk = indices[start : start + _ORACLE_CHUNK]
            expected[chunk] = table.lookup_linear_batch(addresses[chunk])
    return expected


def count_mismatches(results: np.ndarray, expected: np.ndarray) -> int:
    """Answered lookups whose result differs from ``expected`` (shed ones excluded)."""
    if results.shape != expected.shape:
        return int(max(len(results), len(expected)))
    answered = results != SHED_RESULT
    return int(np.count_nonzero(answered & (results != expected)))


def gate(
    inputs: Inputs,
    answers: list[np.ndarray],
    reference: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list[int]:
    """Oracle mismatches of each distinct pool batch's answers.

    ``reference`` is a second implementation whose answers must also
    agree (the sync tier, for the sharded workload).
    """
    mismatches = []
    for (addresses, vnids), results in zip(inputs.batches, answers):
        bad = results != oracle_answers(inputs.tables, addresses, vnids)
        if reference is not None:
            bad |= results != reference(addresses, vnids)
        mismatches.append(int(np.count_nonzero(bad & (results != SHED_RESULT))))
    return mismatches


# -- host and memory -----------------------------------------------------------


def child_pids() -> list[int]:
    """Live child processes of this process (the shard workers)."""
    me = str(os.getpid())
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name sits in parentheses and may contain spaces
        fields = stat.rsplit(")", 1)[1].split()
        if fields[1] == me:
            pids.append(int(entry.name))
    return pids


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident sets (VmHWM) of this process and ``pids``, MiB."""
    total_kb = 0
    for pid in ["self", *map(str, pids)]:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def host_metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": seed,
    }


# -- set-up ----------------------------------------------------------------------


def measure_setup_once(spec: WorkloadSpec, seed: int, root: Path) -> dict:
    """Time one set-up in this (fresh) interpreter, bracketed by probes."""
    tables = None if spec.fixture else synthetic_tables(spec, seed)
    probe = setup_probe()
    before = probe.time_min()
    start = time.perf_counter()
    tier = build_tier(spec, seed, root, tables)
    raw = time.perf_counter() - start
    after = probe.time_min()
    tier.close()
    return {"raw_s": raw, "probe_before_s": before, "probe_after_s": after}


def measure_setup(spec: WorkloadSpec, seed: int, root: Path, run_py: Path) -> dict:
    """Median normalized set-up over fresh interpreters.

    Each set-up runs in its own interpreter, after its imports, so
    every repeat pays the same one-time costs (process-wide memos,
    lazy imports inside the program) that a user starting the tier
    pays; the median of the normalized repeats is ``setup_s``.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(run_py), "--workload", spec.name, "--seed", str(seed), "--setup-only"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    nominal_s = setup_probe().nominal_s
    normalized = [
        normalize_span(s["raw_s"], s["probe_before_s"], s["probe_after_s"], nominal_s)
        for s in samples
    ]
    return {
        "setup_s": statistics.median(normalized),
        "raw_s": [s["raw_s"] for s in samples],
        "normalized_s": normalized,
        "probe_s": [(s["probe_before_s"] + s["probe_after_s"]) / 2 for s in samples],
    }


# -- the timed closed loop ---------------------------------------------------------


@dataclass
class LoopResult:
    raw_s: list[float]
    probes_s: list[float]
    #: times each pool batch was served in the loop
    served: list[int]
    attempted: int = 0
    shed: int = 0
    rejected: int = 0
    #: answers that differed from the first pass over the same pool batch
    inconsistent: int = 0


def closed_loop(
    serve: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ServeTrace]],
    inputs: Inputs,
    answers: list[np.ndarray],
    probe: Probe,
    seconds: float,
) -> LoopResult:
    """Serve the pool cyclically for ``seconds``, one batch in flight.

    A probe runs between consecutive batches, while the tier is idle.
    Every batch's answers are compared with the first pass's answers
    for the same pool batch (those are checked against the oracle
    after the loop), outside the batch's own timing.
    """
    pool = len(inputs.batches)
    out = LoopResult(raw_s=[], probes_s=[probe.time()], served=[0] * pool)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        addresses, vnids = inputs.batches[i % pool]
        start = time.perf_counter()
        try:
            results, _ = serve(addresses, vnids)
        except (ShardError, MalformedBatchError):
            results = None
        out.raw_s.append(time.perf_counter() - start)
        out.probes_s.append(probe.time())
        out.attempted += len(addresses)
        if results is None:
            out.rejected += len(addresses)
        else:
            out.served[i % pool] += 1
            out.shed += int(np.count_nonzero(results == SHED_RESULT))
            out.inconsistent += count_mismatches(results, answers[i % pool])
        i += 1
    return out


def first_pass(tier, inputs: Inputs) -> tuple[list[np.ndarray], list[ServeTrace]]:
    answers, traces = [], []
    for addresses, vnids in inputs.batches:
        results, trace = tier.serve(addresses, vnids)
        answers.append(results)
        traces.append(trace)
    return answers, traces


def modeled_mw_per_gbps(spec: WorkloadSpec, tier, inputs: Inputs, traces: list[ServeTrace]) -> float:
    """The power model's running mW/Gbps over exactly one pass of the pool.

    Deterministic for a seed: the instrumented workload's own
    ``serve()`` feeds a fresh sampler over one untimed pass; the others
    feed their first-pass traces in, outside any timing.
    """
    if spec.instrumented:
        sampler = make_sampler(spec, tier.service, tier.registry)
        tier.service.power_sampler = sampler
        first_pass(tier, inputs)
        return sampler.running_mw_per_gbps
    sampler = make_sampler(spec)
    for trace in traces:
        sampler.observe(trace, duty_cycle=trace.mean_duty_cycle())
    return sampler.running_mw_per_gbps


def run_timed(spec: WorkloadSpec, seed: int, seconds: float, root: Path, run_py: Path) -> dict:
    """One untraced run: set-up, closed loop, gate; returns the run record."""
    setup = measure_setup(spec, seed, root, run_py)
    inputs = make_inputs(spec, seed, root)
    tier = build_tier(spec, seed, root, None if spec.fixture else inputs.tables)
    reference = None
    try:
        answers, traces = first_pass(tier, inputs)
        probe = spec.probe()
        warmup = closed_loop(tier.serve, inputs, answers, probe, WARMUP_S)
        loop = closed_loop(tier.serve, inputs, answers, probe, seconds)
        loop.inconsistent += warmup.inconsistent
        rss_mb = peak_rss_mb(tier.worker_pids())
        mw_per_gbps = modeled_mw_per_gbps(spec, tier, inputs, traces)
    finally:
        tier.close()
    if spec.n_shards:
        reference = build_sync(spec, inputs.tables, instrumented=False).service.lookup_batch
    per_batch = gate(inputs, answers, reference)
    # a wrong first-pass answer is wrong again every time the loop
    # served that pool batch with consistent answers
    wrong = sum(n * m for n, m in zip(loop.served, per_batch)) + loop.inconsistent
    oracle_mismatches = sum(per_batch) + loop.inconsistent

    latencies = normalize_batches(loop.raw_s, loop.probes_s, spec.nominal_probe_s)
    failed = min(loop.shed + loop.rejected + wrong, loop.attempted)
    answered = loop.attempted - failed
    metrics = {
        "goodput_lookups_per_s": (answered / sum(latencies), "lookups/s"),
        "batch_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "batch_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "answered_share": (answered / loop.attempted, "share"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "modeled_mw_per_gbps": (mw_per_gbps, "mW/Gbps"),
    }
    return {
        "workload": spec.name,
        "correct": oracle_mismatches == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "context": {
            "host": host_metadata(seed),
            "batches": len(loop.raw_s),
            "batch_size": spec.batch_size,
            "pool_batches": spec.pool_size,
            "oracle_mismatches": oracle_mismatches,
            "shed": loop.shed,
            "rejected": loop.rejected,
            "raw_goodput_lookups_per_s": answered / sum(loop.raw_s),
            "raw_batch_p50_ms": percentile(loop.raw_s, 50) * 1e3,
            "raw_batch_p90_ms": percentile(loop.raw_s, 90) * 1e3,
            "probe_p50_ms": percentile(loop.probes_s, 50) * 1e3,
            "probe_nominal_ms": spec.nominal_probe_s * 1e3,
            "setup": setup,
        },
    }
