"""Acceptance tests for the sharded async serving tier.

Pins the tier's contract from the sharded-service milestone:

* results through the tier are identical to the synchronous
  :class:`~repro.serve.LookupService` on the same batch (both
  transports, all schemes), and so is every lookup shed under a
  fault plan — admission is decided once, inside each shard, by the
  sync tier's own policy;
* the tier publishes one modeled M/D/1 queue wait per batch, the
  closed form at the reassembled trace's realized load (the Lindley
  simulation's agreement with that closed form is a model check and
  lives in ``tests/unit/test_queueing.py``);
* a saturated shard sheds with :data:`~repro.faults.SHED_RESULT`
  markers and error-budget metrics;
* the process transport runs ``n_shards − 1`` worker processes and
  serves the last shard in the front end's own process, built after
  every worker was forked;
* a dead worker raises :class:`~repro.errors.ShardError` instead of
  hanging, and concurrent callers of one service each get their own
  answers; a front end that dies without ``stop()`` leaves no worker
  behind;
* each shard's lanes travel in a memfd lane arena: the pipe carries a
  fixed number of bytes per sub-batch, arenas grow with the batch, and
  ``stop()`` leaves no mapping, no ``/dev/shm`` entry and no helper
  process behind;
* per-shard power attribution sums to the single-process sampler's
  total within 1%;
* the merged multi-shard exposition is consistent: the sum of the
  shard lookup counters equals the client-observed admitted count.
"""

import asyncio
import gc
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShardError
from repro.faults.injectors import BramWriteStorm, EngineStall, TransientWalkFailure
from repro.faults.plan import FaultPlan, FaultWindow
from repro.faults.policy import SHED_RESULT, DegradationPolicy
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.serve.shard import ARENA_GRAIN
from repro.obs.export import parse_prometheus_text, render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import merge_snapshots, restore_registry
from repro.obs.tracing import Tracer
from repro.serve import LookupService, ShardedLookupService, shard_vn_bounds
from repro.virt.schemes import Scheme

K = 4


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def tables():
    config = SyntheticTableConfig(n_prefixes=300, seed=11)
    return generate_virtual_tables(K, 0.5, config)


def _batch(n, seed=99, k=K):
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    vnids = rng.integers(0, k, size=n, dtype=np.int64)
    return addresses, vnids


def _service(tables, scheme=Scheme.VS, **kwargs):
    kwargs.setdefault("transport", "inline")
    kwargs.setdefault("registry", MetricsRegistry(enabled=True))
    kwargs.setdefault("tracer", Tracer(enabled=False))
    return ShardedLookupService(tables, scheme, **kwargs)


class TestBounds:
    def test_even_split(self):
        assert shard_vn_bounds(4, 2) == (0, 2, 4)

    def test_remainder_to_early_shards(self):
        assert shard_vn_bounds(5, 2) == (0, 3, 5)
        assert shard_vn_bounds(7, 3) == (0, 3, 5, 7)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            shard_vn_bounds(2, 3)
        with pytest.raises(ConfigurationError):
            shard_vn_bounds(2, 0)


class TestParityWithSyncService:
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_inline_matches_sync(self, tables, scheme):
        addresses, vnids = _batch(4000)

        async def go():
            async with _service(tables, scheme) as svc:
                return await svc.serve(addresses, vnids)

        results, trace = run(go())
        expected, _ = LookupService(tables, scheme).serve(addresses, vnids)
        assert np.array_equal(results, expected)
        assert trace.n_shed == 0
        assert trace.n_packets == len(addresses)

    def test_process_transport_matches_sync(self, tables):
        addresses, vnids = _batch(4000)

        async def go():
            async with _service(tables, transport="process") as svc:
                first = await svc.serve(addresses, vnids)
                assert await svc.verify(addresses, vnids)
                return first

        results, _ = run(go())
        expected, _ = LookupService(tables, Scheme.VS).serve(addresses, vnids)
        assert np.array_equal(results, expected)

    def test_serve_requires_start(self, tables):
        svc = _service(tables)
        addresses, vnids = _batch(10)
        with pytest.raises(ShardError):
            run(svc.serve(addresses, vnids))


#: wall-time bound on a process-transport test that must not hang
NO_HANG_S = 60.0


def run_bounded(coro):
    """``asyncio.run`` on a daemon thread that fails the test after
    :data:`NO_HANG_S` instead of hanging it: a wedged exchange would
    also wedge the service's shutdown, so no timeout inside the event
    loop could end it."""
    outcome = {}

    def target():
        try:
            outcome["result"] = asyncio.run(coro)
        except BaseException as error:  # re-raised on the test's thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(NO_HANG_S)
    assert not thread.is_alive(), f"the exchange hung for {NO_HANG_S:.0f} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


#: bytes a sub-batch's ``lanes`` request and its reply take on the
#: worker's pipe, whatever the batch's size: a 4-byte length prefix
#: each, then the 17-byte ``(tag, batch, n)`` request and the 1-byte
#: done token.  The lanes, the answers and the trace travel in the arena.
LANES_REQUEST_WIRE_BYTES = 4 + 17
LANES_REPLY_WIRE_BYTES = 4 + 1


class TestPipePayload:
    @pytest.mark.parametrize("n", [8000, 64_000])
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_a_sub_batch_crosses_the_pipe_in_bytes_independent_of_n(
        self, tables, scheme, n, monkeypatch
    ):
        """``(batch, n)`` out and a token back, counted on the worker's
        real pipe: no per-lookup byte and no trace crosses it."""
        from multiprocessing.connection import Connection

        wire = {"sent": 0, "received": 0}
        send, recv = Connection._send, Connection._recv

        def counted_send(conn, buf, *args):
            wire["sent"] += len(buf)
            return send(conn, buf, *args)

        def counted_recv(conn, size, *args):
            data = recv(conn, size, *args)
            wire["received"] += len(data.getvalue())
            return data

        addresses, vnids = _batch(n)

        async def go():
            async with _service(tables, scheme, transport="process") as svc:
                await svc.serve(addresses, vnids)  # the arena grows here
                worker_lanes = int(np.count_nonzero(vnids < svc.shards[1].vn_lo))
                # counted in the front end's process only: the worker
                # was forked before the patch
                monkeypatch.setattr(Connection, "_send", counted_send)
                monkeypatch.setattr(Connection, "_recv", counted_recv)
                served = await svc.serve(addresses, vnids)
                monkeypatch.undo()
                return served, worker_lanes

        (results, _), worker_lanes = run_bounded(go())
        assert np.array_equal(results, LookupService(tables, scheme).serve(addresses, vnids)[0])
        assert worker_lanes > n // 3
        assert wire == {
            "sent": LANES_REQUEST_WIRE_BYTES,
            "received": LANES_REPLY_WIRE_BYTES,
        }


def _fault(kind, scheme, shard=1):
    """One injector aimed at the first engine of ``shard`` (of 2): the
    front end's own shard by default, a worker's for shard 0 with the
    process transport.  VM has only engine 0, which every shard's
    merged engine is.  ``"transient"`` fails that engine's walks past
    the retry budget."""
    engine = 0 if scheme is Scheme.VM else 2 * shard
    if kind == "offline":
        return EngineStall(engine, 0.0)
    if kind == "half":
        return EngineStall(engine, 0.5)
    if kind == "transient":
        return TransientWalkFailure(engine, DegradationPolicy().max_retries + 1)
    return BramWriteStorm(0.5, 0.3)


class TestFaultParity:
    """Under a fault plan the sharded tier sheds exactly what the sync
    tier sheds: same answers, same per-VN shed counts."""

    @staticmethod
    def _compare(tables, scheme, rho, fault, transport):
        """Serve one faulted batch through both tiers; returns both traces."""
        plan = FaultPlan((FaultWindow(0, 10, fault),))
        addresses, vnids = _batch(8000)

        async def go():
            async with _service(
                tables,
                scheme,
                offered_load_fraction=rho,
                fault_plan=plan,
                transport=transport,
            ) as svc:
                return await svc.serve(addresses, vnids)

        results, trace = run_bounded(go())
        sync = LookupService(
            tables,
            scheme,
            offered_load_fraction=rho,
            fault_plan=plan,
            registry=MetricsRegistry(enabled=True),
            tracer=Tracer(enabled=False),
        )
        expected, expected_trace = sync.serve(addresses, vnids)
        assert np.array_equal(results, expected)
        assert trace.vn_shed == expected_trace.vn_shed
        assert trace.n_admitted == expected_trace.n_admitted
        return trace, expected_trace

    @pytest.mark.parametrize("kind", ["offline", "half", "storm"])
    @pytest.mark.parametrize("rho", [0.5, 0.8])
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_inline_sheds_like_sync(self, tables, scheme, rho, kind):
        self._compare(tables, scheme, rho, _fault(kind, scheme), "inline")

    def test_process_sheds_like_sync(self, tables):
        self._compare(tables, Scheme.VS, 0.8, _fault("offline", Scheme.VS), "process")

    @pytest.mark.parametrize("kind", ["offline", "half", "storm", "transient"])
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_a_faulted_worker_sheds_like_sync(self, tables, scheme, kind):
        """Aimed at shard 0, a worker's: its degraded reply crosses the
        pipe and the arena.  Shard 0's local engines are the global
        ones, so the labels match the sync tier's too."""
        trace, expected = self._compare(
            tables, scheme, 0.8, _fault(kind, scheme, shard=0), "process"
        )
        assert trace.n_shed or kind == "storm"
        assert trace.fault_labels == expected.fault_labels
        assert trace.failed_engines == expected.failed_engines
        # VM: the fault reaches both shards' merged engines, each retrying
        shards = 2 if scheme is Scheme.VM else 1
        assert trace.retries == shards * expected.retries
        assert trace.walk_failures == shards * expected.walk_failures
        assert trace.latency.pipeline_ns == pytest.approx(expected.latency.pipeline_ns)
        assert trace.latency.queueing_ns == pytest.approx(expected.latency.queueing_ns)


class TestSaturationShedding:
    def test_offline_shard_sheds_with_markers_and_metrics(self, tables):
        """Acceptance: a shard driven past saturation answers its VNs
        with SHED_RESULT and error-budget metrics — never an error,
        never an unbounded queue."""
        # stall both of shard 1's engines to zero: its effective
        # capacity is 0, every offered lookup is inadmissible
        plan = FaultPlan(
            (
                FaultWindow(0, 100, EngineStall(2, 0.0)),
                FaultWindow(0, 100, EngineStall(3, 0.0)),
            )
        )
        registry = MetricsRegistry(enabled=True)
        addresses, vnids = _batch(8000)

        async def go():
            async with _service(tables, fault_plan=plan, registry=registry) as svc:
                return await svc.serve(addresses, vnids)

        results, trace = run(go())
        shard1 = vnids >= 2
        assert np.all(results[shard1] == SHED_RESULT)
        assert np.all(results[~shard1] != SHED_RESULT)
        assert trace.n_shed == int(shard1.sum())
        assert trace.vn_shed[0] == 0 and trace.vn_shed[1] == 0
        shed = registry.get("repro_frontend_shed_lookups_total")
        assert shed is not None
        total = sum(child.value for _, child in shed.samples())
        assert total == trace.n_shed

    def test_partial_stall_sheds_only_the_degraded_shard(self, tables):
        plan = FaultPlan((FaultWindow(0, 100, EngineStall(2, 0.0)),))
        addresses, vnids = _batch(8000)

        async def go():
            async with _service(tables, fault_plan=plan) as svc:
                return await svc.serve(addresses, vnids)

        results, trace = run(go())
        # shard 0 (VNs 0-1) is untouched; the stalled engine's VN sheds
        assert not np.any(results[vnids < 2] == SHED_RESULT)
        assert np.all(results[vnids == 2] == SHED_RESULT)
        assert trace.n_shed == int((vnids == 2).sum())


class TestPowerAttribution:
    @pytest.mark.parametrize(
        "scheme,alpha",
        [(Scheme.NV, None), (Scheme.VS, None), (Scheme.VM, 0.8)],
    )
    def test_per_shard_watts_sum_to_single_process_total(self, tables, scheme, alpha):
        """Acceptance: the per-shard power gauges sum to what one
        single-process sampler reports on the same workload, within 1%."""
        from repro.obs.power import PowerTelemetrySampler

        addresses, vnids = _batch(20_000)
        registry = MetricsRegistry(enabled=True)
        sampler = PowerTelemetrySampler(scheme, K, alpha=alpha)

        async def go():
            async with _service(
                tables, scheme, registry=registry, power_sampler=sampler
            ) as svc:
                await svc.serve(addresses, vnids)

        run(go())
        gauge = registry.get("repro_shard_power_watts")
        assert gauge is not None
        shard_sum = sum(child.value for _, child in gauge.samples())

        reference = PowerTelemetrySampler(scheme, K, alpha=alpha)
        ref_registry = MetricsRegistry(enabled=True)
        service = LookupService(
            tables, scheme, power_sampler=reference, registry=ref_registry
        )
        service.serve(addresses, vnids)
        expected = reference.running_total_w
        assert shard_sum == pytest.approx(expected, rel=0.01)


class TestMergedMetricsConsistency:
    def test_shard_counters_sum_to_client_observed_count(self, tables):
        """Acceptance: the merged exposition's shard lookup counters
        account for exactly the lookups the client saw answered."""
        n_batches, n = 5, 4000

        async def go():
            served = 0
            async with _service(tables) as svc:
                for i in range(n_batches):
                    addresses, vnids = _batch(n, seed=100 + i)
                    results, _ = await svc.serve(addresses, vnids)
                    served += int(np.count_nonzero(results != SHED_RESULT))
                merged = await svc.merged_snapshot()
            return served, merged

        served, merged = run(go())
        assert served == n_batches * n  # nominal run sheds nothing
        assert merged.counter_total("repro_serve_lookups_total") == served
        # both shards contributed under their own label
        family = next(
            f for f in merged.families if f.name == "repro_serve_lookups_total"
        )
        label_index = family.label_names.index("shard")
        shards = {s.labels[label_index] for s in family.samples}
        assert shards == {"0", "1"}

    def test_merged_exposition_parses_with_unique_labels(self, tables):
        """The whole merged exposition is valid Prometheus text: the
        frontend's own per-shard families keep their single ``shard``
        label instead of gaining ``shard="frontend"`` on top of it."""

        from repro.obs.power import PowerTelemetrySampler

        async def go():
            sampler = PowerTelemetrySampler(Scheme.VS, K)
            async with _service(tables, power_sampler=sampler) as svc:
                addresses, vnids = _batch(1000)
                await svc.serve(addresses, vnids)
                return await svc.merged_snapshot()

        text = render_prometheus(restore_registry(run(go())))
        families = parse_prometheus_text(text)
        watts = families["repro_shard_power_watts"]["samples"]
        assert sorted(labels["shard"] for _, labels, _ in watts) == ["0", "1"]
        lookups = families["repro_serve_lookups_total"]["samples"]
        assert {labels["shard"] for _, labels, _ in lookups} == {"0", "1"}
        frontend = families["repro_frontend_batches_total"]["samples"]
        assert [labels["shard"] for _, labels, _ in frontend] == ["frontend"]

    def test_scrape_includes_frontend_registry(self, tables):
        async def go():
            async with _service(tables) as svc:
                addresses, vnids = _batch(1000)
                await svc.serve(addresses, vnids)
                return await svc.scrape()

        snapshots = run(go())
        assert [s.shard for s in snapshots] == ["0", "1", "frontend"]
        frontend = snapshots[-1]
        assert frontend.counter_total("repro_frontend_batches_total") == 1
        assert frontend.counter_total("repro_frontend_lookups_total") == 1000


class TestProcessExchange:
    """The front end's one exchange per batch: every sub-batch is sent,
    then each reply is read off its pipe by an event-loop reader."""

    def test_dead_worker_raises_shard_error_without_hanging(self, tables):
        """The send to a dead worker fails quietly; the reader then sees
        the pipe's EOF and reports the death."""
        addresses, vnids = _batch(4000)

        async def go():
            async with _service(tables, transport="process") as svc:
                await svc.serve(addresses, vnids)
                # shard 0 is a worker; the front end serves shard 1 itself
                victim = svc.shards[0].process
                victim.terminate()
                victim.join()
                with pytest.raises(ShardError, match="shard 0 worker died"):
                    await svc.serve(addresses, vnids)

        run_bounded(go())

    def test_concurrent_serves_and_scrape_are_serialized(self, tables):
        first, second = _batch(3000, seed=5), _batch(2000, seed=6)

        async def go():
            async with _service(tables, transport="process") as svc:
                return await asyncio.gather(
                    svc.serve(*first), svc.serve(*second), svc.scrape()
                )

        (results_a, _), (results_b, _), snapshots = run_bounded(go())
        sync = LookupService(tables, Scheme.VS)
        assert np.array_equal(results_a, sync.serve(*first)[0])
        assert np.array_equal(results_b, sync.serve(*second)[0])
        merged = merge_snapshots(snapshots)
        assert merged.counter_total("repro_serve_lookups_total") == 5000
        assert merged.counter_total("repro_frontend_batches_total") == 2

    def test_cancelled_serve_leaves_no_reply_in_the_pipes(self, tables):
        """A caller cancelled mid-exchange must not leave its replies to
        be read as the next exchange's answers."""
        first, second = _batch(20_000, seed=7), _batch(3000, seed=8)

        async def go():
            async with _service(tables, transport="process") as svc:
                await svc.serve(*second)
                task = asyncio.create_task(svc.serve(*first))
                await asyncio.sleep(0)  # the task sends, then awaits the replies
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                return await svc.serve(*second)

        results, _ = run_bounded(go())
        assert np.array_equal(results, LookupService(tables, Scheme.VS).serve(*second)[0])


#: a front end that starts a 3-shard process service (two workers, the
#: second forked while the first one's pipe is open), serves one batch,
#: writes its workers' pids to the file named by argv[1] and dies
#: without ``stop()``
_DYING_FRONT_END = """
import asyncio, os, sys
import numpy as np
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.serve.shard import ARENA_GRAIN
from repro.serve import ShardedLookupService
from repro.virt.schemes import Scheme

async def main():
    tables = generate_virtual_tables(4, 0.5, SyntheticTableConfig(n_prefixes=100, seed=3))
    svc = await ShardedLookupService(tables, Scheme.VS, n_shards=3, transport="process").start()
    await svc.serve(np.arange(64, dtype=np.uint32), np.arange(64, dtype=np.int64) % 4)
    workers = [handle.process for handle in svc.shards if handle.process is not None]
    with open(sys.argv[1], "w") as out:
        out.write(" ".join(str(process.pid) for process in workers))
    os._exit(0)

asyncio.run(main())
"""

#: seconds the orphaned workers get to notice the front end's death
ORPHAN_EXIT_S = 10.0


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not:
    an orphan is reparented to an init that may never reap it)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_exit_when_the_front_end_dies_without_stop(tmp_path):
    """Each worker closes the front end's pipe ends it inherits at fork,
    so the front end's death is every pipe's EOF.  The front end's
    output goes to files, not pipes, which orphaned workers would hold
    open too."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    pid_file, log = tmp_path / "pids", tmp_path / "stderr"
    with log.open("w") as stderr:
        code = subprocess.run(
            [sys.executable, "-c", _DYING_FRONT_END, str(pid_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            timeout=NO_HANG_S,
        ).returncode
    assert code == 0, log.read_text()
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + ORPHAN_EXIT_S
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in pids if _running(pid)]
    for pid in orphans:  # leave nothing behind on failure either
        os.kill(pid, 9)
    assert not orphans, f"workers {orphans} outlived their front end"


def _children():
    """This process's live child processes."""
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        pids.update(int(pid) for pid in (task / "children").read_text().split())
    return {pid for pid in pids if _running(pid)}


def _arena_maps():
    """This process's mappings of a shard lane arena."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    return [line for line in maps if "memfd:repro-lanes" in line]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
class TestLaneArenaLifecycle:
    @pytest.mark.parametrize("transport", ["process", "inline"])
    def test_stop_leaves_no_arena_and_no_helper_process(self, tables, transport):
        """The arenas are memfds: no ``/dev/shm`` segment to unlink and
        no resource tracker process, and ``stop()`` unmaps them."""
        shm = set(os.listdir("/dev/shm"))
        before = _children()
        addresses, vnids = _batch(4000)

        async def go():
            svc = await _service(tables, transport=transport).start()
            try:
                results, _ = await svc.serve(addresses, vnids)
                workers = {h.process.pid for h in svc.shards if h.process is not None}
                spawned, mapped = _children() - before, len(_arena_maps())
            finally:
                await svc.stop()
            # still referenced, so no collector unmapped them: stop() did
            return results, workers, spawned, mapped, _arena_maps()

        results, workers, spawned, mapped, after_stop = run_bounded(go())
        gc.collect()
        assert np.array_equal(results, LookupService(tables, Scheme.VS).serve(addresses, vnids)[0])
        # n_shards - 1 workers: the front end serves the last shard itself
        assert len(workers) == (1 if transport == "process" else 0)
        assert spawned == workers
        assert mapped == 2
        assert after_stop == []
        assert set(os.listdir("/dev/shm")) <= shm


def _edge_batches():
    """Batches of 0, 1, 10, 16,384, 100,000 and 50 lanes, then one whose
    VNIDs all fall in shard 1."""
    batches = [_batch(n, seed=20 + i) for i, n in enumerate((0, 1, 10, 16_384, 100_000, 50))]
    addresses, vnids = _batch(3000, seed=31)
    batches.append((addresses, 2 + vnids % 2))
    return batches


def _sync_reference(tables, scheme):
    """The synchronous service, metered so its trace carries ``vn_counts``."""
    return LookupService(
        tables, scheme, registry=MetricsRegistry(enabled=True), tracer=Tracer(enabled=False)
    )


class TestLaneArenaGrowth:
    @pytest.mark.parametrize("metrics", [True, False])
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_growing_and_edge_batches_match_sync(self, tables, scheme, metrics):
        batches = _edge_batches()

        async def go():
            async with _service(
                tables, scheme, transport="process", metrics=metrics
            ) as svc:
                served = [await svc.serve(a, v) for a, v in batches]
                return served, [h.arena.capacity for h in svc.shards]

        served, capacities = run_bounded(go())
        # each shard took about half of the 100,000-lane batch
        assert all(capacity >= 40_000 for capacity in capacities)
        sync = _sync_reference(tables, scheme)
        for (addresses, vnids), (results, trace) in zip(batches, served):
            expected, expected_trace = sync.serve(addresses, vnids)
            assert np.array_equal(results, expected)
            assert trace.vn_counts == expected_trace.vn_counts
            assert trace.n_packets == len(addresses)

    def test_a_shard_of_more_than_256_vns(self):
        k = 514
        big = generate_virtual_tables(k, 0.5, SyntheticTableConfig(n_prefixes=8, seed=4))
        addresses, vnids = _batch(5000, seed=12, k=k)

        async def go():
            async with _service(big, Scheme.VM, transport="process", n_shards=2) as svc:
                # the 257-VN shard is a worker's, not the front end's
                worker = svc.shards[0]
                assert worker.process is not None and worker.k_local == 257
                return await svc.serve(addresses, vnids)

        results, trace = run_bounded(go())
        expected, expected_trace = _sync_reference(big, Scheme.VM).serve(addresses, vnids)
        assert np.array_equal(results, expected)
        assert trace.vn_counts == expected_trace.vn_counts

    def test_lanes_beyond_the_arena_come_back_as_an_error(self, tables):
        """A ``lanes`` request larger than the worker's arena is refused
        with an error reply, and the worker keeps serving."""
        addresses, vnids = _batch(1000)

        async def go():
            async with _service(tables, transport="process") as svc:
                await svc.serve(addresses, vnids)
                handle = svc.shards[0]
                assert handle.arena.capacity == ARENA_GRAIN
                with pytest.raises(ShardError, match="do not fit"):
                    await svc._exchange([(handle, ("lanes", (1, ARENA_GRAIN + 1)))])
                return await svc.serve(addresses, vnids)

        results, _ = run_bounded(go())
        assert np.array_equal(results, LookupService(tables, Scheme.VS).serve(addresses, vnids)[0])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestFrontEndShard:
    """With the process transport the front end serves the last shard
    itself, on its event loop, while the workers walk theirs."""

    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_two_shards_run_one_worker(self, tables, scheme):
        before = _children()
        batches = [_batch(4000, seed=40), _batch(20_000, seed=41)]

        async def go():
            async with _service(tables, scheme, transport="process") as svc:
                worker, own = svc.shards
                assert _children() - before == {worker.process.pid}
                assert own.runtime is not None
                assert own.process is None and own.conn is None
                return [await svc.serve(a, v) for a, v in batches]

        served = run_bounded(go())
        sync = _sync_reference(tables, scheme)
        for (addresses, vnids), (results, trace) in zip(batches, served):
            expected, expected_trace = sync.serve(addresses, vnids)
            assert np.array_equal(results, expected)
            assert trace.vn_counts == expected_trace.vn_counts

    def test_one_shard_runs_no_worker(self, tables):
        before = _children()
        addresses, vnids = _batch(4000, seed=42)

        async def go():
            async with _service(tables, transport="process", n_shards=1) as svc:
                (own,) = svc.shards
                assert _children() == before
                assert own.runtime is not None and own.process is None
                return await svc.serve(addresses, vnids)

        results, trace = run_bounded(go())
        expected, expected_trace = _sync_reference(tables, Scheme.VS).serve(addresses, vnids)
        assert np.array_equal(results, expected)
        assert trace.vn_counts == expected_trace.vn_counts

    def test_workers_fork_before_the_front_end_builds_its_shard(self, tables, monkeypatch):
        """So the workers' builds overlap the front end's, and no worker
        inherits the front end's engines."""
        from repro.serve.shard import ShardRuntime

        front_end, built = os.getpid(), []
        init = ShardRuntime.__init__

        def recording(runtime, config):
            if os.getpid() == front_end:  # a forked worker runs its own copy
                built.append((config.shard_id, _children()))
            init(runtime, config)

        monkeypatch.setattr(ShardRuntime, "__init__", recording)
        before = _children()

        async def go():
            async with _service(tables, transport="process", n_shards=3) as svc:
                return {handle.process.pid for handle in svc.shards[:-1]}

        workers = run_bounded(go())
        assert len(workers) == 2
        assert [(shard_id, children - before) for shard_id, children in built] == [
            (2, workers)
        ]

    def test_an_error_from_its_own_shard_is_raised_after_the_worker_replied(self, tables):
        """A ``lanes`` request beyond the front end's own arena fails on the
        spot, but the exchange reads the worker's reply before it raises,
        so the next batch finds the pipe empty."""
        addresses, vnids = _batch(1000)

        async def go():
            async with _service(tables, transport="process") as svc:
                await svc.serve(addresses, vnids)
                worker, own = svc.shards
                assert own.arena.capacity == ARENA_GRAIN
                worker_lanes = int(np.count_nonzero(vnids < own.vn_lo))
                with pytest.raises(ShardError, match="do not fit"):
                    await svc._exchange(
                        [
                            (worker, ("lanes", (1, worker_lanes))),
                            (own, ("lanes", (1, ARENA_GRAIN + 1))),
                        ]
                    )
                worker_reply, own_reply = svc._in_flight
                assert worker_reply.result().n_packets == worker_lanes
                assert isinstance(own_reply.exception(), ShardError)
                assert not worker.conn.poll()
                return await svc.serve(addresses, vnids)

        results, _ = run_bounded(go())
        assert np.array_equal(results, LookupService(tables, Scheme.VS).serve(addresses, vnids)[0])


class TestReassembly:
    """The front end folds each shard's arena header into fresh arrays:
    what one ``serve()`` returns aliases no arena and no later batch."""

    @pytest.mark.parametrize("transport", ["process", "inline"])
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_a_later_batch_leaves_an_earlier_answer_unchanged(self, tables, scheme, transport):
        import copy

        first, second = _batch(4000, seed=60), _batch(4000, seed=61)

        async def go():
            async with _service(tables, scheme, transport=transport) as svc:
                results, trace = await svc.serve(*first)
                kept = results.copy(), copy.deepcopy(trace)
                later = await svc.serve(*second)
                for handle in svc.shards:
                    assert not np.shares_memory(results, handle.arena.results)
                return (results, trace), kept, later

        (results, trace), (kept_results, kept_trace), (later_results, _) = run_bounded(go())
        assert not np.array_equal(later_results, results)
        assert np.array_equal(results, kept_results)
        assert trace.vn_counts == kept_trace.vn_counts
        assert trace.vn_shed == kept_trace.vn_shed
        assert trace.latency == kept_trace.latency
        assert len(trace.engine_traces) == len(kept_trace.engine_traces)
        for engine, kept in zip(trace.engine_traces, kept_trace.engine_traces):
            assert engine.total_cycles == kept.total_cycles
            assert engine.n_packets == kept.n_packets
            assert np.array_equal(engine.accesses_per_stage, kept.accesses_per_stage)
            assert np.array_equal(engine.busy_cycles_per_stage, kept.busy_cycles_per_stage)
        sync = _sync_reference(tables, scheme)
        expected, expected_trace = sync.serve(*first)
        assert np.array_equal(results, expected)
        assert trace.vn_counts == expected_trace.vn_counts
        if scheme is not Scheme.VM:  # a VM shard's merged trie is its own
            for engine, ref in zip(trace.engine_traces, expected_trace.engine_traces):
                assert np.array_equal(engine.accesses_per_stage, ref.accesses_per_stage)
