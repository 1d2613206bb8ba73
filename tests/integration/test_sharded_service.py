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
* a dead worker raises :class:`~repro.errors.ShardError` instead of
  hanging, and concurrent callers of one service each get their own
  answers;
* per-shard power attribution sums to the single-process sampler's
  total within 1%;
* the merged multi-shard exposition is consistent: the sum of the
  shard lookup counters equals the client-observed admitted count.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShardError
from repro.faults.injectors import BramWriteStorm, EngineStall
from repro.faults.plan import FaultPlan, FaultWindow
from repro.faults.policy import SHED_RESULT
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
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


#: bytes a sub-batch's request and reply may add beyond their per-lookup
#: arrays: the message tuples, the trace's per-engine activity, its
#: latency report and the pickle framing
PIPE_OVERHEAD_BYTES = 4096


class TestPipePayload:
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_a_nominal_sub_batch_crosses_the_pipe_in_14_bytes_per_lookup(
        self, tables, scheme, monkeypatch
    ):
        """4-byte addresses and 1-byte local VNIDs out, 8-byte answers back,
        once: the engine traces carry activity only."""
        from multiprocessing.reduction import ForkingPickler

        from repro.serve import frontend

        sizes = []
        exchange = frontend.ShardedLookupService._exchange

        async def measured(svc, messages):
            payloads = await exchange(svc, messages)
            for (_, message), payload in zip(messages, payloads):
                if message[0] == "serve":
                    sent = ForkingPickler.dumps(message)
                    received = ForkingPickler.dumps(("ok", payload))
                    sizes.append((len(message[1].addresses), len(sent) + len(received)))
            return payloads

        monkeypatch.setattr(frontend.ShardedLookupService, "_exchange", measured)
        addresses, vnids = _batch(8000)

        async def go():
            async with _service(tables, scheme) as svc:
                return await svc.serve(addresses, vnids)

        results, _ = run(go())
        assert np.array_equal(results, LookupService(tables, scheme).serve(addresses, vnids)[0])
        assert len(sizes) == 2
        for n, pickled in sizes:
            assert n > 3000
            assert pickled <= 14 * n + PIPE_OVERHEAD_BYTES, (n, pickled, pickled / n)


def _fault(kind, scheme):
    """One injector aimed at shard 1's first engine (VM has only engine 0)."""
    engine = 0 if scheme is Scheme.VM else 2
    if kind == "offline":
        return EngineStall(engine, 0.0)
    if kind == "half":
        return EngineStall(engine, 0.5)
    return BramWriteStorm(0.5, 0.3)


class TestFaultParity:
    """Under a fault plan the sharded tier sheds exactly what the sync
    tier sheds: same answers, same per-VN shed counts."""

    @staticmethod
    def _compare(tables, scheme, rho, fault, transport):
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

        results, trace = run(go())
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

    @pytest.mark.parametrize("kind", ["offline", "half", "storm"])
    @pytest.mark.parametrize("rho", [0.5, 0.8])
    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_inline_sheds_like_sync(self, tables, scheme, rho, kind):
        self._compare(tables, scheme, rho, _fault(kind, scheme), "inline")

    def test_process_sheds_like_sync(self, tables):
        self._compare(tables, Scheme.VS, 0.8, _fault("offline", Scheme.VS), "process")


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
                victim = svc.shards[1].process
                victim.terminate()
                victim.join()
                with pytest.raises(ShardError, match="shard 1 worker died"):
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
