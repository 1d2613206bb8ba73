"""Shard worker runtime, its reply's pickled form and fault-plan scoping
(repro.serve.shard)."""

import threading
from dataclasses import fields
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.faults.injectors import BramWriteStorm, EngineStall, TransientWalkFailure
from repro.faults.plan import FaultPlan, FaultWindow
from repro.iplookup.pipeline import PipelineTrace
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.serve.service import ServeTrace
from repro.serve.shard import LaneArena, ShardBatchRequest, ShardConfig, ShardRuntime
from repro.virt.queueing import md1_wait_ns
from repro.virt.schemes import Scheme

K = 4


@pytest.fixture(scope="module")
def tables():
    config = SyntheticTableConfig(n_prefixes=200, seed=5)
    return generate_virtual_tables(K, 0.5, config)


def _config(tables, lo, hi, **kwargs):
    return ShardConfig(
        shard_id=lo,
        vn_base=lo,
        tables=tuple(tables[lo:hi]),
        scheme=kwargs.pop("scheme", Scheme.VS),
        **kwargs,
    )


def _request(k_local, n=400, seed=9, batch_index=0):
    rng = np.random.default_rng(seed)
    return ShardBatchRequest(
        batch_index=batch_index,
        addresses=rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32),
        vnids=rng.integers(0, k_local, size=n, dtype=np.int64),
        queue_seed=seed,
    )


class TestShardRuntime:
    def test_serves_local_vn_range(self, tables):
        runtime = ShardRuntime(_config(tables, 2, 4))
        request = _request(2)
        result = runtime.serve(request)
        for local_vn in (0, 1):
            mask = request.vnids == local_vn
            oracle = tables[2 + local_vn].lookup_linear_batch(
                request.addresses[mask]
            )
            assert np.array_equal(result.results[mask], oracle)

    def test_deterministic_replay(self, tables):
        a = ShardRuntime(_config(tables, 0, 2)).serve(_request(2))
        b = ShardRuntime(_config(tables, 0, 2)).serve(_request(2))
        assert np.array_equal(a.results, b.results)
        assert a.trace.vn_counts == b.trace.vn_counts

    def test_publishes_modeled_queue_wait_only(self, tables):
        runtime = ShardRuntime(_config(tables, 0, 2))
        runtime.serve(_request(2, n=20_000))
        snapshot = runtime.snapshot()
        names = {f.name for f in snapshot.families}
        # the shard's own LookupService publishes the closed-form wait;
        # the per-sub-batch queue simulation and its gauges are gone
        assert "repro_serve_queue_wait_ns" in names
        assert "repro_shard_queue_wait_ns" not in names
        assert "repro_shard_queue_error" not in names
        wait = runtime.registry.get("repro_serve_queue_wait_ns").labels("VS").value
        assert wait == md1_wait_ns(0.5, runtime.service.frequency_mhz)

    def test_batch_clock_pinned_to_frontend_index(self, tables):
        """The same shard must consult its fault plan at the frontend's
        batch index, not its own serve count."""
        plan = FaultPlan(
            (FaultWindow(start=5, duration=1, fault=EngineStall(0, 0.0)),)
        )
        runtime = ShardRuntime(_config(tables, 0, 2, fault_plan=plan))
        nominal = runtime.serve(_request(2, batch_index=0))
        assert nominal.trace.n_shed == 0
        faulted = runtime.serve(_request(2, batch_index=5))
        assert faulted.trace.n_shed > 0

    def test_walks_a_large_sub_batch_without_helper_threads(self, tables):
        """The tier already walks its shards in parallel, so a shard walks
        even a sub-batch large enough to split on its caller's thread."""
        runtime = ShardRuntime(_config(tables, 0, 2))
        request = _request(2, n=100_000)
        before = set(threading.enumerate())
        result = runtime.serve(request)
        assert set(threading.enumerate()) <= before
        assert len(runtime.service.group.workspaces) == 1
        for local_vn in (0, 1):
            lanes = np.flatnonzero(request.vnids == local_vn)
            for first in range(0, len(lanes), 4096):  # bounds the scan's matrix
                chunk = lanes[first : first + 4096]
                oracle = tables[local_vn].lookup_linear_batch(request.addresses[chunk])
                assert np.array_equal(result.results[chunk], oracle)

    def test_handle_protocol(self, tables):
        runtime = ShardRuntime(_config(tables, 0, 2))
        request = _request(2)
        n = len(request.addresses)
        arena = LaneArena.create(n)
        try:
            assert runtime.handle(("arena", arena)) == ("ok", None)
            arena.addresses[:n] = request.addresses
            arena.vnids[:n] = request.vnids
            op, trace = runtime.handle(("lanes", (0, n)))
            assert op == "ok" and trace.n_packets == n
            assert np.array_equal(arena.results[:n], runtime.serve(request).results)
            op, snapshot = runtime.handle(("metrics", None))
            assert op == "ok" and snapshot.shard == "0"
            assert runtime.handle(("stop", None)) == ("bye", None)
            op, message = runtime.handle(("unknown", None))
            assert op == "error" and "unknown" in message
        finally:
            arena.close()

    def test_handle_wraps_failures_as_error_replies(self, tables):
        runtime = ShardRuntime(_config(tables, 0, 2))
        op, message = runtime.handle(("lanes", (0, 3)))
        assert op == "error" and "no lane arena" in message
        arena = LaneArena.create(3)
        try:
            runtime.handle(("arena", arena))
            arena.addresses[:3] = 0
            arena.vnids[:3] = (0, 1, 2)  # VN 2 is not this shard's
            op, message = runtime.handle(("lanes", (0, 3)))
            assert op == "error" and "vnid_range" in message
            op, message = runtime.handle(("lanes", (0, arena.capacity + 1)))
            assert op == "error" and "do not fit" in message
        finally:
            arena.close()


def _round_trip(value):
    return ForkingPickler.loads(bytes(ForkingPickler.dumps(value)))


def _assert_traces_equal(copy, original):
    for field in fields(PipelineTrace):
        if not field.compare:
            continue
        a, b = getattr(copy, field.name), getattr(original, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == np.int64 and a.flags.writeable, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


class TestReplyPickling:
    """A shard's reply, its ServeTrace, crosses the pipe pickled: the
    copy must equal the original, with int64 arrays a caller may write."""

    @pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
    def test_serve_trace_round_trips(self, tables, scheme):
        plan = FaultPlan((FaultWindow(0, 1, EngineStall(0, 0.0)),))
        runtime = ShardRuntime(_config(tables, 0, 2, scheme=scheme, fault_plan=plan))
        for batch_index in (0, 1):  # degraded, then nominal
            trace = runtime.serve(_request(2, batch_index=batch_index)).trace
            copy = _round_trip(trace)
            assert isinstance(copy, ServeTrace)
            for field in fields(ServeTrace):
                if field.name != "engine_traces":
                    assert getattr(copy, field.name) == getattr(trace, field.name)
            assert len(copy.engine_traces) == len(trace.engine_traces)
            for a, b in zip(copy.engine_traces, trace.engine_traces):
                _assert_traces_equal(a, b)

    def test_pipeline_trace_round_trips_writeable(self, tables):
        trace = ShardRuntime(_config(tables, 0, 2)).serve(_request(2)).trace
        original = trace.engine_traces[0]
        copy = _round_trip(original)
        _assert_traces_equal(copy, original)
        assert copy.total_accesses == original.total_accesses
        copy.accesses_per_stage[0] += 1  # its own memory, not the pickle's
        assert copy.accesses_per_stage[0] == original.accesses_per_stage[0] + 1


class TestScopedPlans:
    def test_engine_faults_rebased_to_local_indices(self):
        plan = FaultPlan(
            (
                FaultWindow(0, 2, EngineStall(2, 0.5)),
                FaultWindow(1, 2, TransientWalkFailure(3, 1)),
            )
        )
        scoped = plan.scoped_to_engines((2, 3))
        kinds = {(w.fault.kind, w.fault.engine) for w in scoped.windows}
        assert kinds == {("stall", 0), ("transient_walk", 1)}

    def test_other_shards_faults_dropped(self):
        plan = FaultPlan((FaultWindow(0, 2, EngineStall(0, 0.5)),))
        scoped = plan.scoped_to_engines((2, 3))
        assert scoped.windows == ()

    def test_device_wide_storm_reaches_every_shard(self):
        storm = BramWriteStorm(write_rate=0.2, slot_steal_fraction=0.3)
        plan = FaultPlan((FaultWindow(0, 3, storm),))
        scoped = plan.scoped_to_engines((5, 6))
        assert len(scoped.windows) == 1
        assert scoped.windows[0].fault == storm

    def test_windows_keep_their_batch_intervals(self):
        plan = FaultPlan((FaultWindow(7, 4, EngineStall(1, 0.0)),))
        scoped = plan.scoped_to_engines((1,))
        assert scoped.windows[0].start == 7
        assert scoped.windows[0].duration == 4
