"""The lane-split nominal walk: exact answers, traces and power.

A nominal batch of at least ``2 · CHUNK_LANES`` lanes is walked in
contiguous chunks at the same time (:func:`repro.serve.stages.walk_nominal`).
These tests pin that the split changes nothing a caller can see: the
answers match the linear-scan oracle and the one-chunk walk, every
:class:`~repro.iplookup.pipeline.PipelineTrace` and the per-VN counts
match the one-chunk walk exactly, and so does the power sampler's
running efficiency.  A bad lane in a helper's chunk raises only once
every chunk has finished, and a forked child walks on helper threads
of its own.  The chunk count is forced per test (``max_chunks``), so
the split is exercised whatever the host's CPU count.
"""

import asyncio
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import TrieError
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.obs.power import PowerTelemetrySampler
from repro.obs.registry import MetricsRegistry
from repro.serve import LookupService
from repro.serve import stages
from repro.serve.stages import CHUNK_LANES, walk_nominal
from repro.virt.schemes import Scheme
from tests.integration.test_sharded_service import run_bounded

K = 4
#: addresses the linear-scan oracle checks per broadcast chunk
ORACLE_CHUNK = 4096
#: one lane short of a split, the first sizes that split, the serve
#: benchmark's batch size and an odd size walked in three chunks
SIZES = (2 * CHUNK_LANES - 1, 2 * CHUNK_LANES, 2 * CHUNK_LANES + 1, 100_000, 3 * CHUNK_LANES + 7)
SCHEMES = (Scheme.NV, Scheme.VS, Scheme.VM)


def _chunks(n):
    """The chunk count each size is walked with (three for the odd size)."""
    return 3 if n == 3 * CHUNK_LANES + 7 else 2


@pytest.fixture(scope="module")
def tables():
    return generate_virtual_tables(K, 0.5, SyntheticTableConfig(n_prefixes=300, seed=23))


def _batch(n, seed):
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    return addresses, rng.integers(0, K, size=n, dtype=np.int64)


def _oracle(tables, addresses, vnids):
    """Each lane's answer by linear scan of its VN's table."""
    expected = np.empty(len(addresses), dtype=np.int64)
    for vn, table in enumerate(tables):
        mine = np.flatnonzero(vnids == vn)
        for first in range(0, len(mine), ORACLE_CHUNK):
            lanes = mine[first : first + ORACLE_CHUNK]
            expected[lanes] = table.lookup_linear_batch(addresses[lanes])
    return expected


@pytest.fixture(scope="module")
def batches(tables):
    """``n -> (addresses, vnids, oracle answers)`` for every size."""
    out = {}
    for seed, n in enumerate(SIZES):
        addresses, vnids = _batch(n, seed=100 + seed)
        out[n] = (addresses, vnids, _oracle(tables, addresses, vnids))
    return out


def _assert_traces_equal(split, serial):
    assert len(split) == len(serial)
    for a, b in zip(split, serial):
        assert (a.total_cycles, a.n_packets) == (b.total_cycles, b.n_packets)
        assert np.array_equal(a.accesses_per_stage, b.accesses_per_stage)
        assert np.array_equal(a.busy_cycles_per_stage, b.busy_cycles_per_stage)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", SIZES)
def test_split_walk_is_the_one_chunk_walk(tables, batches, scheme, n):
    addresses, vnids, expected = batches[n]
    group = LookupService(tables, scheme).group
    group.max_chunks = 1
    serial = walk_nominal(group, addresses, vnids, 0.5, track_vns=True)
    chunks = _chunks(n) if n >= 2 * CHUNK_LANES else 1
    group.max_chunks = _chunks(n)
    assert len(group.chunk_bounds(n)) - 1 == chunks
    results, traces, vn_counts = walk_nominal(group, addresses, vnids, 0.5, track_vns=True)
    assert len(group.workspaces) == chunks
    assert results.dtype == serial[0].dtype
    assert np.array_equal(results, expected)
    assert np.array_equal(results, serial[0])
    _assert_traces_equal(traces, serial[1])
    assert vn_counts == serial[2] == tuple(np.bincount(vnids, minlength=K).tolist())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_running_power_is_bit_identical(tables, batches, scheme):
    """The sampler folds each batch's traces: a run of split batches
    must leave exactly the running mW/Gbps of the same run walked in
    one chunk."""
    alpha = None
    readings = []
    for chunks in (1, 3):
        registry = MetricsRegistry(enabled=True)
        service = LookupService(tables, scheme, registry=registry)
        if scheme is Scheme.VM:
            alpha = service.merged().pairwise_alpha
        service.power_sampler = PowerTelemetrySampler(scheme, K, alpha=alpha, registry=registry)
        service.group.max_chunks = chunks
        for n in SIZES:
            addresses, vnids, expected = batches[n]
            assert np.array_equal(service.serve(addresses, vnids)[0], expected)
        assert len(service.group.workspaces) == chunks
        readings.append(service.power_sampler.running_mw_per_gbps)
    assert readings[0] > 0.0
    assert readings[1] == readings[0]


def test_helper_error_is_raised_after_every_chunk_finished(tables, batches, monkeypatch):
    """An out-of-range VNID only in a helper's chunk raises TrieError,
    but only once the other helper's (slow) chunk is done too: no
    chunk may still write into the batch's buffers after the raise."""
    n = 3 * CHUNK_LANES + 7
    addresses, vnids, _ = batches[n]
    service = LookupService(tables, Scheme.VS)
    group = service.group
    group.max_chunks = 3
    bounds = group.chunk_bounds(n)
    bad = vnids.copy()
    bad[bounds[1] + 5] = K  # lies in chunk 1, a helper's
    finished = []
    kernel = stages._forest_chunk

    def slow_kernel(group, workspace, addresses, vnids, results):
        if threading.current_thread() is not threading.main_thread() and vnids.max() < K:
            time.sleep(0.3)  # the healthy helper chunk outlasts the raise
        hist = kernel(group, workspace, addresses, vnids, results)
        finished.append(len(addresses))
        return hist

    monkeypatch.setattr(stages, "_forest_chunk", slow_kernel)
    with pytest.raises(TrieError, match="engine out of range"):
        walk_nominal(group, addresses, bad)
    assert sorted(finished) == sorted([bounds[1] - bounds[0], bounds[3] - bounds[2]])
    monkeypatch.undo()
    for size in (n, 100_000):
        addresses, vnids, expected = batches[size]
        assert np.array_equal(service.serve(addresses, vnids)[0], expected)


def test_many_chunks_with_a_short_switch_interval(tables, batches):
    """More chunks than cores, threads switched every microsecond: every
    batch still answers as the one-chunk walk does."""
    addresses, vnids, expected = batches[100_000]
    service = LookupService(tables, Scheme.VM)
    service.group.max_chunks = 1
    serial = service.serve(addresses, vnids)[1]
    service.group.max_chunks = 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            results, trace = service.serve(addresses, vnids)
            assert np.array_equal(results, expected)
            _assert_traces_equal(trace.engine_traces, serial.engine_traces)
    finally:
        sys.setswitchinterval(interval)


def _answer_in_child(service, addresses, vnids, expected):
    """Forked child: serve a split batch on helper threads of its own."""
    results, _ = service.serve(addresses, vnids)
    walkers = [t for t in threading.enumerate() if t.name.startswith("repro-walk")]
    if not np.array_equal(results, expected) or not walkers:
        raise SystemExit(1)


async def _exited(process):
    while process.exitcode is None:
        await asyncio.sleep(0.02)


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_walks_on_its_own_helpers(tables, batches):
    """The parent's helper thread does not survive a fork: the child's
    group must make its own pool instead of waiting on the copy."""
    addresses, vnids, expected = batches[100_000]
    service = LookupService(tables, Scheme.VS)
    service.group.max_chunks = 2
    assert np.array_equal(service.serve(addresses, vnids)[0], expected)
    assert any(t.name.startswith("repro-walk") for t in threading.enumerate())
    child = multiprocessing.get_context("fork").Process(
        target=_answer_in_child, args=(service, addresses, vnids, expected)
    )
    child.start()
    try:
        run_bounded(_exited(child))
    finally:
        if child.exitcode is None:
            child.kill()
            child.join(10)
    assert child.exitcode == 0
