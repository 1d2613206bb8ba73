"""Performance benches: lookup-substrate throughput.

Unlike the figure benches, these time the library's hot paths — trie
construction, batch lookups, leaf pushing, merging — so performance
regressions in the data structures are caught alongside the science.
"""

import time

import numpy as np
import pytest

from repro.iplookup.leafpush import leaf_push
from repro.iplookup.multibit import MultibitTrie
from repro.iplookup.patricia import PatriciaTrie
from repro.iplookup.synth import SyntheticTableConfig, generate_table, generate_virtual_tables
from repro.iplookup.trie import UnibitTrie
from repro.obs.registry import REGISTRY
from repro.serve.service import LookupService
from repro.virt.merged import merge_tries

TABLE = SyntheticTableConfig(n_prefixes=2000, seed=5)


@pytest.fixture(scope="module")
def table():
    return generate_table(TABLE)


@pytest.fixture(scope="module")
def pushed(table):
    return leaf_push(UnibitTrie(table))


@pytest.fixture(scope="module")
def addresses():
    rng = np.random.default_rng(9)
    return rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(np.uint32)


def test_perf_table_generation(benchmark):
    table = benchmark(generate_table, TABLE)
    assert len(table) == 2000


def test_perf_trie_build(benchmark, table):
    trie = benchmark(UnibitTrie, table)
    assert trie.num_prefixes == 2000


def test_perf_leaf_push(benchmark, table):
    trie = UnibitTrie(table)
    pushed = benchmark(leaf_push, trie)
    assert pushed.is_leaf_pushed()


def test_perf_batch_lookup(benchmark, pushed, addresses):
    """Vectorized lookup rate over 20 k addresses."""
    results = benchmark(pushed.lookup_batch, addresses)
    assert len(results) == len(addresses)


def test_perf_scalar_lookup(benchmark, pushed, addresses):
    def run_1000():
        for a in addresses[:1000]:
            pushed.lookup(int(a))

    benchmark(run_1000)


def test_perf_multibit_batch_lookup(benchmark, table, addresses):
    trie = MultibitTrie(table, stride=4)
    results = benchmark(trie.lookup_batch, addresses)
    assert len(results) == len(addresses)


def test_perf_patricia_build(benchmark, table):
    patricia = benchmark(PatriciaTrie, table)
    assert patricia.num_nodes > 0


def test_perf_merge_four_tables(benchmark):
    tables = generate_virtual_tables(4, 0.5, SyntheticTableConfig(n_prefixes=800, seed=6))
    tries = [UnibitTrie(t) for t in tables]
    merged = benchmark(merge_tries, tries)
    assert merged.k == 4


def test_perf_serve_metrics_enabled(benchmark):
    """Serve throughput with the metrics registry enabled."""
    tables = generate_virtual_tables(4, 0.5, SyntheticTableConfig(n_prefixes=800, seed=6))
    service = LookupService(tables, n_stages=28)
    rng = np.random.default_rng(3)
    addresses = rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(np.uint32)
    vnids = rng.integers(0, 4, size=20_000, dtype=np.int64)
    REGISTRY.enable()
    try:
        results = benchmark(service.serve, addresses, vnids)
    finally:
        REGISTRY.disable()
        REGISTRY.clear()
    assert len(results[0]) == len(addresses)


def test_serve_metrics_overhead():
    """Gate: metrics-enabled serving within 5 % of the disabled path.

    Timed with plain wall clocks in one process, so both sides serve
    with identical state; the disabled path is the byte-identical fast
    path (one flag check), so this bounds the per-batch metering cost.
    The two sides alternate call by call, each pair swapping which side
    goes first, and the medians are compared: a host burst then lands
    on both sides alike, where timing all of one side before all of the
    other once let a burst over one side's calls fail identical code.
    The 50k batch is below two walk chunks, so it never splits.

    Note: the nominal ``LookupService._latency_estimate()`` is now
    cached after the first batch (the scheme/ρ/f inputs are fixed at
    construction). Before/after on this rig: ~2.2 µs per call uncached
    vs ~0.1 µs cached (≈27×) — ~0.1 % of a 20 k-lookup batch, so the
    cache tightens small-batch serving without moving this 5 % gate.
    """
    tables = generate_virtual_tables(4, 0.5, SyntheticTableConfig(n_prefixes=800, seed=6))
    service = LookupService(tables, n_stages=28)
    rng = np.random.default_rng(3)
    addresses = rng.integers(0, 2**32, size=50_000, dtype=np.uint64).astype(np.uint32)
    vnids = rng.integers(0, 4, size=50_000, dtype=np.int64)

    def timed(enabled: bool) -> float:
        REGISTRY.enabled = enabled
        start = time.perf_counter()
        service.serve(addresses, vnids)
        return time.perf_counter() - start

    times: dict[bool, list[float]] = {False: [], True: []}
    try:
        # warm both sides (frozen arrays, metric children, the caches
        # and branch history of each path): the first few pairs after
        # set-up read the enabled side twice as dear as it settles to
        for _ in range(10):
            timed(False)
            timed(True)
        for pair in range(7):
            for enabled in (False, True) if pair % 2 == 0 else (True, False):
                times[enabled].append(timed(enabled))
    finally:
        REGISTRY.disable()
        REGISTRY.clear()
    disabled = float(np.median(times[False]))
    enabled = float(np.median(times[True]))
    assert enabled <= disabled * 1.05, (
        f"metrics overhead {enabled / disabled - 1:+.1%} exceeds 5% "
        f"(disabled {disabled * 1e3:.2f} ms, enabled {enabled * 1e3:.2f} ms)"
    )
