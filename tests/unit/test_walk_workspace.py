"""The walk's lane workspace: reuse without aliasing, bounds, page faults.

Every walk writes its lane temporaries into a
:class:`~repro.iplookup.trie.WalkWorkspace`; each
:class:`~repro.serve.stages.EngineGroup` owns one and reuses it batch
after batch.  These tests pin what that reuse must not change — the
answers, checked against the linear-scan oracle, whatever sizes the
batches before them had — and what it buys: a steady-state batch
takes (almost) no minor page faults.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TrieError
from repro.faults.injectors import EngineStall, TransientWalkFailure
from repro.faults.plan import FaultPlan, FaultWindow
from repro.faults.policy import SHED_RESULT, DegradationPolicy
from repro.iplookup.prefix6 import Prefix6
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.iplookup.trie import UnibitTrie, WalkWorkspace, freeze_forest
from repro.serve import LookupService
from repro.virt.schemes import Scheme

K = 4
#: addresses the linear-scan oracle checks per broadcast chunk
ORACLE_CHUNK = 4096


@pytest.fixture(scope="module")
def tables():
    return generate_virtual_tables(K, 0.5, SyntheticTableConfig(n_prefixes=300, seed=21))


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


@pytest.mark.parametrize("scheme", [Scheme.VS, Scheme.VM])
class TestReuse:
    def test_answers_survive_the_next_batch(self, tables, scheme):
        """The answers are fresh arrays, not views of the workspace."""
        service = LookupService(tables, scheme)
        first, second = _batch(20_000, seed=1), _batch(30_000, seed=2)
        answers, _ = service.serve(*first)
        kept = answers.copy()
        service.serve(*second)
        assert np.array_equal(answers, kept)
        assert np.array_equal(answers, _oracle(tables, *first))

    def test_size_sequence_matches_the_oracle(self, tables, scheme):
        """Grown, shrunk, empty and regrown buffers answer alike."""
        service = LookupService(tables, scheme)
        for seed, n in enumerate((100_000, 10, 0, 50_000, 100_000)):
            addresses, vnids = _batch(n, seed=10 + seed)
            answers, trace = service.serve(addresses, vnids)
            assert np.array_equal(answers, _oracle(tables, addresses, vnids)), n
            assert sum(t.n_packets for t in trace.engine_traces) == n

    def test_degraded_answers_do_not_depend_on_earlier_batches(self, tables, scheme):
        """Under a fault plan (shedding and a retried walk), one service
        serving batches of changing sizes answers each exactly as a
        fresh service does, and every admitted lane as the oracle."""
        engine = 0 if scheme.shares_engine else 1
        plan = FaultPlan(
            (
                FaultWindow(0, 8, EngineStall(engine, 0.3)),
                FaultWindow(0, 8, TransientWalkFailure(engine, 1)),
            )
        )
        policy = DegradationPolicy(max_retries=1)
        service = LookupService(tables, scheme, fault_plan=plan, policy=policy)
        for index, n in enumerate((40_000, 500, 0, 25_000)):
            addresses, vnids = _batch(n, seed=30 + index)
            answers, trace = service.serve(addresses, vnids)
            fresh = LookupService(tables, scheme, fault_plan=plan, policy=policy)
            fresh.batches_served = index
            assert np.array_equal(answers, fresh.serve(addresses, vnids)[0])
            shed = answers == SHED_RESULT
            assert shed.sum() == trace.n_shed
            if n:
                assert trace.retries == 1  # the walk failed once and was retried
            else:
                # nothing to walk: no walk, so no failure and no retry
                assert (trace.retries, trace.walk_failures) == (0, 0)
            admitted = ~shed
            expected = _oracle(tables, addresses[admitted], vnids[admitted])
            assert np.array_equal(answers[admitted], expected)
            if n >= 500:
                assert 0 < trace.n_shed < n
        if not scheme.shares_engine:
            # a non-empty batch that gives the failing engine nothing
            addresses, vnids = _batch(2000, seed=40)
            vnids[vnids == engine] = 0
            _, trace = service.serve(addresses, vnids)
            assert trace.fault_labels  # the window is still open
            assert (trace.retries, trace.walk_failures) == (0, 0)


class TestJumpBounds:
    """The engine is the one index from caller input: it is checked at
    both ends, not wrapped."""

    @pytest.fixture(scope="class")
    def forest(self, tables):
        return freeze_forest([UnibitTrie(t) for t in tables[:2]])

    @pytest.mark.parametrize("engine", [2, 7, -1, -2])
    def test_scalar_engine_out_of_range_raises(self, forest, engine):
        with pytest.raises(TrieError, match="engine out of range"):
            forest.walk(np.array([1, 2, 3], dtype=np.uint32), engine)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_array_engine_out_of_range_raises(self, forest, bad):
        engines = np.array([0, 1, bad, 0], dtype=np.int64)
        with pytest.raises(TrieError, match="engine out of range"):
            forest.walk(np.zeros(4, dtype=np.uint32), engines, WalkWorkspace())

    def test_negative_engine_no_longer_reads_the_last_engine(self, forest):
        addresses = np.array([0x0A000001, 0xC0A80101], dtype=np.uint32)
        with pytest.raises(TrieError):
            forest.walk(addresses, np.array([-1, -1]))

    def test_wide_engine_out_of_range_raises(self):
        """128-bit lanes shift as Python integers but share the check."""
        trie = UnibitTrie(width=128)
        trie.insert(Prefix6.normalized(0x2001 << 112, 40), 5)
        forest = freeze_forest([trie])
        address = (0x2001 << 112) | 1
        assert forest.tag[forest.walk([address], 0)].tolist() == [40]
        for engine in (1, -1):
            with pytest.raises(TrieError, match="engine out of range"):
                forest.walk([address], engine)


#: minor page faults per steady-state batch, measured in a fresh
#: interpreter so that no earlier test's heap history hides them
_FAULTS_PER_BATCH = """
import resource, sys
import numpy as np
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.serve import LookupService
from repro.virt.schemes import Scheme

scheme, n = Scheme[sys.argv[1]], int(sys.argv[2])
tables = generate_virtual_tables(4, 0.5, SyntheticTableConfig(n_prefixes=300, seed=21))
service = LookupService(tables, scheme)
rng = np.random.default_rng(5)
addresses = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
vnids = rng.integers(0, 4, size=n, dtype=np.int64)
for _ in range(3):
    service.serve(addresses, vnids)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    service.serve(addresses, vnids)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.parametrize(("scheme", "n"), [("VS", 100_000), ("VM", 50_000)])
def test_steady_state_batches_take_almost_no_page_faults(scheme, n):
    """Fresh lane-sized walk temporaries came back from the allocator as
    new pages on every large batch (hundreds of minor faults each); the
    group's workspace is reused instead."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_BATCH, scheme, str(n)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    faults = float(run.stdout)
    assert faults < 10, f"{faults:.1f} minor page faults per {n:,}-lane {scheme} batch"
