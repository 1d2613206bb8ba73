"""The metered serve tail's accounting against the formulas it replaced.

A nominal VM batch takes its depth histogram, its per-VN lookup counts
and its node-visit increment from one ``bincount`` of the
``level · K + vnid`` bins the merged engine's packed gather yields.  A
metered batch's duty cycle is a Python fold over engine traces whose
access totals are summed once.  Each is checked here against the
computation it replaced: ``bincount(depths)``, ``bincount(vnids)`` and
``depths.sum()`` for the histogram, and the NumPy duty formula — each
engine's per-stage ``accesses / total_cycles`` averaged, then weighted
by packets across engines — within 1e-12 relative.  NumPy sums 8 or
more terms pairwise, so K up to 16 exercises a summation order the
sequential fold does not share.
"""

import numpy as np
import pytest

from repro.faults.injectors import EngineStall
from repro.faults.plan import FaultPlan, FaultWindow
from repro.iplookup.pipeline import trace_from_histogram
from repro.iplookup.prefix6 import parse_prefix6
from repro.iplookup.rib import RoutingTable
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.iplookup.trie import UnibitTrie, WalkWorkspace
from repro.obs.registry import REGISTRY
from repro.serve import LookupService
from repro.serve.stages import EngineGroup, walk_nominal
from repro.virt.merged import merge_tries
from repro.virt.schemes import Scheme

RTOL = 1e-12

_TABLES: dict[int, list[RoutingTable]] = {}


def tables_for(k: int) -> list[RoutingTable]:
    if k not in _TABLES:
        config = SyntheticTableConfig(n_prefixes=120, seed=40 + k)
        _TABLES[k] = generate_virtual_tables(k, 0.5, config)
    return _TABLES[k]


def batch(k: int, kind: str, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = {"random": 3000, "empty": 0, "single_vn": 700}[kind]
    addresses = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    if kind == "single_vn":
        return addresses, np.full(n, k - 1, dtype=np.int64)
    return addresses, rng.integers(0, k, size=n, dtype=np.int64)


def visit_count() -> float:
    family = REGISTRY.get("repro_trie_node_visits_total")
    if family is None:
        return 0.0
    return sum(child.value for key, child in family.samples() if key == ("merged",))


@pytest.fixture()
def metrics_on():
    with REGISTRY.enabled_scope(True):
        yield
    REGISTRY.clear()


class TestFusedVmHistogram:
    @pytest.mark.parametrize("kind", ["random", "empty", "single_vn"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_nominal_walk_equals_the_three_separate_counts(self, k, kind, metrics_on):
        group = EngineGroup(tables_for(k), Scheme.VM, None)
        addresses, vnids = batch(k, kind)
        with REGISTRY.enabled_scope(False):
            depths, expected = group.merged.walk_batch(addresses, vnids)
        before = visit_count()
        results, (trace,), vn_counts = walk_nominal(
            group, addresses, vnids, track_vns=True
        )
        assert np.array_equal(results, expected)
        assert vn_counts == tuple(np.bincount(vnids, minlength=k).tolist())
        reference = trace_from_histogram(np.bincount(depths, minlength=1), group.n_stages)
        assert np.array_equal(trace.accesses_per_stage, reference.accesses_per_stage)
        assert trace.n_packets == len(addresses)
        assert visit_count() - before == int(depths.sum()) + len(depths)
        # untracked, the same walk attaches no counts
        _, _, untracked = walk_nominal(group, addresses, vnids)
        assert untracked == ()

    @pytest.mark.parametrize("kind", ["random", "empty", "single_vn"])
    def test_128_bit_merged_trie(self, kind):
        one, two = RoutingTable(name="a"), RoutingTable(name="b")
        one.add(parse_prefix6("2001:db8::/32"), 1)
        one.add(parse_prefix6("2001:db8:1::/48"), 2)
        two.add(parse_prefix6("2001:db8::/32"), 3)
        two.add(parse_prefix6("::/0"), 4)
        merged = merge_tries([UnibitTrie(t, width=128) for t in (one, two)])
        rng = np.random.default_rng(9)
        n = {"random": 400, "empty": 0, "single_vn": 50}[kind]
        prefix = 0x20010DB8 << 96
        addresses = np.array(
            [prefix | int(x) << 64 for x in rng.integers(0, 4, size=n)], dtype=object
        )
        if kind == "single_vn":
            vnids = np.ones(n, dtype=np.int64)
        else:
            vnids = rng.integers(0, 2, size=n, dtype=np.int64)
        hist, results = merged.walk_histogram(addresses, vnids, WalkWorkspace())
        depths, expected = merged.walk_batch(addresses, vnids)
        assert np.array_equal(results, expected)
        assert np.array_equal(hist.sum(axis=1), np.bincount(depths, minlength=len(hist)))
        assert np.array_equal(hist.sum(axis=0), np.bincount(vnids, minlength=2))
        trace = trace_from_histogram(hist.sum(axis=1), merged.structure.depth())
        assert trace.total_accesses + trace.n_packets == int(depths.sum()) + n


def numpy_duty(trace) -> float:
    """The duty formula the fold replaced, NumPy on both levels."""
    per_engine = []
    for t in trace.engine_traces:
        stage = (
            np.zeros(t.n_stages)
            if t.total_cycles == 0
            else t.accesses_per_stage / t.total_cycles
        )
        per_engine.append(float(stage.mean()) if len(stage) else 0.0)
    weights = np.array([t.n_packets for t in trace.engine_traces], dtype=float)
    if weights.sum() == 0:
        return 0.0
    return float((np.array(per_engine) * weights).sum() / weights.sum())


@pytest.mark.parametrize("scheme", [Scheme.NV, Scheme.VS, Scheme.VM])
@pytest.mark.parametrize("k", [1, 4, 8, 13, 16])
@pytest.mark.parametrize("kind", ["empty", "nominal", "degraded"])
def test_duty_fold_equals_the_numpy_formula(scheme, k, kind):
    plan = None
    if kind == "degraded":
        engine = 0 if scheme.shares_engine else k - 1
        plan = FaultPlan((FaultWindow(0, 4, EngineStall(engine, 0.3)),))
    service = LookupService(
        tables_for(k), scheme, n_stages=None, offered_load_fraction=0.6, fault_plan=plan
    )
    addresses, vnids = batch(k, "empty" if kind == "empty" else "random", seed=k)
    _, trace = service.serve(addresses, vnids)
    if kind == "degraded":
        assert trace.n_shed > 0
    want = numpy_duty(trace)
    got = trace.mean_duty_cycle()
    assert got == pytest.approx(want, rel=RTOL, abs=0.0)
    if kind == "empty":
        assert got == 0.0
