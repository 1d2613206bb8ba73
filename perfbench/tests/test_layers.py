"""The traced run: composed stages equal serve(), and the span arithmetic."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, workloads

ROOT = Path(__file__).resolve().parents[2]
SMALL = {
    "bulk_uniform": replace(workloads.BULK_UNIFORM, batch_size=3000, pool_size=2, n_prefixes=300),
    "ris_instrumented": replace(workloads.RIS_INSTRUMENTED, batch_size=1024, pool_size=2),
    "sharded_pipe": replace(workloads.SHARDED_PIPE, batch_size=3000, pool_size=2, n_prefixes=300),
}


def test_self_time_subtracts_the_union_of_children():
    rec = layers.SpanRecorder()
    rec.spans = [
        {"id": 0, "name": "batch", "parent": None, "batch": "b0", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "batch": "b0", "start": 1.0, "end": 3.0},
        {"id": 2, "name": "b", "parent": 0, "batch": "b0", "start": 2.0, "end": 5.0},
        {"id": 3, "name": "c", "parent": 0, "batch": "b0", "start": 7.0, "end": 8.0},
    ]
    rec.scales["b0"] = 0.5
    assert rec.self_times() == [pytest.approx(2.5), 1.0, 1.5, 0.5]
    assert rec.duration(rec.spans[0]) == 5.0


def test_spans_nest_and_record_parents():
    rec = layers.SpanRecorder()
    with rec.span("batch", "b0", "path"):
        with rec.span("child", "b0", "path", n=3) as span:
            span["extra"] = 1
    root, child = rec.spans
    assert child["parent"] == root["id"] and root["parent"] is None
    assert child["n"] == 3 and child["extra"] == 1
    assert root["start"] <= child["start"] <= child["end"] <= root["end"]


@pytest.mark.parametrize("name", ["bulk_uniform", "ris_instrumented"])
def test_composed_sync_stages_equal_serve(name):
    spec = SMALL[name]
    inputs = workloads.make_inputs(spec, 4, ROOT)
    tier = workloads.build_sync(spec, inputs.tables, instrumented=spec.instrumented)
    group = tier.service.group
    caps = layers._depth_caps(group.tries, group.merged)
    for addresses, vnids in inputs.batches:
        served, trace = tier.serve(addresses, vnids)
        rec = layers.SpanRecorder()
        composed, engine_traces = layers.compose_walk(
            rec, "b0", "path", tries=group.tries, merged=group.merged,
            distributor=group.distributor, n_stages=group.n_stages,
            admission_rate=tier.service.offered_load_fraction,
            addresses=addresses, vnids=vnids, depth_caps=caps,
        )
        assert np.array_equal(composed, served)
        for mine, theirs in zip(engine_traces, trace.engine_traces):
            assert np.array_equal(mine.accesses_per_stage, theirs.accesses_per_stage)
            assert mine.total_cycles == theirs.total_cycles


def test_composed_sharded_stages_equal_serve():
    spec = SMALL["sharded_pipe"]
    inputs = workloads.make_inputs(spec, 4, ROOT)
    replay = layers.shard_replay(spec, inputs, 28)
    tier = workloads.build_sharded(spec, inputs.tables, "inline")
    try:
        for i, (addresses, vnids) in enumerate(inputs.batches):
            served, _ = tier.serve(addresses, vnids)
            rec = layers.SpanRecorder()
            composed, walk_mismatches = layers.compose_sharded(
                rec, "b0", "path", replay, addresses, vnids, i, walk_nominal=True
            )
            assert np.array_equal(composed, served)
            assert walk_mismatches == 0
            assert {s["name"] for s in rec.spans} >= {
                "shard.runtime_serve", "transport.pickle", "stages.walk_nominal", "trie.walk",
            }
    finally:
        tier.close()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    record = layers.run_traced(SMALL[name], 2, 0.4, ROOT, tmp_path)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    assert record["correct"] and record["failed"] == 0
    assert record["context"]["composed_mismatches"] == 0
    assert all(np.isfinite(m["value"]) for m in record["metrics"].values())
    assert (tmp_path / f"{name}-seed2-spans.jsonl").stat().st_size > 0
    assert "| layer |" in (tmp_path / f"{name}-seed2-layers.md").read_text()
