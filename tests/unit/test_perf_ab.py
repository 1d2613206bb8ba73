"""The A/B gate's verdict (tools/perf_ab.py) on hand-made run records.

The verdict is a pure function of the parsed ``perfbench/run.py``
records of both sides, so it is pinned here without running anything.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

SPEC = {
    "workloads": [{"name": "bulk"}, {"name": "sharded"}],
    "end_to_end": [
        {"name": "goodput", "unit": "lookups/s", "better": "higher", "bound": 0.2},
        {"name": "p90", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


@pytest.fixture(scope="module")
def perf_ab():
    """Import tools/perf_ab.py by path (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location("perf_ab", REPO_ROOT / "tools" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_ab", module)
    spec.loader.exec_module(module)
    return module


def record(goodput=100.0, p90=10.0, correct=True, failed=0, attempted=1000):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"goodput": {"value": goodput}, "p90": {"value": p90}},
    }


def runs(base=None, change=None):
    """Three identical records per side and workload unless overridden."""
    sides = {"base": base or {}, "change": change or {}}
    return {
        side: {w: overrides.get(w, [record()] * 3) for w in ("bulk", "sharded")}
        for side, overrides in sides.items()
    }


def test_identical_sides_pass_with_one_row_per_workload_and_metric(perf_ab):
    rows, failures = perf_ab.verdict(SPEC, runs())
    assert failures == []
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("bulk", "goodput"), ("bulk", "p90"), ("sharded", "goodput"), ("sharded", "p90")
    ]
    assert all(r["regression"] == 0.0 and r["passed"] for r in rows)


def test_higher_is_better_within_and_just_past_the_bound(perf_ab):
    within = runs(change={"bulk": [record(goodput=g) for g in (81.0, 80.5, 200.0)]})
    assert perf_ab.verdict(SPEC, within)[1] == []
    past = runs(change={"bulk": [record(goodput=g) for g in (79.0, 79.9, 200.0)]})
    (failure,) = perf_ab.verdict(SPEC, past)[1]
    assert failure.startswith("bulk goodput:") and "20.1% worse" in failure


def test_lower_is_better_within_and_just_past_the_bound(perf_ab):
    within = runs(change={"sharded": [record(p90=p) for p in (10.9, 10.99, 1.0)]})
    assert perf_ab.verdict(SPEC, within)[1] == []
    past = runs(change={"sharded": [record(p90=p) for p in (11.01, 11.2, 1.0)]})
    (failure,) = perf_ab.verdict(SPEC, past)[1]
    assert failure.startswith("sharded p90:")


def test_a_better_change_passes_in_both_directions(perf_ab):
    better = runs(change={"bulk": [record(goodput=300.0, p90=1.0)] * 3})
    rows, failures = perf_ab.verdict(SPEC, better)
    assert failures == []
    assert all(r["regression"] < 0 for r in rows if r["workload"] == "bulk")


def test_the_median_not_the_mean_decides(perf_ab):
    one_outlier = runs(change={"bulk": [record(goodput=g) for g in (1.0, 100.0, 100.0)]})
    assert perf_ab.verdict(SPEC, one_outlier)[1] == []


def test_an_incorrect_run_fails_on_either_side(perf_ab):
    bad = [record(), record(correct=False), record()]
    for side in ("base", "change"):
        failures = perf_ab.verdict(SPEC, runs(**{side: {"sharded": bad}}))[1]
        assert failures == [f"sharded: a {side} run reported correct: false"]


def test_a_larger_failed_share_fails(perf_ab):
    shed = runs(change={"bulk": [record(failed=1)] + [record()] * 2})
    (failure,) = perf_ab.verdict(SPEC, shed)[1]
    assert failure.startswith("bulk: the change failed")
    # failing fewer lookups than the base is not a regression
    assert perf_ab.verdict(SPEC, runs(base={"bulk": [record(failed=5)] * 3}))[1] == []


def test_a_missing_workload_fails_instead_of_shrinking_the_gate(perf_ab):
    records = runs()
    del records["change"]["sharded"]
    rows, failures = perf_ab.verdict(SPEC, records)
    assert failures == ["sharded: no usable record from the change runs"]
    assert {r["workload"] for r in rows} == {"bulk"}
    crashed = runs(base={"bulk": [record(), None, record()]})
    assert perf_ab.verdict(SPEC, crashed)[1] == ["bulk: no usable record from the base runs"]


def test_a_missing_metric_fails_instead_of_shrinking_the_gate(perf_ab):
    partial = record()
    del partial["metrics"]["p90"]
    records = runs(base={"bulk": [record(), partial, record()]})
    assert perf_ab.verdict(SPEC, records)[1] == ["bulk p90: missing from the base runs"]


def test_markdown_table_names_every_row_and_the_verdict(perf_ab):
    rows, failures = perf_ab.verdict(SPEC, runs(change={"bulk": [record(goodput=50.0)] * 3}))
    text = perf_ab.render_markdown("HEAD~1", rows, failures)
    assert text.count("\n| bulk |") == 2 and text.count("\n| sharded |") == 2
    assert "**FAIL**" in text and "**Verdict: FAIL**" in text
    assert f"- {failures[0]}" in text


def test_markdown_shows_each_sides_range_beside_its_median(perf_ab):
    base = [record(goodput=g, p90=p) for g, p in ((90.0, 9.0), (100.0, 10.0), (130.0, 14.0))]
    change = [record(goodput=g) for g in (95.0, 101.0, 99.0)]
    rows, failures = perf_ab.verdict(SPEC, runs(base={"bulk": base}, change={"bulk": change}))
    text = perf_ab.render_markdown("HEAD~1", rows, failures)
    goodput = next(line for line in text.splitlines() if line.startswith("| bulk | goodput"))
    assert "| 100 | 90–130 | 99 | 95–101 |" in goodput
    p90 = next(line for line in text.splitlines() if line.startswith("| bulk | p90"))
    assert "| 10 | 9–14 | 10 | 10–10 |" in p90


def test_each_row_counts_the_same_seed_pairs_the_change_won(perf_ab):
    base = [record(goodput=g, p90=p) for g, p in ((100.0, 10.0), (100.0, 10.0), (100.0, 10.0))]
    # goodput higher in pairs 1 and 3 and tied in 2; p90 lower only in pair 2
    change = [record(goodput=g, p90=p) for g, p in ((101.0, 11.0), (100.0, 9.0), (120.0, 10.0))]
    rows, failures = perf_ab.verdict(SPEC, runs(base={"bulk": base}, change={"bulk": change}))
    assert failures == []
    won = {r["metric"]: (r["wins"], r["pairs"]) for r in rows if r["workload"] == "bulk"}
    assert won == {"goodput": (2, 3), "p90": (1, 3)}
    text = perf_ab.render_markdown("HEAD~1", rows, failures)
    goodput = next(line for line in text.splitlines() if line.startswith("| bulk | goodput"))
    assert "| 2/3 |" in goodput
    p90 = next(line for line in text.splitlines() if line.startswith("| bulk | p90"))
    assert "| 1/3 |" in p90


def test_the_win_count_does_not_change_the_verdict(perf_ab):
    # the change loses every pair by less than the bound: 0 wins, still a pass
    change = [record(goodput=95.0)] * 3
    rows, failures = perf_ab.verdict(SPEC, runs(change={"bulk": change}))
    assert failures == []
    assert next(r for r in rows if r["metric"] == "goodput")["wins"] == 0
