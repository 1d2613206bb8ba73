"""Integration tests for the lookup perf harness (repro.serve.perf)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.perf import (
    GATED_CASES,
    SCHEMA_VERSION,
    bench,
    evaluate_gate,
    gate_main,
    main,
    run_gate_bench,
    run_lookup_bench,
    time_callable,
)

EXPECTED_CASES = {
    "serve_NV",
    "serve_VS",
    "serve_VM",
    "merged_lookup_batch",
}


class TestTiming:
    def test_time_callable_counts_runs(self):
        calls = []
        times = time_callable(lambda: calls.append(1), warmup=2, repeats=3)
        assert len(times) == 3
        assert len(calls) == 5
        assert all(t >= 0 for t in times)

    def test_time_callable_validates(self):
        with pytest.raises(ConfigurationError):
            time_callable(lambda: None, warmup=-1)
        with pytest.raises(ConfigurationError):
            time_callable(lambda: None, repeats=0)

    def test_bench_record(self):
        record = bench("case", lambda: None, 1000, warmup=0, repeats=3)
        assert record.name == "case"
        assert record.median_s >= 0
        assert record.ops_per_s > 0
        assert set(record.as_dict()) == {
            "pairs",
            "repeats",
            "times_s",
            "median_s",
            "ops_per_s",
            "p50_s",
            "p99_s",
        }
        # percentiles bracket the timed runs; the gate never reads them
        assert min(record.times_s) <= record.p50_s <= record.p99_s
        assert record.p99_s <= max(record.times_s)


class TestHarness:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_lookup_bench(pairs=2000, repeats=2, warmup=0, k=3, n_prefixes=200)

    def test_payload_shape(self, payload):
        assert payload["benchmark"] == "lookup"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["results"]) == EXPECTED_CASES

    def test_every_case_reports_positive_rate(self, payload):
        for name, record in payload["results"].items():
            assert record["ops_per_s"] > 0, name
            assert record["median_s"] > 0, name
            assert record["pairs"] == 2000

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError):
            run_lookup_bench(pairs=0)

    def test_main_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_lookup.json"
        rc = main(["--smoke", "--pairs", "1500", "--prefixes", "150", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload["results"]) == EXPECTED_CASES
        assert payload["config"]["pairs"] == 1500
        assert payload["config"]["repeats"] <= 2
        stdout = capsys.readouterr().out
        assert "serve_VS" in stdout


class TestThroughputGate:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_lookup_bench(pairs=2000, repeats=2, warmup=0, k=3, n_prefixes=200)

    def test_gate_bench_measures_exactly_the_serve_cases(self, baseline):
        measured = run_gate_bench(baseline["config"])
        assert set(measured) == set(GATED_CASES)
        assert all(record.ops_per_s > 0 for record in measured.values())

    def test_gate_passes_against_its_own_baseline(self, baseline):
        measured = run_gate_bench(baseline["config"])
        # generous tolerance: the re-run must match the numbers it was
        # compared against up to timer noise
        lines = evaluate_gate(baseline, measured, tolerance=0.9)
        assert len(lines) == len(GATED_CASES)
        assert not any(line.startswith("FAIL") for line in lines)

    def test_gate_fails_on_regression(self, baseline):
        measured = run_gate_bench(baseline["config"])
        inflated = json.loads(json.dumps(baseline))
        for name in GATED_CASES:
            inflated["results"][name]["ops_per_s"] *= 1e6
        lines = evaluate_gate(inflated, measured, tolerance=0.10)
        assert all(line.startswith("FAIL") for line in lines)

    def test_gate_fails_on_missing_case(self, baseline):
        measured = run_gate_bench(baseline["config"])
        pruned = json.loads(json.dumps(baseline))
        del pruned["results"]["serve_VS"]
        lines = evaluate_gate(pruned, measured, tolerance=0.10)
        assert any("not in the committed baseline" in line for line in lines)

    def test_gate_rejects_bad_tolerance(self, baseline):
        with pytest.raises(ConfigurationError):
            evaluate_gate(baseline, {}, tolerance=1.5)

    def test_gate_main_end_to_end(self, tmp_path, baseline, capsys):
        path = tmp_path / "BENCH_lookup.json"
        path.write_text(json.dumps(baseline))
        rc = gate_main(["--baseline", str(path), "--tolerance", "0.9"])
        assert rc == 0
        assert "bench gate passed" in capsys.readouterr().out

    def test_gate_main_fails_on_regression(self, tmp_path, baseline, capsys):
        inflated = json.loads(json.dumps(baseline))
        for name in GATED_CASES:
            inflated["results"][name]["ops_per_s"] *= 1e6
        path = tmp_path / "BENCH_lookup.json"
        path.write_text(json.dumps(inflated))
        rc = gate_main(["--baseline", str(path)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out
