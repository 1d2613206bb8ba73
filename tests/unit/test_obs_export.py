"""Unit tests for the metric exporters (repro.obs.export)."""

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.export import (
    parse_prometheus_text,
    render_metrics_jsonl,
    render_prometheus,
)
from repro.obs.registry import MetricsRegistry


@pytest.fixture()
def registry():
    reg = MetricsRegistry(enabled=True)
    reg.counter("demo_total", "A counter", labels=("scheme",)).labels("VS").inc(3)
    reg.gauge("demo_watts", "A gauge").set(4.5)
    hist = reg.histogram("demo_seconds", "A histogram", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(5.0)
    return reg


class TestPrometheusRender:
    def test_help_and_type_lines(self, registry):
        text = render_prometheus(registry)
        assert "# HELP demo_total A counter" in text
        assert "# TYPE demo_total counter" in text
        assert "# TYPE demo_watts gauge" in text
        assert "# TYPE demo_seconds histogram" in text

    def test_sample_lines(self, registry):
        lines = render_prometheus(registry).splitlines()
        assert 'demo_total{scheme="VS"} 3.0' in lines
        assert "demo_watts 4.5" in lines

    def test_histogram_expansion_cumulative_with_inf(self, registry):
        lines = render_prometheus(registry).splitlines()
        assert 'demo_seconds_bucket{le="0.1"} 1' in lines
        assert 'demo_seconds_bucket{le="1.0"} 1' in lines
        assert 'demo_seconds_bucket{le="+Inf"} 2' in lines
        assert "demo_seconds_sum 5.05" in lines
        assert "demo_seconds_count 2" in lines

    def test_float_values_round_trip_exactly(self):
        reg = MetricsRegistry(enabled=True)
        value = 0.1 + 0.2  # 0.30000000000000004
        reg.gauge("g", "g").set(value)
        parsed = parse_prometheus_text(render_prometheus(reg))
        assert parsed["g"]["samples"][0][2] == value

    def test_label_value_escaping(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("e_total", "e", labels=("path",)).labels('a"b\\c').inc()
        text = render_prometheus(reg)
        assert 'path="a\\"b\\\\c"' in text
        parsed = parse_prometheus_text(text)
        (sample,) = parsed["e_total"]["samples"]
        assert sample[1] == {"path": 'a\\"b\\\\c'} or sample[1]["path"]

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestJsonlRender:
    def test_one_record_per_sample(self, registry):
        records = [json.loads(line) for line in render_metrics_jsonl(registry).splitlines()]
        by_metric = {r["metric"]: r for r in records}
        assert by_metric["demo_total"]["value"] == 3.0
        assert by_metric["demo_total"]["labels"] == {"scheme": "VS"}
        assert by_metric["demo_watts"]["kind"] == "gauge"

    def test_histogram_record_shape(self, registry):
        records = [json.loads(line) for line in render_metrics_jsonl(registry).splitlines()]
        hist = next(r for r in records if r["metric"] == "demo_seconds")
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(5.05)
        assert hist["buckets"]["+Inf"] == 2


class TestPrometheusParser:
    def test_round_trip(self, registry):
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed["demo_total"]["type"] == "counter"
        assert parsed["demo_total"]["help"] == "A counter"
        names = {name for name, _, _ in parsed["demo_seconds"]["samples"]}
        assert names == {"demo_seconds_bucket", "demo_seconds_sum", "demo_seconds_count"}

    def test_inf_values_parse(self, registry):
        parsed = parse_prometheus_text(render_prometheus(registry))
        les = [
            labels["le"]
            for name, labels, _ in parsed["demo_seconds"]["samples"]
            if name == "demo_seconds_bucket"
        ]
        assert "+Inf" in les
        assert math.isinf(parse_prometheus_text("# TYPE g gauge\ng +Inf\n")["g"]["samples"][0][2])

    def test_sample_without_type_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("orphan_metric 1.0\n")

    def test_malformed_type_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("# TYPE weird sometype\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("# TYPE g gauge\ng not-a-number\n")

    def test_unparseable_sample_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("# TYPE g gauge\n}{ 1.0\n")

    def test_duplicate_label_name_rejected(self):
        with pytest.raises(ObservabilityError, match="duplicate label"):
            parse_prometheus_text('# TYPE g gauge\ng{shard="0",shard="frontend"} 1.0\n')

    def test_comments_and_blanks_ignored(self):
        parsed = parse_prometheus_text("\n# a comment\n# TYPE g gauge\ng 1.0\n\n")
        assert parsed["g"]["samples"] == [("g", {}, 1.0)]
