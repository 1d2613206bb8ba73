"""Metric exporters: Prometheus text exposition and JSONL.

Two wire formats for one :class:`~repro.obs.registry.MetricsRegistry`:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP`` / ``# TYPE`` headers followed by one
  sample line per child, histograms expanded into cumulative
  ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
* :func:`render_metrics_jsonl` — one JSON object per sample, for the
  span-style JSONL pipeline (``repro-metrics snapshot --format
  jsonl`` and the ``tail`` subcommand).

:func:`parse_prometheus_text` is the matching minimal parser; the
integration tests round-trip every exposition through it, so the
rendered output is guaranteed machine-readable.

Invariants: float values are rendered with ``repr`` (shortest
round-trip — re-parsing restores the exact double); sample names
always extend their family name; histogram bucket counts are
cumulative and end with the ``+Inf`` bucket equal to ``_count``.
"""

from __future__ import annotations

import json
import math
import re

from repro.errors import ObservabilityError
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "render_prometheus",
    "render_metrics_jsonl",
    "parse_prometheus_text",
]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _labels_text(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every family in ``registry`` as Prometheus exposition text."""
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in family.samples():
            labels = _labels_text(family.label_names, values)
            if isinstance(child, (Counter, Gauge)):
                lines.append(f"{family.name}{labels} {_format_value(child.value)}")
            elif isinstance(child, Histogram):
                cumulative = child.cumulative_counts()
                bounds = [*child.bounds, math.inf]
                for bound, count in zip(bounds, cumulative):
                    le = _labels_text(
                        family.label_names, values, f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{family.name}_bucket{le} {count}")
                lines.append(f"{family.name}_sum{labels} {_format_value(child.sum)}")
                lines.append(f"{family.name}_count{labels} {child.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics_jsonl(registry: MetricsRegistry) -> str:
    """Render every sample in ``registry`` as one JSON object per line.

    Record layout: ``{"metric", "kind", "labels", ...}`` with
    ``value`` for counters/gauges and ``sum``/``count``/``buckets``
    (bound → cumulative count) for histograms.
    """
    lines: list[str] = []
    for family in registry.collect():
        for values, child in family.samples():
            record: dict[str, object] = {
                "metric": family.name,
                "kind": family.kind,
                "labels": dict(zip(family.label_names, values)),
            }
            if isinstance(child, (Counter, Gauge)):
                record["value"] = child.value
            elif isinstance(child, Histogram):
                record["sum"] = child.sum
                record["count"] = child.count
                record["buckets"] = {
                    _format_value(bound): count
                    for bound, count in zip(
                        [*child.bounds, math.inf], child.cumulative_counts()
                    )
                }
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_KNOWN_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus_text(
    text: str,
) -> dict[str, dict[str, object]]:
    """Parse exposition text back into families (strict; raises on errors).

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(sample_name, labels_dict, value), ...]}}``.  Every sample line
    must parse, carry a numeric value, name each label once, and
    extend a family announced by a preceding ``# TYPE`` line — the
    validation the integration tests rely on.
    """
    families: dict[str, dict[str, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ObservabilityError(f"line {lineno}: malformed HELP line: {raw!r}")
            name = parts[2]
            families.setdefault(name, {"type": None, "help": "", "samples": []})
            families[name]["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in _KNOWN_TYPES:
                raise ObservabilityError(f"line {lineno}: malformed TYPE line: {raw!r}")
            name = parts[2]
            families.setdefault(name, {"type": None, "help": "", "samples": []})
            families[name]["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ObservabilityError(f"line {lineno}: unparseable sample: {raw!r}")
        sample_name = match.group("name")
        owner = None
        for family_name in families:
            if sample_name == family_name or (
                sample_name.startswith(family_name + "_")
                and sample_name[len(family_name) + 1 :] in ("bucket", "sum", "count")
            ):
                owner = family_name
                break
        if owner is None:
            raise ObservabilityError(
                f"line {lineno}: sample {sample_name!r} has no preceding TYPE line"
            )
        pairs = _LABEL_PAIR.findall(match.group("labels") or "")
        labels = dict(pairs)
        if len(labels) != len(pairs):
            raise ObservabilityError(f"line {lineno}: duplicate label name: {raw!r}")
        try:
            value = _parse_value(match.group("value"))
        except ValueError as error:
            raise ObservabilityError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            ) from error
        samples = families[owner]["samples"]
        assert isinstance(samples, list)
        samples.append((sample_name, labels, value))
    return families
