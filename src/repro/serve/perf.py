"""Perf benchmark harness for the batched lookup hot paths.

Times the serving layer's three schemes plus the raw structure-level
batch lookups (warmup, repeated timed runs, median, ops/s) and writes
a machine-readable ``BENCH_lookup.json`` at the repository root — the
artifact that populates the performance trajectory from PR 2 onward
(``make bench`` locally, the ``bench-smoke`` CI job in reduced form).
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.serve.service import LookupService
from repro.virt.schemes import Scheme

__all__ = [
    "BenchRecord",
    "time_callable",
    "run_lookup_bench",
    "run_gate_bench",
    "evaluate_gate",
    "main",
    "gate_main",
]

#: bump when the JSON layout changes incompatibly
SCHEMA_VERSION = 1

#: the cases the regression gate re-measures (the serving hot paths)
GATED_CASES = ("serve_NV", "serve_VS", "serve_VM")


@dataclass(frozen=True)
class BenchRecord:
    """Timing summary of one benchmarked callable.

    ``p50_s``/``p99_s`` are batch-latency percentiles over the timed
    runs (linear interpolation; with few repeats p99 tracks the max).
    They ride along in the JSON for trend analysis — the regression
    gate stays throughput-only (see :func:`evaluate_gate`), because
    tail latency under a handful of repeats is too noisy to fail CI on.
    """

    name: str
    pairs: int
    repeats: int
    times_s: tuple[float, ...]
    median_s: float
    ops_per_s: float
    p50_s: float
    p99_s: float

    def as_dict(self) -> dict:
        """JSON-serializable form of the record (sans its name key)."""
        return {
            "pairs": self.pairs,
            "repeats": self.repeats,
            "times_s": list(self.times_s),
            "median_s": self.median_s,
            "ops_per_s": self.ops_per_s,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
        }


def time_callable(
    fn: Callable[[], object], *, warmup: int = 1, repeats: int = 5
) -> list[float]:
    """Run ``fn`` ``warmup`` untimed times, then ``repeats`` timed ones."""
    if warmup < 0 or repeats < 1:
        raise ConfigurationError("warmup must be >= 0 and repeats >= 1")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def bench(
    name: str,
    fn: Callable[[], object],
    pairs: int,
    *,
    warmup: int,
    repeats: int,
) -> BenchRecord:
    """Benchmark one callable answering ``pairs`` lookups per call."""
    times = time_callable(fn, warmup=warmup, repeats=repeats)
    median = statistics.median(times)
    return BenchRecord(
        name=name,
        pairs=pairs,
        repeats=repeats,
        times_s=tuple(times),
        median_s=median,
        ops_per_s=pairs / median if median > 0 else float("inf"),
        p50_s=float(np.percentile(times, 50)),
        p99_s=float(np.percentile(times, 99)),
    )


def _build_fixture(
    *, pairs: int, k: int, n_prefixes: int, shared_fraction: float, seed: int
) -> tuple[dict[Scheme, LookupService], np.ndarray, np.ndarray]:
    """Build the benchmarked services and batch for one configuration."""
    if pairs < 1:
        raise ConfigurationError("pairs must be >= 1")
    config = SyntheticTableConfig(n_prefixes=n_prefixes, seed=seed)
    tables = generate_virtual_tables(k, shared_fraction, config)
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 1 << 32, size=pairs, dtype=np.uint64).astype(np.uint32)
    vnids = rng.integers(0, k, size=pairs, dtype=np.int64)
    services = {
        scheme: LookupService(tables, scheme)
        for scheme in (Scheme.NV, Scheme.VS, Scheme.VM)
    }
    return services, addresses, vnids


def run_lookup_bench(
    *,
    pairs: int = 100_000,
    repeats: int = 5,
    warmup: int = 1,
    k: int = 4,
    n_prefixes: int = 2000,
    shared_fraction: float = 0.5,
    seed: int = 2012,
) -> dict:
    """Run the full lookup benchmark suite; return the JSON payload."""
    services, addresses, vnids = _build_fixture(
        pairs=pairs,
        k=k,
        n_prefixes=n_prefixes,
        shared_fraction=shared_fraction,
        seed=seed,
    )
    merged = services[Scheme.VM].merged()

    records: list[BenchRecord] = []
    for scheme, service in services.items():
        records.append(
            bench(
                f"serve_{scheme.name}",
                lambda s=service: s.serve(addresses, vnids),
                pairs,
                warmup=warmup,
                repeats=repeats,
            )
        )
    records.append(
        bench(
            "merged_lookup_batch",
            lambda: merged.lookup_batch(addresses, vnids),
            pairs,
            warmup=warmup,
            repeats=repeats,
        )
    )
    return {
        "benchmark": "lookup",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "pairs": pairs,
            "repeats": repeats,
            "warmup": warmup,
            "k": k,
            "n_prefixes": n_prefixes,
            "shared_fraction": shared_fraction,
            "seed": seed,
        },
        "results": {r.name: r.as_dict() for r in records},
    }


def render_summary(payload: dict) -> str:
    """Human-readable table of the benchmark payload."""
    lines = [
        f"lookup bench: {payload['config']['pairs']} pairs, "
        f"k={payload['config']['k']}, "
        f"{payload['config']['n_prefixes']} prefixes/VN",
        f"{'case':<28} {'median_s':>10} {'p50_s':>10} {'p99_s':>10} {'ops/s':>14}",
    ]
    for name, record in payload["results"].items():
        lines.append(
            f"{name:<28} {record['median_s']:>10.4f} "
            f"{record.get('p50_s', record['median_s']):>10.4f} "
            f"{record.get('p99_s', max(record['times_s'])):>10.4f} "
            f"{record['ops_per_s']:>14,.0f}"
        )
    return "\n".join(lines)


def run_gate_bench(config: dict) -> dict[str, BenchRecord]:
    """Re-measure the gated serve cases at a committed baseline's config.

    ``config`` is the ``config`` block of a ``BENCH_lookup.json``; the
    same tables, batch and seed are rebuilt so the only variable is
    the code under test.
    """
    services, addresses, vnids = _build_fixture(
        pairs=int(config["pairs"]),
        k=int(config["k"]),
        n_prefixes=int(config["n_prefixes"]),
        shared_fraction=float(config["shared_fraction"]),
        seed=int(config["seed"]),
    )
    records: dict[str, BenchRecord] = {}
    for scheme, service in services.items():
        record = bench(
            f"serve_{scheme.name}",
            lambda s=service: s.serve(addresses, vnids),
            int(config["pairs"]),
            warmup=int(config["warmup"]),
            repeats=int(config["repeats"]),
        )
        records[record.name] = record
    return records


def evaluate_gate(
    baseline: dict, measured: dict[str, BenchRecord], tolerance: float
) -> list[str]:
    """Compare measured ops/s against a committed baseline payload.

    Returns one diagnostic line per gated case; lines for cases whose
    throughput dropped more than ``tolerance`` below the baseline are
    prefixed ``FAIL``, the rest ``ok``.  A baseline missing a gated
    case fails loudly — a silently shrinking gate is no gate.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigurationError(f"tolerance must be in [0, 1), got {tolerance}")
    lines = []
    for name in GATED_CASES:
        if name not in baseline.get("results", {}):
            lines.append(f"FAIL {name}: not in the committed baseline")
            continue
        committed = float(baseline["results"][name]["ops_per_s"])
        got = measured[name].ops_per_s
        floor = committed * (1.0 - tolerance)
        verdict = "ok  " if got >= floor else "FAIL"
        lines.append(
            f"{verdict} {name}: {got:,.0f} ops/s vs committed {committed:,.0f} "
            f"(floor {floor:,.0f}, {got / committed - 1.0:+.1%}; "
            f"latency p50 {measured[name].p50_s:.4f}s "
            f"p99 {measured[name].p99_s:.4f}s — trend only, not gated)"
        )
    return lines


def gate_main(argv: list[str] | None = None) -> int:
    """CLI entry point: fail when throughput regressed vs the baseline."""
    parser = argparse.ArgumentParser(
        prog="bench_gate",
        description=(
            "Re-run the serve benchmarks at the committed BENCH_lookup.json "
            "baseline's configuration and fail on an ops/s regression"
        ),
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_lookup.json",
        help="committed baseline JSON (default: repo root BENCH_lookup.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional ops/s drop before failing (default: 0.10)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    measured = run_gate_bench(baseline["config"])
    lines = evaluate_gate(baseline, measured, args.tolerance)
    print(f"bench gate vs {args.baseline} (tolerance {args.tolerance:.0%}):")
    for line in lines:
        print(f"  {line}")
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        print(f"bench gate FAILED: {len(failed)} case(s) regressed")
        return 1
    print("bench gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the suite and write ``BENCH_lookup.json``."""
    parser = argparse.ArgumentParser(
        prog="bench_lookup",
        description="Time the batched lookup hot paths and write BENCH_lookup.json",
    )
    parser.add_argument("--pairs", type=int, default=100_000, help="(address, vnid) pairs per call")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    parser.add_argument("--warmup", type=int, default=1, help="untimed warmup runs per case")
    parser.add_argument("--k", type=int, default=4, help="virtual networks")
    parser.add_argument("--prefixes", type=int, default=2000, help="prefixes per VN table")
    parser.add_argument("--seed", type=int, default=2012, help="PRNG seed")
    parser.add_argument(
        "--out", default="BENCH_lookup.json", help="output JSON path (default: repo root)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced CI preset: fewer pairs/repeats, smaller tables",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.pairs = min(args.pairs, 20_000)
        args.repeats = min(args.repeats, 2)
        args.prefixes = min(args.prefixes, 800)
    payload = run_lookup_bench(
        pairs=args.pairs,
        repeats=args.repeats,
        warmup=args.warmup,
        k=args.k,
        n_prefixes=args.prefixes,
        seed=args.seed,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(render_summary(payload))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
