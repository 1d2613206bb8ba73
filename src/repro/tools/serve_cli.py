"""``repro-serve`` — drive the sharded async serving tier end to end.

Subcommands
-----------
``smoke [--shards 2] [--lookups 50000] [--batches 10] [--scheme VS]``
    The CI smoke gate: boot an N-shard :class:`ShardedLookupService`
    with real worker processes, pump the requested number of lookups
    through the asyncio front end in batches, check every answered
    lookup against a :class:`LookupService` built on the same tables,
    shut the tier down cleanly and then check the merged multi-shard
    exposition for consistency — the summed per-shard
    ``repro_serve_lookups_total`` counters must equal the number of
    lookups the client saw answered.  On Linux it also fails if a lane
    arena is still mapped, or more descriptors are open, after the
    tier stopped than before it started.  Any mismatch, shard crash,
    leak or unclean shutdown exits non-zero.
``run [--rho 0.8] [--fault-seed N]``
    The same tier as an inspectable demo: serve one large batch, print
    the served/shed summary and the merged exposition.

Both commands build the same synthetic tables the other CLIs use
(``--prefixes``, ``--seed``); the tier's behaviour — admission,
fan-out, scatter order — does not depend on table size.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import sys
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.faults import SHED_RESULT, FaultPlan
from repro.iplookup.synth import SyntheticTableConfig, generate_virtual_tables
from repro.obs.export import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import restore_registry
from repro.obs.tracing import Tracer
from repro.serve import LookupService, ShardedLookupService
from repro.virt.schemes import Scheme


def _tables(args: argparse.Namespace):
    config = SyntheticTableConfig(n_prefixes=args.prefixes, seed=args.seed)
    return generate_virtual_tables(args.k, 0.5, config)


def _batches(args: argparse.Namespace, n_batches: int, per_batch: int):
    rng = np.random.default_rng(args.seed)
    for _ in range(n_batches):
        addresses = rng.integers(0, 1 << 32, size=per_batch, dtype=np.uint64)
        vnids = rng.integers(0, args.k, size=per_batch, dtype=np.int64)
        yield addresses.astype(np.uint32), vnids


def _service(args: argparse.Namespace, tables, **kwargs) -> ShardedLookupService:
    return ShardedLookupService(
        tables,
        Scheme[args.scheme],
        n_shards=args.shards,
        transport=args.transport,
        registry=MetricsRegistry(enabled=True),
        tracer=Tracer(enabled=False),
        **kwargs,
    )


#: this process's entries in procfs (Linux); elsewhere the leak check is off
_PROC = Path("/proc/self")


def _open_fds() -> int:
    return len(os.listdir(_PROC / "fd")) if (_PROC / "fd").is_dir() else 0


def _leaks(fds_before: int) -> list[str]:
    """What a stopped tier left in this process (Linux only, else nothing)."""
    if not (_PROC / "maps").exists():
        return []
    gc.collect()
    leaks = []
    if "memfd:repro-lanes" in (_PROC / "maps").read_text():
        leaks.append("a lane arena is still mapped")
    fds = _open_fds()
    if fds > fds_before:
        leaks.append(f"{fds - fds_before} more descriptor(s) open than before start")
    return leaks


async def _serve_smoke(args: argparse.Namespace, tables, per_batch: int):
    """Serve the smoke batches; returns each with its answers, and the
    merged snapshot."""
    served = []
    async with _service(args, tables) as service:
        for addresses, vnids in _batches(args, args.batches, per_batch):
            results, trace = await service.serve(addresses, vnids)
            served.append((addresses, vnids, results))
            if trace.n_shed:
                print(
                    f"warning: {trace.n_shed} lookups shed under nominal load",
                    file=sys.stderr,
                )
        merged = await service.merged_snapshot()
    return served, merged


def _smoke(args: argparse.Namespace) -> int:
    per_batch = max(1, args.lookups // args.batches)
    tables = _tables(args)
    fds_before = _open_fds()
    batches, merged = asyncio.run(_serve_smoke(args, tables, per_batch))
    failures = _leaks(fds_before)
    # the reference walks here, after the tier stopped, off the event loop
    reference = LookupService(tables, Scheme[args.scheme])
    served = 0
    mismatches = 0
    for addresses, vnids, results in batches:
        answered = results != SHED_RESULT
        served += int(np.count_nonzero(answered))
        expected = reference.lookup_batch(addresses, vnids)
        mismatches += int(np.count_nonzero(results[answered] != expected[answered]))

    counted = merged.counter_total("repro_serve_lookups_total")
    total = args.batches * per_batch
    print(
        f"serve-smoke: {args.shards} shard(s), {args.batches} batch(es), "
        f"{total} lookups offered, {served} answered, "
        f"{counted:.0f} counted across shard registries"
    )
    if mismatches:
        failures.append(f"{mismatches} answered lookup(s) differ from LookupService")
    if counted != served:
        failures.append(
            "merged shard counters disagree with the client-observed count "
            f"({counted:.0f} != {served})"
        )
    for failure in failures:
        print(f"serve-smoke: FAIL — {failure}", file=sys.stderr)
    if failures:
        return 1
    print("serve-smoke: OK — answers match LookupService, merged exposition is consistent")
    return 0


async def _run_tier(args: argparse.Namespace) -> int:
    plan = None
    if args.fault_seed is not None:
        scheme = Scheme[args.scheme]
        plan = FaultPlan.generate(
            args.fault_seed,
            n_batches=8,
            n_engines=scheme.engines_required(args.k),
            n_faults=args.n_faults,
        )
    async with _service(
        args, _tables(args), offered_load_fraction=args.rho, fault_plan=plan
    ) as service:
        addresses, vnids = next(iter(_batches(args, 1, args.lookups)))
        results, trace = await service.serve(addresses, vnids)
        print(
            f"served {int(np.count_nonzero(results != SHED_RESULT))}/{len(results)} "
            f"lookups over {args.shards} shard(s) (shed {trace.n_shed})"
        )
        merged = await service.merged_snapshot()
    print(render_prometheus(restore_registry(merged)), end="")
    return 0


def _run(args: argparse.Namespace) -> int:
    return asyncio.run(_run_tier(args))


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-serve`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Drive the sharded async serving tier.",
    )
    parser.add_argument("--k", type=int, default=4, help="virtual networks")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--scheme", choices=[s.name for s in Scheme], default="VS"
    )
    parser.add_argument(
        "--transport",
        choices=("process", "inline"),
        default="process",
        help="shard transport (inline = same process, for debugging)",
    )
    parser.add_argument("--prefixes", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2012)

    sub = parser.add_subparsers(dest="command", required=True)

    smoke = sub.add_parser("smoke", help="CI smoke gate (see docs/SERVING.md)")
    smoke.add_argument("--lookups", type=int, default=50_000)
    smoke.add_argument("--batches", type=int, default=10)
    smoke.set_defaults(handler=_smoke)

    run = sub.add_parser("run", help="one inspectable batch + exposition")
    run.add_argument("--lookups", type=int, default=50_000)
    run.add_argument("--rho", type=float, default=0.8)
    run.add_argument("--fault-seed", type=int, default=None)
    run.add_argument("--n-faults", type=int, default=4)
    run.set_defaults(handler=_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console-script entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as err:
        print(f"repro-serve: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
