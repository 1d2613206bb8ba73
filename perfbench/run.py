"""Serving benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk_uniform --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that breaks each batch down
by layer (see :mod:`perfbench.layers`).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table
and a JSON context record (raw wall values, probe times, host).  Run
records, span files and per-layer tables are written under
``.perfbench_out/``.  The exit code is non-zero on any oracle or tier
mismatch, and when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this interpreter and print it (used by the run itself)",
    )
    return parser.parse_args(argv)


def _print_table(record: dict) -> None:
    print(f"{record['workload']}: {record['attempted']} lookups attempted, "
          f"{record['failed']} failed, correct={record['correct']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:>18.6g} {metric['unit']}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(workloads.measure_setup_once(spec, args.seed, ROOT)))
        return 0
    if args.trace:
        from perfbench import layers

        record = layers.run_traced(spec, args.seed, args.seconds, ROOT, OUT_DIR)
    else:
        record = workloads.run_timed(spec, args.seed, args.seconds, ROOT, HERE)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    _print_table(record)
    print(json.dumps({"context": record["context"]}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
