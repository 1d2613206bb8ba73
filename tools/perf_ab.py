#!/usr/bin/env python
"""Same-host A/B gate over the serving benchmark (``perfbench/``).

Run from the repository root::

    python3 tools/perf_ab.py --base REF

Both sides run from sibling directories of one temporary directory: the
base commit ``REF`` exported with ``git archive``, with this checkout's
``perfbench/`` and ``BENCHMARK.json`` copied over it, and this checkout
as it is on disk (tracked files, and untracked ones that are not
ignored).  The two sides therefore differ only in the program under
test (``src/``), and neither runs from another path.  Every
workload in ``BENCHMARK.json`` then runs ``perfbench/run.py --trace 0``
on both sides, alternately: each pair uses one seed for both sides, and
the side that runs first swaps from pair to pair, so a host that drifts
in speed during the gate drifts under both.

The gate fails (exit 1) when any run reports ``correct: false``, when
the change fails a larger share of its lookups than the base, or when
any ``end_to_end`` metric's change median is worse than the base median
by more than that metric's ``bound``.  Each row also counts the
same-seed pairs the change won, which the verdict does not use.  Both sides ran on this host
minutes apart, so the host's speed cancels out of every comparison.
The verdict, per-run values and medians are written to
``.perfbench_out/ab/ab.json`` and as a table to ``.perfbench_out/ab/ab.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out" / "ab"

#: one base/change pair per workload and seed; both sides of a pair share its seed
SEEDS = (1, 2, 3)
PAIRS = len(SEEDS)
#: timed seconds of each ``perfbench/run.py`` run
RUN_SECONDS = 3.0
SIDES = ("base", "change")
#: each side's directory under the temporary directory; names of equal
#: length, since identical code run from two paths of different length
#: has read a few percent apart on this benchmark
SIDE_DIRS = {"base": "A", "change": "B"}


def export_change(tree: Path) -> None:
    """Copy this checkout's files as they are on disk into ``tree``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    for name in filter(None, os.fsdecode(listed).split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted on disk is not copied
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)


def export_base(ref: str, tree: Path, change: Path) -> None:
    """Write the tree of commit ``ref`` into ``tree``, then overlay the
    change's benchmark so only the program under test differs."""
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(tree, filter="data")
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(change / "perfbench", tree / "perfbench")
    shutil.copy2(change / "BENCHMARK.json", tree / "BENCHMARK.json")


def run_once(root: Path, workload: str, seed: int) -> dict | None:
    """One untraced benchmark run; its final JSON record, or None if it
    printed none (the program under test could not be imported)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        print(f"  {workload} seed {seed} in {root}: exit {proc.returncode}, no record\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return record


def _regression(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    worse = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if worse == 0 else float("inf") if worse > 0 else float("-inf")
    return worse / abs(base)


#: ``runs[side][workload]``: the final JSON record of each run, None if it printed none
Runs = dict[str, dict[str, list]]


def verdict(spec: dict, runs: Runs) -> tuple[list[dict], list[str]]:
    """Compare parsed run records of both sides against the bounds.

    ``runs`` holds the parsed records of both sides (see :data:`Runs`).
    Returns one row per workload and ``end_to_end`` metric, and the
    failures; the gate passes only when that list is empty.  A workload
    or metric that either side lacks is a failure, never a skipped
    comparison.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        records = {side: runs.get(side, {}).get(workload, []) for side in SIDES}
        missing = [side for side in SIDES if not records[side] or None in records[side]]
        if missing:
            sides = " and ".join(missing)
            failures.append(f"{workload}: no usable record from the {sides} runs")
            continue
        for side in SIDES:
            if not all(record["correct"] for record in records[side]):
                failures.append(f"{workload}: a {side} run reported correct: false")
        shares = {
            side: sum(r["failed"] for r in records[side])
            / max(1, sum(r["attempted"] for r in records[side]))
            for side in SIDES
        }
        if shares["change"] > shares["base"]:
            failures.append(
                f"{workload}: the change failed {shares['change']:.4%} of its lookups, "
                f"the base {shares['base']:.4%}"
            )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["metrics"].get(name, {}).get("value") for r in records[side]]
                for side in SIDES
            }
            lacking = [side for side in SIDES if None in values[side]]
            if lacking:
                sides = " and ".join(lacking)
                failures.append(f"{workload} {name}: missing from the {sides} runs")
                continue
            base = statistics.median(values["base"])
            change = statistics.median(values["change"])
            regression = _regression(base, change, metric["better"])
            passed = regression <= metric["bound"]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "bound": metric["bound"],
                "base": values["base"], "change": values["change"],
                "base_median": base, "change_median": change,
                "regression": regression, "passed": passed,
                "wins": pair_wins(values["base"], values["change"], metric["better"]),
                "pairs": len(values["change"]),
            })
            if not passed:
                failures.append(
                    f"{workload} {name}: change median {change:.6g} is {regression:.1%} "
                    f"worse than base median {base:.6g} (bound {metric['bound']:.0%})"
                )
    return rows, failures


def pair_wins(base: list[float], change: list[float], better: str) -> int:
    """Same-seed pairs in which the change's value is strictly better.

    Reported beside the medians, not gated on: with few pairs a median
    can move on one run, and the count shows how many pairs agree.
    """
    return sum(_regression(b, c, better) < 0 for b, c in zip(base, change))


def _span(values: list[float]) -> str:
    """One side's runs as ``min–max``."""
    return f"{min(values):.6g}–{max(values):.6g}"


def render_markdown(base_ref: str, rows: list[dict], failures: list[str]) -> str:
    """The A/B table: one row per workload and end-to-end metric."""
    lines = [
        f"# perfbench A/B: change vs `{base_ref}`",
        "",
        f"{PAIRS} pairs of {RUN_SECONDS:g} s runs per workload, seeds {list(SEEDS)}, "
        "sides alternated on one host. *Worse* is the change's regression against the "
        "base median, as a share of it; negative is better. Each side's range is the "
        "min–max of its runs: where the base's own range is wider than the bound, "
        "one slow run can fail the gate on identical code. *Won* counts the same-seed "
        "pairs in which the change's value was strictly better.",
        "",
        "| Workload | Metric | Better | Base median | Base range | Change median "
        "| Change range | Worse | Won | Bound | |",
        "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) | {row['better']} "
            f"| {row['base_median']:.6g} | {_span(row['base'])} "
            f"| {row['change_median']:.6g} | {_span(row['change'])} "
            f"| {row['regression']:+.1%} | {row['wins']}/{row['pairs']} | {row['bound']:.0%} "
            f"| {'ok' if row['passed'] else '**FAIL**'} |"
        )
    lines += ["", f"**Verdict: {'FAIL' if failures else 'PASS'}**", ""]
    lines += [f"- {failure}" for failure in failures]
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str]) -> int:
    """Run the A/B gate against ``--base``; 0 pass, 1 fail, 2 bad ref."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if resolved.returncode:
        print(f"perf_ab: cannot resolve --base {args.base!r}", file=sys.stderr)
        return 2
    base_sha = resolved.stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs: Runs = {side: {w: [] for w in workloads} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as scratch:
        roots = {side: Path(scratch) / SIDE_DIRS[side] for side in SIDES}
        export_change(roots["change"])
        export_base(base_sha, roots["base"], roots["change"])
        for pair, seed in enumerate(SEEDS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    record = run_once(roots[side], workload, seed)
                    runs[side][workload].append(record)
                    goodput = (record or {}).get("metrics", {}).get("goodput_lookups_per_s", {})
                    print(f"pair {pair + 1}/{PAIRS} {workload:17s} {side:6s} "
                          f"goodput {goodput.get('value', float('nan')):.4g}", flush=True)
    rows, failures = verdict(spec, runs)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report = {
        "base": base_sha, "pairs": PAIRS, "seeds": list(SEEDS),
        "run_seconds": RUN_SECONDS, "passed": not failures,
        "failures": failures, "rows": rows, "runs": runs,
    }
    (OUT_DIR / "ab.json").write_text(json.dumps(report, indent=2) + "\n")
    markdown = render_markdown(args.base, rows, failures)
    (OUT_DIR / "ab.md").write_text(markdown)
    print(markdown)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
