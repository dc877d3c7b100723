#!/usr/bin/env python
"""Run servebench alternately from two checkouts and compare them pair by pair.

A single end-to-end run on a shared box is not a measurement: the machine's
speed drifts by more than most effects.  This script runs
``servebench/run.py`` from a *parent* and a *change* checkout in alternating
pairs, swapping which side goes first every pair, so drift lands on both
sides alike.  For each metric it prints the median and quartiles per side,
the change's win fraction over the pairs (using each metric's ``better``
direction from ``BENCHMARK.json``), and whether the change's median beats
the parent's by more than the parent's interquartile range.  It also counts
the correct runs and the failed operations of each side, and reports the
pair-order effect: per metric, the median ratio of the run that went first
in a pair to the run that went second, flagged when it departs from 1 by
more than the change's median gap does (the order then moves the metric as
much as the change).

Usage::

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload hotspot_repeat --pairs 10 --seconds 36
    python scripts/bench_pairs.py --parent ../parent --workload cold_city \\
        --pairs 10 --seed 3 --json pairs.json

Each checkout is run as is, with its own ``servebench/`` and ``src/``; the
script only reads servebench's JSON output line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument(
        "--change", type=Path, default=REPO_ROOT, help="checkout of the change (default: this repo)"
    )
    parser.add_argument("--workload", required=True, help="servebench workload name")
    parser.add_argument("--pairs", type=int, default=10, help="number of alternating pairs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every run's metrics to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_once(checkout: Path, args: argparse.Namespace) -> Dict:
    """One servebench run; ``metrics`` is empty when the run printed no JSON."""
    command = [
        sys.executable,
        "servebench/run.py",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    # The checkout imports its own ``src``; an inherited PYTHONPATH could
    # point both sides at one tree.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = completed.stderr.strip().splitlines()[-3:]
        sys.stderr.write(f"bench_pairs: {checkout} printed no report: {tail}\n")
        return {"correct": False, "failed": None, "metrics": {}}
    return {
        "correct": bool(report.get("correct")),
        "failed": report.get("failed"),
        "metrics": {name: entry["value"] for name, entry in report.get("metrics", {}).items()},
    }


def directions(checkout: Path) -> Dict[str, str]:
    """``metric -> "higher" | "lower"`` from the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {
        entry["name"]: entry["better"]
        for key in ("end_to_end", "per_layer")
        for entry in spec.get(key, ())
    }


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; a lone value is all three)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def order(pair: int) -> Sequence[str]:
    """The sides of pair ``pair`` in the order they run: the parent goes
    first in even pairs, the change in odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def order_effect(pairs: List[tuple], parent_median: float, change_median: float) -> Dict:
    """Median first-run / second-run ratio over ``(pair, parent, change)``
    values, and whether it departs from 1 by more than the change's median
    gap (``None`` where a ratio is undefined)."""
    ratios = []
    for pair, parent, change in pairs:
        first, second = (parent, change) if order(pair)[0] == "parent" else (change, parent)
        if second == 0:
            return {"first_over_second": None, "order_exceeds_gap": None}
        ratios.append(first / second)
    ratio = statistics.median(ratios)
    gap = abs(change_median / parent_median - 1.0) if parent_median else None
    return {
        "first_over_second": ratio,
        "order_exceeds_gap": None if gap is None else abs(ratio - 1.0) > gap,
    }


def summarise(runs: Dict[str, List[Dict]], better: Dict[str, str]) -> List[Dict]:
    """Per metric: quartiles per side, the change's pair wins, the verdict
    and the pair-order effect (:func:`order_effect`)."""
    names = sorted({name for side in SIDES for run in runs[side] for name in run["metrics"]})
    rows = []
    for name in names:
        pairs = [
            (pair, parent["metrics"][name], change["metrics"][name])
            for pair, (parent, change) in enumerate(zip(runs["parent"], runs["change"]))
            if isinstance(parent["metrics"].get(name), (int, float))
            and isinstance(change["metrics"].get(name), (int, float))
        ]
        if not pairs:
            continue
        row = {
            "metric": name,
            "pairs": len(pairs),
            "parent": quartiles([p for _, p, _ in pairs]),
            "change": quartiles([c for _, _, c in pairs]),
            "better": better.get(name),
            "wins": None,
            "beats_parent_iqr": None,
        }
        row.update(order_effect(pairs, row["parent"][1], row["change"][1]))
        if row["better"] in ("higher", "lower"):
            sign = 1.0 if row["better"] == "higher" else -1.0
            row["wins"] = sum(1 for _, p, c in pairs if sign * (c - p) > 0)
            q1, median, q3 = row["parent"]
            row["beats_parent_iqr"] = sign * (row["change"][1] - median) > q3 - q1
        rows.append(row)
    return rows


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def report(rows: List[Dict], runs: Dict[str, List[Dict]]) -> str:
    lines = []
    for side in SIDES:
        correct = sum(1 for run in runs[side] if run["correct"])
        failed = sum(run["failed"] or 0 for run in runs[side])
        lines.append(
            f"{side}: {correct}/{len(runs[side])} runs correct, {failed} failed operations"
        )
    lines.append(
        f"{'metric':<48} {'parent q1/med/q3':>26} {'change q1/med/q3':>26} {'wins':>6}"
        "  gain>IQR  1st/2nd"
    )
    for row in rows:
        parent = "/".join(_fmt(v) for v in row["parent"])
        change = "/".join(_fmt(v) for v in row["change"])
        wins = "-" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        verdict = "-" if row["beats_parent_iqr"] is None else ("yes" if row["beats_parent_iqr"] else "no")
        ratio = row["first_over_second"]
        order_text = "-" if ratio is None else f"{ratio:.3f}"
        if row["order_exceeds_gap"]:
            order_text += " ORDER>GAP"
        lines.append(
            f"{row['metric']:<48} {parent:>26} {change:>26} {wins:>6}  {verdict:>8}  {order_text}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "servebench" / "run.py").is_file():
            sys.stderr.write(f"bench_pairs: {side} checkout {checkout} has no servebench/run.py\n")
            return 2
    runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in order(pair):
            run = run_once(checkouts[side], args)
            runs[side].append(run)
            headline = {k: v for k, v in run["metrics"].items() if k == "throughput_qps"}
            sys.stderr.write(f"bench_pairs: pair {pair + 1}/{args.pairs} {side}: {headline}\n")
    rows = summarise(runs, directions(checkouts["change"]))
    print(report(rows, runs))
    if args.json:
        args.json.write_text(json.dumps({"args": vars(args), "runs": runs, "summary": rows}, default=str))
    complete = all(run["correct"] for side in SIDES for run in runs[side])
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
