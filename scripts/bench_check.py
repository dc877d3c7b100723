#!/usr/bin/env python
"""Guard the hot-path performance trajectory.

Re-runs the hot-path microbenchmarks and compares each suite's
speedup-vs-reference against the committed ``BENCH_hot_paths.json``: the check
fails when any suite drops below ``--threshold`` (default 0.7) times its
committed speedup — i.e. a fast path that lost more than ~30% of its recorded
advantage over the preserved oracle — and when a committed suite was not
measured or a measured suite has no committed speedup yet.  Absolute timings
are machine-dependent, but the fast/reference *ratio* is measured on the same
machine in the same run, which makes it a portable regression signal.

Usage::

    python scripts/bench_check.py                   # re-run + compare
    python scripts/bench_check.py --threshold 0.5   # looser gate
    python scripts/bench_check.py --candidate f.json  # compare a prior run

In CI the committed-vs-measured delta table is additionally appended as
Markdown to ``$GITHUB_STEP_SUMMARY`` (or any file passed via
``--summary-file``), so perf drift is visible on the PR's job summary even
when the gate passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bench_to_json import run_benchmarks, summarise

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_hot_paths.json"


def compare(committed: dict, candidate: dict, threshold: float) -> list:
    """Return ``(group, committed, measured, floor)`` rows that fail the gate.

    A suite fails when its measured speedup is below ``threshold`` times the
    committed one, when a committed suite was not measured (``measured`` is
    ``None``), or when a measured suite has no committed speedup
    (``committed`` and ``floor`` are ``None``): a suite nobody committed a
    ratio for would otherwise pass ungated for good.
    """
    recorded_speedups = committed.get("speedups", {})
    measured_speedups = candidate.get("speedups", {})
    failures = []
    for group in sorted(set(recorded_speedups) | set(measured_speedups)):
        recorded = recorded_speedups.get(group)
        measured = measured_speedups.get(group)
        if recorded is None:
            failures.append((group, None, measured, None))
            continue
        floor = recorded * threshold
        if measured is None or measured < floor:
            failures.append((group, recorded, measured, floor))
    return failures


def _failure_text(group: str, recorded, measured, floor) -> str:
    if recorded is None:
        return f"{group}: {measured:.2f}x measured but no committed speedup (commit it to gate it)"
    measured_text = "missing" if measured is None else f"{measured:.2f}x"
    return f"{group}: {measured_text} < floor {floor:.2f}x (committed {recorded:.2f}x)"


def _wire_bytes_text(summary: dict, group: str) -> str:
    """Render a suite's bytes-on-wire record (``—`` when it has none)."""
    record = summary.get("wire_bytes", {}).get(group)
    if not record:
        return "—"
    compiled, shrink = record.get("compiled"), record.get("shrink")
    if compiled is None or shrink is None:
        return "—"
    return f"{compiled / 1024:.1f} KiB ({shrink:.1f}x smaller)"


def _skew_text(summary: dict, group: str) -> str:
    """Render a suite's shard-skew record (``—`` when it has none)."""
    record = summary.get("skew", {}).get(group)
    if not record:
        return "—"
    before = record.get("largest_shard_fraction_before")
    after = record.get("largest_shard_fraction_after")
    depth = record.get("chain_depth")
    if before is None or after is None or depth is None:
        return "—"
    return f"{before:.2f}→{after:.2f} (depth {depth})"


def render_summary_markdown(committed: dict, candidate: dict, threshold: float, failures: list) -> str:
    """Markdown delta table of committed vs measured speedups per suite.

    Suites that record payload sizes (the truth wire codec) get a
    wire-bytes column, and suites that record a shard-skew profile (the
    hotspot chain) a largest-shard-fraction before→after column with the
    sub-shard chain depth, so payload and skew regressions surface on the
    job summary alongside timing drift.
    """
    failed_groups = {group for group, *_ in failures}
    lines = [
        "### Hot-path speedup trajectory (fast path vs preserved oracle)",
        "",
        "| suite | committed | measured | delta | wire bytes | largest shard | status |",
        "|---|---:|---:|---:|---:|---:|:---|",
    ]
    groups = sorted(set(committed.get("speedups", {})) | set(candidate.get("speedups", {})))
    for group in groups:
        recorded = committed.get("speedups", {}).get(group)
        measured = candidate.get("speedups", {}).get(group)
        recorded_text = f"{recorded:.2f}x" if recorded is not None else "—"
        measured_text = f"{measured:.2f}x" if measured is not None else "missing"
        if recorded and measured:
            delta = (measured - recorded) / recorded
            delta_text = f"{delta:+.1%}"
        elif recorded is None and measured is not None:
            delta_text = "uncommitted"
        else:
            delta_text = "—"
        wire_text = _wire_bytes_text(candidate, group)
        if wire_text == "—":
            # No measurement this run: show the committed figure but label
            # it, so a suite that stopped reporting payload sizes cannot
            # pass stale data off as measured.
            recorded_wire = _wire_bytes_text(committed, group)
            if recorded_wire != "—":
                wire_text = f"{recorded_wire} (committed)"
        skew_text = _skew_text(candidate, group)
        if skew_text == "—":
            recorded_skew = _skew_text(committed, group)
            if recorded_skew != "—":
                skew_text = f"{recorded_skew} (committed)"
        if group not in failed_groups:
            status = "✅"
        elif recorded is None:
            status = "❌ uncommitted"
        else:
            status = "❌ regressed"
        lines.append(
            f"| {group} | {recorded_text} | {measured_text} | {delta_text} "
            f"| {wire_text} | {skew_text} | {status} |"
        )
    lines.append("")
    if failures:
        lines.append(
            f"**FAIL** — {len(failures)} suite(s) below {threshold:.0%} of the committed "
            "speedup, missing, or without a committed speedup."
        )
    else:
        lines.append(f"**OK** — every suite holds ≥ {threshold:.0%} of its committed speedup.")
    lines.append("")
    return "\n".join(lines)


def write_summary(markdown: str, summary_file: str | None) -> None:
    """Append the table to --summary-file and/or $GITHUB_STEP_SUMMARY."""
    targets = [summary_file, os.environ.get("GITHUB_STEP_SUMMARY")]
    for target in targets:
        if not target:
            continue
        with open(target, "a", encoding="utf-8") as handle:
            handle.write(markdown + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.7,
        help="minimum fraction of the committed speedup each suite must keep",
    )
    parser.add_argument(
        "--trajectory",
        default=str(TRAJECTORY),
        help="committed trajectory file to compare against",
    )
    parser.add_argument(
        "--candidate",
        default=None,
        help="use an existing summary JSON instead of re-running the benchmarks",
    )
    parser.add_argument("--pytest-args", default="", help="extra args passed to pytest")
    parser.add_argument(
        "--summary-file",
        default=None,
        help="append the Markdown delta table here (always also appended to "
        "$GITHUB_STEP_SUMMARY when that is set)",
    )
    args = parser.parse_args()
    if not 0.0 < args.threshold <= 1.0:
        parser.error("--threshold must be in (0, 1]")

    committed = json.loads(Path(args.trajectory).read_text())
    if args.candidate:
        candidate = json.loads(Path(args.candidate).read_text())
    else:
        candidate = summarise(run_benchmarks(args.pytest_args))

    for group, measured in sorted(candidate.get("speedups", {}).items()):
        recorded = committed.get("speedups", {}).get(group)
        recorded_text = f"{recorded:.2f}x committed" if recorded else "no committed speedup"
        print(f"  {group}: {measured:.2f}x measured ({recorded_text})")

    failures = compare(committed, candidate, args.threshold)
    write_summary(
        render_summary_markdown(committed, candidate, args.threshold, failures),
        args.summary_file,
    )
    if failures:
        print(f"\nFAIL: {len(failures)} suite(s) off the trajectory (threshold {args.threshold:.0%}):")
        for failure in failures:
            print(f"  {_failure_text(*failure)}")
        return 1
    print(f"\nOK: every suite holds >= {args.threshold:.0%} of its committed speedup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
