#!/usr/bin/env python
"""Run the hot-path microbenchmarks and write ``BENCH_hot_paths.json``.

The JSON file is the repo's performance trajectory: each entry records the
per-benchmark timings pytest-benchmark measured plus the compiled-vs-reference
speedup per group (the ratio of the two sides' minimum round times).  Future
perf PRs regenerate the file and are judged against the recorded speedups.

Usage::

    python scripts/bench_to_json.py                 # run + write BENCH_hot_paths.json
    python scripts/bench_to_json.py --out other.json
    python scripts/bench_to_json.py --pytest-args="-k dijkstra"
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "benchmarks" / "bench_hot_paths.py"

#: benchmark groups where a ``*_compiled``/``*_sparse`` fast path is paired
#: with a ``*_reference``/``*_dense`` oracle; the ratio of their minimum
#: round times is the group's recorded speedup.  The minimum is each side's
#: round least disturbed by other load on the machine; a slow stretch that
#: outlasts a whole side still moves it (see docs/benchmarks.md).
_PAIRED_SUFFIXES = (("_compiled", "_reference"), ("_sparse", "_dense"))

#: extra-info keys the hotspot suite reports (``benchmark.extra_info``):
#: the skew of the shard plan before/after splitting plus the sub-shard
#: chain depth — carried into the trajectory so CI can show the delta.
_SKEW_KEYS = (
    "largest_shard_fraction_before",
    "largest_shard_fraction_after",
    "chain_depth",
)


def run_benchmarks(pytest_args: str) -> dict:
    """Run the hot-path benchmark file, returning pytest-benchmark's JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(BENCH_FILE),
            "-q",
            "--benchmark-only",
            f"--benchmark-json={json_path}",
            *shlex.split(pytest_args),
        ]
        completed = subprocess.run(command, cwd=REPO_ROOT)
        if completed.returncode != 0:
            raise SystemExit(completed.returncode)
        return json.loads(json_path.read_text())


def summarise(raw: dict) -> dict:
    """Compress pytest-benchmark output into the trajectory schema."""
    benchmarks = {}
    groups: dict = {}
    group_wire_bytes: dict = {}
    skew: dict = {}
    for entry in raw.get("benchmarks", []):
        stats = entry["stats"]
        name = entry["name"]
        benchmarks[name] = {
            "group": entry.get("group"),
            "min_s": stats["min"],
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
        extra = entry.get("extra_info", {})
        wire = extra.get("wire_bytes")
        if wire is not None:
            benchmarks[name]["wire_bytes"] = int(wire)
            group_wire_bytes.setdefault(entry.get("group"), {})[name] = int(wire)
        if all(key in extra for key in _SKEW_KEYS):
            profile = {key: extra[key] for key in _SKEW_KEYS}
            benchmarks[name].update(profile)
            skew[entry.get("group")] = profile
        groups.setdefault(entry.get("group"), {})[name] = stats["min"]

    speedups = {}
    for group, members in groups.items():
        for fast_suffix, slow_suffix in _PAIRED_SUFFIXES:
            fast = [v for k, v in members.items() if k.endswith(fast_suffix)]
            slow = [v for k, v in members.items() if k.endswith(slow_suffix)]
            if len(fast) == 1 and len(slow) == 1 and fast[0] > 0:
                speedups[group] = round(slow[0] / fast[0], 3)

    # Suites whose pair reports payload sizes (``benchmark.extra_info
    # ["wire_bytes"]``) additionally record bytes-on-wire and the
    # compiled-vs-reference shrink factor, e.g. the truth wire codec.
    wire_bytes = {}
    for group, members in group_wire_bytes.items():
        for fast_suffix, slow_suffix in _PAIRED_SUFFIXES:
            fast = [v for k, v in members.items() if k.endswith(fast_suffix)]
            slow = [v for k, v in members.items() if k.endswith(slow_suffix)]
            if len(fast) == 1 and len(slow) == 1 and fast[0] > 0:
                wire_bytes[group] = {
                    "compiled": fast[0],
                    "reference": slow[0],
                    "shrink": round(slow[0] / fast[0], 3),
                }

    return {
        "suite": "hot_paths",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "python": raw.get("machine_info", {}).get("python_version"),
        "datetime": raw.get("datetime"),
        "benchmarks": benchmarks,
        "speedups": speedups,
        "wire_bytes": wire_bytes,
        "skew": skew,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_hot_paths.json"))
    parser.add_argument("--pytest-args", default="", help="extra args passed to pytest")
    args = parser.parse_args()

    summary = summarise(run_benchmarks(args.pytest_args))
    out_path = Path(args.out)
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for group, speedup in sorted(summary["speedups"].items()):
        print(f"  {group}: {speedup}x vs reference")


if __name__ == "__main__":
    main()
