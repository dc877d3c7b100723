"""Tiny-size self-test of the serving benchmark.

Run from the repository root::

    python3 servebench/selftest.py

Three checks, each printed as it passes:

1. every metric BENCHMARK.json names is printed by its run mode, with the
   unit BENCHMARK.json gives it, and the tiny runs are correct;
2. the answer-digest gate fails every batch when one answer is perturbed;
3. the traced run's answers (its digests) equal the untraced run's.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
SECONDS = 8


def run_benchmark(workload: str, trace: int):
    """(result line, notes) of one tiny run."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SECONDS),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    notes = None
    for line in completed.stderr.splitlines():
        if line.startswith("servebench: {"):
            notes = json.loads(line.split(": ", 1)[1])
    if completed.returncode != 0 or notes is None:
        raise AssertionError(f"{workload} trace={trace} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1]), notes


def check_metrics_and_trace_parity() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    for workload in (entry["name"] for entry in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            result, notes = run_benchmark(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert printed == expected[trace], (workload, trace, set(printed) ^ set(expected[trace]))
            assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
            digests[trace] = notes["digests"]
        # Check 3: the traced service (and the traced inline replay of a
        # pooled workload) answered exactly as the untraced timed service.
        traced = [digests[1][label] for label in ("traced", "traced inline replay") if label in digests[1]]
        assert traced and set(traced) == {digests[0]["timed"]}, (workload, digests)
        print(f"ok  {workload}: every named metric prints with its unit; traced answers match")


def check_digest_gate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from driver import closed_loop
    from run import Session, judge, served_results
    from workloads import WORKLOADS, build_substrate_timed, digest_results

    workload = WORKLOADS["cold_city"]
    substrate, _, _ = build_substrate_timed(time.perf_counter)
    batches = workload.batches(substrate.scenario.network, SEED, 24)
    with Session(workload, substrate, replay=True) as session:
        phase = closed_loop(session.service, batches, 1)
    expected = digest_results(served_results(phase))

    clean = judge("clean", (phase,), expected)
    assert not clean.problems and clean.failed == 0

    record = phase.records[-1]
    response = record.responses[0]
    wrong = dataclasses.replace(response.result, confidence=response.result.confidence + 0.125)
    record.responses[0] = dataclasses.replace(response, result=wrong)
    perturbed = judge("perturbed", (phase,), expected)
    assert perturbed.problems and perturbed.failed == perturbed.batches == len(batches)
    print("ok  digest gate fails every batch on one perturbed answer")


if __name__ == "__main__":
    check_digest_gate()
    check_metrics_and_trace_parity()
    print("servebench self-test passed")
