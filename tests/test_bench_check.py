"""The hot-path perf gate (``scripts/bench_check.py``): which suites fail."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def bench_check(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("bench_check")


def _speedups(**groups):
    return {"speedups": groups}


def test_suite_inside_its_floor_passes(bench_check):
    committed = _speedups(dijkstra=3.0, astar=2.0)
    candidate = _speedups(dijkstra=2.2, astar=2.5)
    assert bench_check.compare(committed, candidate, 0.7) == []


def test_regressed_suite_fails(bench_check):
    committed = _speedups(dijkstra=3.0, astar=2.0)
    candidate = _speedups(dijkstra=2.0, astar=2.0)
    assert bench_check.compare(committed, candidate, 0.7) == [
        ("dijkstra", 3.0, 2.0, pytest.approx(2.1))
    ]


def test_missing_suite_fails(bench_check):
    committed = _speedups(dijkstra=3.0, astar=2.0)
    candidate = _speedups(dijkstra=3.0)
    assert bench_check.compare(committed, candidate, 0.7) == [
        ("astar", 2.0, None, pytest.approx(1.4))
    ]


def test_measured_suite_without_committed_speedup_fails(bench_check):
    committed = _speedups(dijkstra=3.0)
    candidate = _speedups(dijkstra=3.0, fastest_routing=12.0)
    failures = bench_check.compare(committed, candidate, 0.7)
    assert failures == [("fastest_routing", None, 12.0, None)]
    markdown = bench_check.render_summary_markdown(committed, candidate, 0.7, failures)
    assert "| fastest_routing | — | 12.00x | uncommitted |" in markdown
    assert "❌ uncommitted" in markdown and "**FAIL**" in markdown
