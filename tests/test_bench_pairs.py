"""The paired servebench runner (``scripts/bench_pairs.py``): CLI smoke and
the per-metric summary it prints."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("bench_pairs")


def test_help_runs():
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0
    assert "--parent" in completed.stdout and "--pairs" in completed.stdout


def _run(**metrics):
    return {"correct": True, "failed": 0, "metrics": metrics}


def test_summary_counts_wins_in_each_metrics_direction(bench_pairs):
    runs = {
        "parent": [_run(qps=100.0, rss=50.0), _run(qps=110.0, rss=50.0), _run(qps=90.0, rss=52.0)],
        "change": [_run(qps=200.0, rss=51.0), _run(qps=105.0, rss=49.0), _run(qps=190.0, rss=52.0)],
    }
    rows = {
        row["metric"]: row
        for row in bench_pairs.summarise(runs, {"qps": "higher", "rss": "lower"})
    }
    assert rows["qps"]["wins"] == 2 and rows["qps"]["pairs"] == 3
    assert rows["qps"]["parent"] == [95.0, 100.0, 105.0]
    assert rows["qps"]["beats_parent_iqr"] is True
    assert rows["rss"]["wins"] == 1
    assert rows["rss"]["beats_parent_iqr"] is False
    text = bench_pairs.report(list(rows.values()), runs)
    assert "parent: 3/3 runs correct, 0 failed operations" in text


def test_order_effect_is_flagged_when_it_exceeds_the_change_gap(bench_pairs):
    """Pairs alternate parent first / change first.  Here whichever side
    runs first is 20% faster and the two sides are otherwise equal, so the
    order moves the metric more than the change does."""
    runs = {
        "parent": [_run(qps=120.0), _run(qps=100.0), _run(qps=120.0), _run(qps=100.0)],
        "change": [_run(qps=100.0), _run(qps=120.0), _run(qps=100.0), _run(qps=120.0)],
    }
    (row,) = bench_pairs.summarise(runs, {"qps": "higher"})
    assert row["first_over_second"] == pytest.approx(1.2)
    assert row["order_exceeds_gap"] is True
    assert "1.200 ORDER>GAP" in bench_pairs.report([row], runs)


def test_order_effect_within_the_change_gap_is_not_flagged(bench_pairs):
    runs = {
        "parent": [_run(qps=100.0), _run(qps=101.0)],
        "change": [_run(qps=150.0), _run(qps=150.0)],
    }
    (row,) = bench_pairs.summarise(runs, {"qps": "higher"})
    # Pair 1 ran the parent first (100/150), pair 2 the change (150/101).
    assert row["first_over_second"] == pytest.approx((100 / 150 + 150 / 101) / 2)
    assert row["order_exceeds_gap"] is False
    assert "ORDER>GAP" not in bench_pairs.report([row], runs)
