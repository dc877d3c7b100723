#!/usr/bin/env bash
# CI entry point.
#
#   scripts/ci.sh            # fast tier: tests minus @slow, then the
#                            # hot-path and experiment benchmark suites
#                            # with timing disabled (so benchmark code is
#                            # exercised for correctness without paying
#                            # for timed rounds)
#   scripts/ci.sh --all      # full tier: every test including @slow
#   scripts/ci.sh --chaos    # only the @chaos fault-injection suites
#                            # (hedged stragglers, supervision, recovery):
#                            # the fast standalone smoke leg CI runs per PR
#   scripts/ci.sh --bench    # additionally run the timed benchmarks into
#                            # bench_candidate.json and gate the measured
#                            # speedups against the committed
#                            # BENCH_hot_paths.json via scripts/bench_check.py
#   scripts/ci.sh --cov      # collect pytest coverage for src/repro into
#                            # coverage.xml (skipped with a warning when
#                            # pytest-cov is not installed, so offline dev
#                            # containers keep working)
#
# If ruff is installed, lint + format checks run first (CI installs it; the
# offline dev container may not have it, so it is skipped when absent).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_all=0
run_bench=0
run_cov=0
run_chaos=0
for arg in "$@"; do
    case "$arg" in
        --all) run_all=1 ;;
        --bench) run_bench=1 ;;
        --chaos) run_chaos=1 ;;
        --cov) run_cov=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

if [[ "$run_chaos" == 1 ]]; then
    echo "== chaos smoke (fault injection, fast tier) =="
    python -m pytest -x -q -m "chaos and not slow"
    exit 0
fi

cov_args=()
if [[ "$run_cov" == 1 ]]; then
    if python -c "import pytest_cov" >/dev/null 2>&1; then
        cov_args=(--cov=repro --cov-report=xml:coverage.xml --cov-report=term)
    else
        echo "WARNING: --cov requested but pytest-cov is not installed; running without coverage"
    fi
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== lint (ruff) =="
    ruff check src
    ruff format --check src
fi

echo "== docs lint =="
python scripts/docs_check.py

echo "== tier-1 tests =="
if [[ "$run_all" == 1 ]]; then
    python -m pytest -x -q ${cov_args[@]+"${cov_args[@]}"}
else
    # --durations: the slowest tests (mostly the forked legs) print on
    # every run, so growth in tier-1 wall time shows where it happened.
    python -m pytest -x -q -m "not slow" --durations=15 ${cov_args[@]+"${cov_args[@]}"}
fi

echo "== source size (non-blank lines of .py files) =="
# Printed on every run so each change's net line delta shows in the log.
for dir in src/repro tests; do
    printf '%8d  %s\n' "$(find "$dir" -name '*.py' -exec cat {} + | grep -cv '^[[:space:]]*$')" "$dir"
done

echo "== benchmarks (timing disabled) =="
# The hot-path suites, then the experiment shape checks (E1-E8, F1, F2).
python -m pytest benchmarks/bench_hot_paths.py benchmarks/bench_exp_*.py -q --benchmark-disable

if [[ "$run_bench" == 1 ]]; then
    echo "== hot-path benchmark trajectory (timed) =="
    python scripts/bench_to_json.py --out bench_candidate.json
    echo "== perf-regression gate =="
    python scripts/bench_check.py --candidate bench_candidate.json
fi
