"""Smoke and shape tests for the experiment modules.

These run each experiment on small workloads and check the *shape* of the
paper's findings (who wins, what decreases) rather than absolute numbers.
"""

import pytest

from repro.datasets.synthetic_city import build_scenario
from repro.experiments import (
    exp_pmf,
    exp_questions,
    exp_selection_efficiency,
    exp_significance,
    exp_throughput,
)
from repro.experiments.exp_pmf import PMFExperimentConfig
from repro.experiments.exp_questions import QuestionExperimentConfig
from repro.experiments.exp_selection_efficiency import SelectionEfficiencyConfig
from repro.experiments.exp_throughput import ThroughputExperimentConfig
from repro.experiments.harness import ExperimentRunner
from repro.experiments.synthetic_routes import make_synthetic_landmark_routes


class TestSyntheticRoutes:
    def test_routes_are_distinguishable(self):
        routes, significance = make_synthetic_landmark_routes(4, 15, 5, seed=1)
        signatures = {route.landmark_set for route in routes}
        assert len(signatures) == 4
        assert set(significance) == set(range(15))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_synthetic_landmark_routes(1, 10)
        with pytest.raises(ValueError):
            make_synthetic_landmark_routes(3, 2, 5)


class TestQuestionExperiment:
    def test_id3_never_worse_than_asking_all(self):
        result = exp_questions.run(QuestionExperimentConfig(route_counts=(2, 3, 4), trials=2))
        for row in result.rows:
            assert row["id3_expected_questions"] <= row["ask_all_questions"] + 1e-9
            assert row["selected_landmarks"] <= row["beneficial_landmarks"]

    def test_greedy_matches_ils_objective(self):
        result = exp_questions.run(QuestionExperimentConfig(route_counts=(3, 4), trials=2))
        for row in result.rows:
            assert row["greedy_objective"] == pytest.approx(row["ils_objective"], abs=1e-9)

    def test_questions_grow_with_candidates(self):
        result = exp_questions.run(QuestionExperimentConfig(route_counts=(2, 5), trials=2))
        first, last = result.rows[0], result.rows[-1]
        assert last["id3_expected_questions"] >= first["id3_expected_questions"]


class TestSelectionEfficiencyExperiment:
    def test_all_algorithms_agree_on_value(self):
        result = exp_selection_efficiency.run(
            SelectionEfficiencyConfig(route_counts=(3,), landmark_counts=(10, 12), brute_force_limit=12)
        )
        for row in result.rows:
            if "brute_value" in row:
                assert row["greedy_value"] == pytest.approx(row["brute_value"], abs=1e-9)
                assert row["ils_value"] == pytest.approx(row["brute_value"], abs=1e-9)

    def test_greedy_evaluates_fewer_sets_than_brute_force(self):
        result = exp_selection_efficiency.run(
            SelectionEfficiencyConfig(route_counts=(3,), landmark_counts=(12,), brute_force_limit=12)
        )
        row = result.rows[0]
        assert row["greedy_sets_evaluated"] < row["brute_sets_evaluated"]


class TestScenarioExperiments:
    def test_significance_distribution_is_skewed(self, scenario):
        result = exp_significance.run(scenario)
        assert result.summary["gini"] > 0.2
        assert result.summary["top_10_share"] > 10 / len(scenario.catalog)
        significances = [row["significance"] for row in result.rows]
        assert significances == sorted(significances)

    def test_pmf_beats_zero_baseline(self, scenario):
        result = exp_pmf.run(scenario, PMFExperimentConfig(holdout_fractions=(0.2,)))
        row = result.rows[0]
        assert row["pmf_rmse"] <= row["zero_baseline_rmse"]
        assert row["heldout_cells"] > 0

    def test_throughput_backends_identical_to_sequential(self, scenario):
        # A fresh copy of the shared scenario: E8's crowd tasks write worker
        # answer histories, which other tests read.
        result = exp_throughput.run(
            build_scenario(scenario.config),
            ThroughputExperimentConfig(
                num_batches=2, batch_size=12, pool_sizes=(2,), use_processes=False
            ),
        )
        assert {row["backend"] for row in result.rows} == {
            "inline",
            "pooled",
            "pipelined",
            "per_batch",
        }
        assert result.summary["all_runs_identical_to_sequential"]


class TestHarness:
    def test_registry_covers_all_experiments(self, scenario):
        runner = ExperimentRunner(scenario_config=scenario.config, scenario=scenario)
        registry = runner.available_experiments()
        assert set(registry) == {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "F1", "F2"}

    def test_unknown_experiment_id(self, scenario):
        runner = ExperimentRunner(scenario_config=scenario.config, scenario=scenario)
        with pytest.raises(KeyError):
            runner.run(["E99"])

    def test_run_selected_and_render(self, scenario):
        runner = ExperimentRunner(scenario_config=scenario.config, scenario=scenario)
        results = runner.run(["F1"])
        report = ExperimentRunner.render_report(results)
        assert "[F1]" in report
