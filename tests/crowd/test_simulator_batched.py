"""Batched crowd simulation: responses identical to the sequential oracle
across seeds, plus the vectorized behaviour-model evaluation."""

import numpy as np
import pytest

from repro.core.task_generation import TaskGenerator
from repro.crowd.reference import SequentialCrowd, answer_accuracies, answer_accuracy
from repro.crowd.simulator import SimulatedCrowd
from repro.exceptions import TaskGenerationError


@pytest.fixture(scope="module")
def crowd_tasks(scenario):
    generator = TaskGenerator(scenario.calibrator, scenario.catalog)
    tasks = []
    for query in scenario.sample_queries(40, seed=733):
        candidates = []
        seen = set()
        for source in scenario.sources:
            candidate = source.recommend_or_none(query)
            if candidate is None or candidate.path in seen:
                continue
            seen.add(candidate.path)
            candidates.append(candidate)
        if len(candidates) < 2:
            continue
        try:
            tasks.append(generator.generate(query, candidates))
        except TaskGenerationError:
            continue
        if len(tasks) >= 5:
            break
    if not tasks:
        pytest.skip("no crowd task could be generated")
    return tasks


def _fresh_crowd(scenario, seed, crowd_class=SimulatedCrowd):
    return crowd_class(
        pool=scenario.worker_pool,
        catalog=scenario.catalog,
        calibrator=scenario.calibrator,
        ground_truth=scenario.crowd.ground_truth,
        behavior=scenario.crowd.behavior,
        seed=seed,
    )


class TestBatchedEquivalence:
    @pytest.mark.parametrize("seed", [1, 42, 97])
    def test_responses_identical_across_seeds(self, scenario, crowd_tasks, seed):
        worker_ids = scenario.worker_pool.ids()
        batched = _fresh_crowd(scenario, seed)
        sequential = _fresh_crowd(scenario, seed, crowd_class=SequentialCrowd)
        for task in crowd_tasks:
            assert batched.collect_responses(task, worker_ids) == (
                sequential.collect_responses(task, worker_ids)
            )

    def test_batched_false_uses_sequential_path(self, scenario, crowd_tasks):
        worker_ids = scenario.worker_pool.ids()[:6]
        plain = _fresh_crowd(scenario, 5, crowd_class=SequentialCrowd)
        oracle = _fresh_crowd(scenario, 5)
        task = crowd_tasks[0]
        assert plain.collect_responses(task, worker_ids) == (
            oracle.collect_responses(task, worker_ids)
        )

    def test_subset_of_workers(self, scenario, crowd_tasks):
        worker_ids = scenario.worker_pool.ids()[:3]
        batched = _fresh_crowd(scenario, 11)
        sequential = _fresh_crowd(scenario, 11, crowd_class=SequentialCrowd)
        for task in crowd_tasks:
            assert batched.collect_responses(task, worker_ids) == (
                sequential.collect_responses(task, worker_ids)
            )

    def test_truth_cache_reused_across_tasks_for_same_query(self, scenario, crowd_tasks):
        crowd = _fresh_crowd(scenario, 13)
        task = crowd_tasks[0]
        crowd.collect_responses(task, scenario.worker_pool.ids()[:2])
        assert len(crowd._truth_cache) == 1
        crowd.collect_responses(task, scenario.worker_pool.ids()[:2])
        assert len(crowd._truth_cache) == 1


class TestPopulationAccuracies:
    """The population-level matrix is a pure cache: slices must be
    bit-identical to the per-task evaluation it replaces."""

    def test_responses_identical_to_per_task_path(self, scenario, crowd_tasks):
        worker_ids = scenario.worker_pool.ids()
        population = _fresh_crowd(scenario, 23)
        population.refresh_population_accuracies()
        assert population._population is not None
        oracle = _fresh_crowd(scenario, 23)  # never refreshed: per-task rows
        for task in crowd_tasks:
            assert population.collect_responses(task, worker_ids) == (
                oracle.collect_responses(task, worker_ids)
            )

    def test_slices_bit_identical_to_per_task_matrix(self, scenario, crowd_tasks):
        crowd = _fresh_crowd(scenario, 29)
        crowd.refresh_population_accuracies()
        workers = scenario.worker_pool.workers()[:7]
        for task in crowd_tasks:
            tree = crowd._compiled_tree(task)
            sliced = crowd._crew_accuracies(tree, workers)
            direct = crowd.behavior.answer_accuracies_matrix(
                workers, tree.xs, tree.ys
            ).tolist()
            assert sliced == direct

    def test_no_per_task_numpy_dispatch_after_refresh(
        self, scenario, crowd_tasks, monkeypatch
    ):
        from repro.crowd.behavior import AnswerBehaviorModel

        crowd = _fresh_crowd(scenario, 31)
        calls = []
        original = AnswerBehaviorModel.answer_accuracies_matrix

        def counting(self, workers, xs, ys):
            calls.append(len(workers))
            return original(self, workers, xs, ys)

        monkeypatch.setattr(AnswerBehaviorModel, "answer_accuracies_matrix", counting)
        crowd.refresh_population_accuracies()
        assert len(calls) == 1  # the single population-wide evaluation
        for task in crowd_tasks:
            crowd.collect_responses(task, scenario.worker_pool.ids())
        assert len(calls) == 1  # every crew row came from the population slice

    def test_unknown_landmark_falls_back_to_per_task(self, scenario, crowd_tasks):
        worker_ids = scenario.worker_pool.ids()[:5]
        crowd = _fresh_crowd(scenario, 37)
        crowd.refresh_population_accuracies()
        worker_rows, landmark_cols = crowd._population
        task = crowd_tasks[0]
        tree = crowd._compiled_tree(task)
        # Drop one questioned landmark from the matrix: the slice must give
        # way to the per-task evaluation, not mis-index.
        stale_cols = {
            lid: col for lid, col in landmark_cols.items() if lid != tree.landmark_ids[0]
        }
        crowd._population = (worker_rows, stale_cols)
        oracle = _fresh_crowd(scenario, 37)  # never refreshed: per-task rows
        assert crowd.collect_responses(task, worker_ids) == (
            oracle.collect_responses(task, worker_ids)
        )


class TestVectorizedAccuracies:
    def test_matches_scalar_model(self, scenario):
        behavior = scenario.crowd.behavior
        landmarks = scenario.catalog.all()[:25]
        xs = np.array([landmark.anchor.x for landmark in landmarks])
        ys = np.array([landmark.anchor.y for landmark in landmarks])
        for worker in scenario.worker_pool.workers()[:10]:
            vectorized = answer_accuracies(behavior, worker, xs, ys)
            scalar = [answer_accuracy(behavior, worker, lm.anchor) for lm in landmarks]
            # np.hypot may differ from math.hypot in the final ulp, so the
            # comparison allows that window (the response-level tests above
            # pin exact equality).
            np.testing.assert_allclose(vectorized, scalar, rtol=1e-12, atol=0.0)

    def test_matrix_rows_match_single_worker_path(self, scenario):
        behavior = scenario.crowd.behavior
        landmarks = scenario.catalog.all()[:25]
        xs = np.array([landmark.anchor.x for landmark in landmarks])
        ys = np.array([landmark.anchor.y for landmark in landmarks])
        workers = scenario.worker_pool.workers()[:10]
        matrix = behavior.answer_accuracies_matrix(workers, xs, ys)
        assert matrix.shape == (len(workers), len(landmarks))
        for worker, row in zip(workers, matrix):
            assert np.array_equal(row, answer_accuracies(behavior, worker, xs, ys))

    def test_accuracy_bounds(self, scenario):
        behavior = scenario.crowd.behavior
        landmarks = scenario.catalog.all()
        xs = np.array([landmark.anchor.x for landmark in landmarks])
        ys = np.array([landmark.anchor.y for landmark in landmarks])
        matrix = behavior.answer_accuracies_matrix(scenario.worker_pool.workers(), xs, ys)
        assert (matrix >= behavior.base_accuracy).all()
        assert (matrix <= behavior.max_accuracy).all()
