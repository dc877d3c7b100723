"""Tests for worker profiles, familiarity scores, PMF and response times."""

import copy
import math
import random

import numpy as np
import pytest

from repro.config import PlannerConfig
from repro.core.familiarity import FamiliarityModel
from repro.core.pmf import ProbabilisticMatrixFactorization
from repro.core.reference import DenseProbabilisticMatrixFactorization, raw_score
from repro.core.response_time import ResponseTimeModel
from repro.core.worker import AnswerRecord, Worker, WorkerPool
from repro.exceptions import ConfigurationError, WorkerSelectionError
from repro.landmarks.model import Landmark, LandmarkCatalog, LandmarkKind
from repro.spatial import Point


def make_worker(worker_id, home=(0.0, 0.0), work=(1000.0, 0.0), rate=1.0 / 300):
    return Worker(
        worker_id=worker_id,
        home=Point(*home),
        workplace=Point(*work),
        response_rate=rate,
    )


def make_catalog(positions):
    return LandmarkCatalog(
        [
            Landmark(i, f"lm-{i}", LandmarkKind.POINT, Point(x, y))
            for i, (x, y) in enumerate(positions)
        ]
    )


class TestWorkerPool:
    def test_add_get_contains(self):
        pool = WorkerPool([make_worker(1)])
        assert 1 in pool and len(pool) == 1
        assert pool.get(1).worker_id == 1

    def test_duplicate_rejected(self):
        pool = WorkerPool([make_worker(1)])
        with pytest.raises(WorkerSelectionError):
            pool.add(make_worker(1))

    def test_unknown_worker(self):
        with pytest.raises(WorkerSelectionError):
            WorkerPool().get(5)

    def test_assign_release(self):
        pool = WorkerPool([make_worker(1)])
        pool.assign(1)
        assert pool.get(1).outstanding_tasks == 1
        pool.release(1)
        pool.release(1)  # never below zero
        assert pool.get(1).outstanding_tasks == 0

    def test_answer_history(self):
        worker = make_worker(1)
        worker.record_answer(7, correct=True)
        worker.record_answer(7, correct=False)
        record = worker.history_for(7)
        assert record.correct == 1 and record.wrong == 1 and record.total == 2
        assert worker.history_for(99).total == 0

    def test_copy_equals_source_and_is_isolated_both_ways(self):
        source = WorkerPool([make_worker(1), make_worker(2, home=(5.0, 5.0))])
        source.get(1).familiar_places.append(Point(3.0, 4.0))
        source.get(1).record_answer(7, correct=True)
        source.get(2).record_answer(8, correct=False)
        source.get(2).reward_points = 1.5
        source.assign(2)

        twin = source.copy()
        assert twin.ids() == source.ids()
        for original, copied in zip(source, twin):
            assert copied is not original
            assert copied == original  # every field, answer records included
            assert copied.familiar_places is not original.familiar_places
            assert copied.answer_history is not original.answer_history
            for landmark_id, record in original.answer_history.items():
                assert copied.answer_history[landmark_id] is not record
            assert copied.home is original.home  # frozen anchors are shared

        def mutate(pool, new_id):
            pool.assign(1)
            pool.get(2).reward_points += 2.0
            pool.get(1).record_answer(7, correct=False)  # existing record
            pool.get(2).record_answer(9, correct=True)  # new record
            pool.get(2).familiar_places.append(Point(9.0, 9.0))
            pool.add(make_worker(new_id))

        for mutated, other, new_id in ((twin, source, 3), (source, twin, 4)):
            frozen = copy.deepcopy(other.workers())
            mutate(mutated, new_id)
            assert other.workers() == frozen
            assert new_id not in other

    def test_nearest_familiar_place_defaults_to_home(self):
        worker = make_worker(1, home=(5, 5))
        assert worker.nearest_familiar_place(Point(0, 0)) == Point(5, 5)


class TestResponseTimeModel:
    def test_probability_monotone_in_deadline(self):
        model = ResponseTimeModel()
        worker = make_worker(1, rate=1.0 / 600)
        assert model.probability_within(worker, 1200) > model.probability_within(worker, 300)

    def test_probability_zero_for_non_positive_deadline(self):
        assert ResponseTimeModel().probability_within(make_worker(1), 0) == 0.0

    def test_expected_response_time(self):
        worker = make_worker(1, rate=1.0 / 600)
        assert ResponseTimeModel().expected_response_time(worker) == pytest.approx(600.0)

    def test_meets_deadline_threshold(self):
        model = ResponseTimeModel()
        fast = make_worker(1, rate=1.0 / 60)
        slow = make_worker(2, rate=1.0 / 7200)
        assert model.meets_deadline(fast, 600, 0.9)
        assert not model.meets_deadline(slow, 600, 0.9)

    def test_sample_nonnegative(self):
        model = ResponseTimeModel()
        rng = random.Random(3)
        samples = [model.sample(make_worker(1), rng) for _ in range(100)]
        assert all(value >= 0 for value in samples)

    def test_invalid_minimum_rate(self):
        with pytest.raises(WorkerSelectionError):
            ResponseTimeModel(minimum_rate=0)


class TestPMF:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticMatrixFactorization(latent_dim=0)
        with pytest.raises(ConfigurationError):
            ProbabilisticMatrixFactorization(learning_rate=0)
        with pytest.raises(ConfigurationError):
            ProbabilisticMatrixFactorization(max_iterations=0)
        # NaN fails every ordering comparison, so it needs its own check.
        for parameter in ("learning_rate", "regularization_workers", "regularization_landmarks"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ConfigurationError):
                    ProbabilisticMatrixFactorization(**{parameter: value})
        for tolerance in (float("nan"), float("inf"), -1e-6):
            with pytest.raises(ConfigurationError):
                ProbabilisticMatrixFactorization(tolerance=tolerance)

    def test_predict_before_fit_raises(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticMatrixFactorization().predict()

    def test_reconstructs_low_rank_matrix(self):
        rng = np.random.default_rng(5)
        true_workers = rng.uniform(0.2, 1.0, size=(3, 20))
        true_landmarks = rng.uniform(0.2, 1.0, size=(3, 15))
        matrix = true_workers.T @ true_landmarks
        mask = rng.random(matrix.shape) < 0.6
        observed = np.where(mask, matrix, 0.0)
        pmf = ProbabilisticMatrixFactorization(latent_dim=3, max_iterations=2000, learning_rate=0.01)
        pmf.fit(observed, mask)
        predicted = pmf.predict()
        error = np.abs(predicted - matrix)[~mask].mean()
        assert error < 0.25

    def test_complete_preserves_observed_cells(self):
        matrix = np.array([[1.0, 0.0], [0.0, 2.0]])
        pmf = ProbabilisticMatrixFactorization(latent_dim=2, max_iterations=50)
        completed = pmf.complete(matrix)
        assert completed[0, 0] == pytest.approx(1.0)
        assert completed[1, 1] == pytest.approx(2.0)
        assert completed[0, 1] >= 0.0

    def test_objective_decreases(self):
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0, 1, size=(10, 12))
        pmf = ProbabilisticMatrixFactorization(latent_dim=4, max_iterations=300)
        report = pmf.fit(matrix)
        assert report.final_objective < (matrix**2).sum()

    def test_rejects_bad_shapes(self):
        pmf = ProbabilisticMatrixFactorization()
        with pytest.raises(ConfigurationError):
            pmf.fit(np.zeros(5))
        with pytest.raises(ConfigurationError):
            pmf.fit(np.zeros((2, 2)), mask=np.zeros((3, 3), dtype=bool))

    def test_sparse_matches_dense_training(self):
        # The observed-entry (COO) gradient path must minimise the same
        # objective as the original dense masked implementation.
        rng = np.random.default_rng(17)
        true_workers = rng.uniform(0.2, 1.0, size=(4, 25))
        true_landmarks = rng.uniform(0.2, 1.0, size=(4, 30))
        matrix = true_workers.T @ true_landmarks
        mask = rng.random(matrix.shape) < 0.08  # ~92% unobserved
        observed = np.where(mask, matrix, 0.0)

        sparse_pmf = ProbabilisticMatrixFactorization(latent_dim=4, max_iterations=150)
        dense_pmf = DenseProbabilisticMatrixFactorization(latent_dim=4, max_iterations=150)
        sparse_report = sparse_pmf.fit(observed, mask)
        dense_report = dense_pmf.fit(observed, mask)

        assert sparse_report.final_objective == pytest.approx(
            dense_report.final_objective, rel=1e-6
        )
        assert np.allclose(sparse_pmf.predict(), dense_pmf.predict(), atol=1e-6)

    def test_sparse_handles_empty_mask(self):
        pmf = ProbabilisticMatrixFactorization(latent_dim=2, max_iterations=10)
        report = pmf.fit(np.zeros((4, 5)))
        assert np.isfinite(report.final_objective)
        assert pmf.predict().shape == (4, 5)


class TestFamiliarityModel:
    def setup_method(self):
        self.config = PlannerConfig(knowledge_radius_m=2000.0)
        # Two landmarks far apart; worker 0 lives at landmark 0, worker 1 far from both.
        self.catalog = make_catalog([(0.0, 0.0), (10_000.0, 0.0), (200.0, 0.0)])
        self.pool = WorkerPool(
            [
                make_worker(0, home=(0.0, 50.0), work=(100.0, 0.0)),
                make_worker(1, home=(50_000.0, 50_000.0), work=(51_000.0, 50_000.0)),
            ]
        )
        self.model = FamiliarityModel(self.pool, self.catalog, self.config)

    def test_raw_score_higher_for_local_worker(self):
        local = raw_score(self.model, self.pool.get(0), 0)
        remote = raw_score(self.model, self.pool.get(1), 0)
        assert local > remote
        assert remote == pytest.approx((1 - self.config.familiarity_alpha) * 0.0)

    def test_raw_score_includes_answer_history(self):
        worker = self.pool.get(1)
        before = raw_score(self.model, worker, 1)
        worker.record_answer(1, correct=True)
        after = raw_score(self.model, worker, 1)
        assert after > before

    def test_accumulated_requires_fit(self):
        with pytest.raises(WorkerSelectionError):
            self.model.accumulated_score(0, 0)

    def test_accumulated_aggregates_neighbourhood(self):
        self.model.fit(use_pmf=False)
        # Landmark 2 is 200 m from landmark 0, so worker 0's knowledge of 0
        # also contributes to their accumulated score at 2.
        assert self.model.accumulated_score(0, 2) > 0.0
        assert self.model.accumulated_score(0, 0) > self.model.accumulated_score(1, 0)

    def test_workers_knowing(self):
        self.model.fit(use_pmf=False)
        assert 0 in self.model.workers_knowing(0)

    def test_unknown_ids_raise(self):
        self.model.fit(use_pmf=False)
        with pytest.raises(WorkerSelectionError):
            self.model.accumulated_score(99, 0)

    def test_pmf_fills_unobserved_cells(self, scenario):
        model = FamiliarityModel(scenario.worker_pool, scenario.catalog, scenario.config.planner_config)
        raw = model.build_raw_matrix()
        completed_matrix = model.fit(use_pmf=True)
        assert completed_matrix.shape == raw.shape
        # Accumulation + completion never produces negative familiarity.
        assert (completed_matrix >= -1e-9).all()
