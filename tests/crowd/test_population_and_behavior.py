"""Tests for the simulated worker population and answering behaviour."""

import random

import pytest

from repro.crowd.behavior import AnswerBehaviorModel
from repro.crowd.population import WorkerPopulationConfig, generate_worker_pool
from repro.crowd.reference import answer, answer_accuracy, knowledge_of
from repro.exceptions import ConfigurationError
from repro.spatial import Point


class TestPopulationConfig:
    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            WorkerPopulationConfig(num_workers=0)
        with pytest.raises(ConfigurationError):
            WorkerPopulationConfig(knowledge_radius_m=0)
        with pytest.raises(ConfigurationError):
            WorkerPopulationConfig(min_response_time_s=100, max_response_time_s=50)
        with pytest.raises(ConfigurationError):
            WorkerPopulationConfig(expert_fraction=2.0)


class TestPopulationGeneration:
    def test_worker_count_and_unique_ids(self, small_network):
        pool = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=25, seed=1))
        assert len(pool) == 25
        assert len(set(pool.ids())) == 25

    def test_homes_inside_city(self, small_network):
        pool = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=15, seed=2))
        box = small_network.bounding_box()
        for worker in pool:
            assert box.contains(worker.home)

    def test_deterministic_for_seed(self, small_network):
        a = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=10, seed=3))
        b = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=10, seed=3))
        assert [w.home for w in a] == [w.home for w in b]

    def test_response_rates_positive(self, small_network):
        pool = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=20, seed=4))
        assert all(worker.response_rate > 0 for worker in pool)


class TestAnswerBehavior:
    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            AnswerBehaviorModel(knowledge_radius_m=0)
        for radius in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                AnswerBehaviorModel(knowledge_radius_m=radius)
        with pytest.raises(ConfigurationError):
            AnswerBehaviorModel(base_accuracy=0.9, max_accuracy=0.5)

    def test_knowledge_decreases_with_distance(self, small_network):
        pool = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=5, seed=5))
        model = AnswerBehaviorModel(knowledge_radius_m=2000.0)
        worker = pool.get(0)
        near = knowledge_of(model, worker, worker.home)
        far = knowledge_of(model, worker, Point(worker.home.x + 50_000, worker.home.y))
        assert near > far
        assert far == 0.0

    def test_accuracy_bounds(self, small_network):
        pool = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=5, seed=6))
        model = AnswerBehaviorModel(base_accuracy=0.5, max_accuracy=0.95)
        worker = pool.get(0)
        assert answer_accuracy(model, worker, worker.home) <= 0.95
        assert answer_accuracy(model, worker, Point(1e7, 1e7)) == pytest.approx(0.5)

    def test_knowledgeable_worker_answers_mostly_correctly(self, small_network):
        pool = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=5, seed=7))
        model = AnswerBehaviorModel(max_accuracy=0.95)
        worker = pool.get(0)
        rng = random.Random(11)
        answers = [answer(model, worker, worker.home, True, rng) for _ in range(300)]
        assert sum(answers) / len(answers) > 0.8

    def test_clueless_worker_answers_randomly(self, small_network):
        pool = generate_worker_pool(small_network, WorkerPopulationConfig(num_workers=5, seed=8))
        model = AnswerBehaviorModel()
        worker = pool.get(0)
        rng = random.Random(13)
        faraway = Point(1e7, 1e7)
        answers = [answer(model, worker, faraway, True, rng) for _ in range(400)]
        assert 0.35 < sum(answers) / len(answers) < 0.65
