"""Columnar crowd responses: ``ResponseBlock`` ≡ the object-path oracle.

The columnar fast path (:meth:`SimulatedCrowd.collect_responses_block`) must
be a pure representation change: materializing its columns yields exactly
the :class:`WorkerResponse` objects of the preserved object path
(:class:`repro.crowd.reference.EagerObjectCrowd`) — and therefore of the
original sequential simulation — for any seed and any worker crew.  The hypothesis
property runs in the fast tier (few, cheap examples over a shared
scenario); the planner-level test pins that a planner fed by blocks is
fingerprint-identical to one on the pure object path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregation import AnswerAggregator
from repro.core.planner import CrowdPlanner
from repro.core.task_generation import TaskGenerator
from repro.crowd.reference import EagerObjectCrowd, SequentialCrowd
from repro.crowd.simulator import SimulatedCrowd
from repro.exceptions import TaskGenerationError
from repro.serving import recommendation_fingerprint


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


class TestBlockEquivalenceProperty:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        crew_seed=st.integers(min_value=0, max_value=2**16),
        task_index=st.integers(min_value=0, max_value=4),
    )
    def test_block_equals_object_path(self, scenario, crowd_tasks, seed, crew_seed, task_index):
        """Any seed, any crew: block columns materialize to the oracle's
        objects, answer for answer."""
        import random

        task = crowd_tasks[task_index % len(crowd_tasks)]
        ids = scenario.worker_pool.ids()
        crew = random.Random(crew_seed).sample(ids, random.Random(crew_seed + 1).randint(1, len(ids)))
        columnar = _fresh_crowd(scenario, seed)
        oracle = _fresh_crowd(scenario, seed, crowd_class=EagerObjectCrowd)
        block = columnar.collect_responses_block(task, crew)
        expected = oracle.collect_responses(task, crew)
        assert block.to_responses() == expected
        # Column-level invariants against the objects.
        assert block.worker_ids.tolist() == [r.worker_id for r in expected]
        assert block.chosen_route_index.tolist() == [r.chosen_route_index for r in expected]
        assert block.total_response_time_s.tolist() == [r.total_response_time_s for r in expected]
        assert block.answer_offsets.tolist() == (
            np.cumsum([0] + [len(r.answers) for r in expected]).tolist()
        )
        assert block.answer_landmark_ids.tolist() == [
            a.landmark_id for r in expected for a in r.answers
        ]
        assert block.answer_says_yes.tolist() == [
            a.says_yes for r in expected for a in r.answers
        ]
        assert block.answer_time_s.tolist() == [
            a.response_time_s for r in expected for a in r.answers
        ]

    def test_materialize_prefix_matches_full(self, scenario, crowd_tasks):
        crowd = _fresh_crowd(scenario, 7)
        block = crowd.collect_responses_block(crowd_tasks[0], scenario.worker_pool.ids())
        full = block.to_responses()
        for upto in (0, 1, len(block) // 2, len(block), len(block) + 3):
            assert block.materialize(upto) == full[:upto]
        assert block.questions_answered() == sum(r.questions_answered for r in full)

    def test_accuracy_and_correctness_columns(self, scenario, crowd_tasks):
        """Diagnostic columns: correctness agrees with the ground-truth
        landmark set, accuracies with the behaviour model."""
        task = crowd_tasks[0]
        crowd = _fresh_crowd(scenario, 19)
        block = crowd.collect_responses_block(task, scenario.worker_pool.ids()[:6])
        truth_landmarks = crowd._cached_truth_landmarks(task.query)
        expected_correct = [
            says_yes == (landmark in truth_landmarks)
            for landmark, says_yes in zip(
                block.answer_landmark_ids.tolist(), block.answer_says_yes.tolist()
            )
        ]
        assert block.answer_correct.tolist() == expected_correct
        assert (block.answer_accuracy >= crowd.behavior.base_accuracy).all()
        assert (block.answer_accuracy <= crowd.behavior.max_accuracy).all()

    def test_block_aggregation_matches_object_aggregation(self, scenario, crowd_tasks):
        """collect_block_with_early_stop ≡ collect_with_early_stop on the
        materialized responses, field for field."""
        aggregator = AnswerAggregator(scenario.config.planner_config)
        crowd = _fresh_crowd(scenario, 3)
        for task in crowd_tasks:
            block = crowd.collect_responses_block(task, scenario.worker_pool.ids())
            expected = aggregator.collect_with_early_stop(
                task, block.to_responses(), expected_total=len(block)
            )
            result = aggregator.collect_block_with_early_stop(
                task, block, expected_total=len(block)
            )
            assert result.responses == expected.responses
            assert result.votes == expected.votes
            assert result.winning_route_index == expected.winning_route_index
            assert result.confidence == expected.confidence
            assert result.stopped_early == expected.stopped_early
            assert not any(
                isinstance(key, np.integer) or isinstance(value, np.integer)
                for key, value in result.votes.items()
            )

    def test_batched_false_declines_block(self, scenario, crowd_tasks):
        crowd = SequentialCrowd(
            pool=scenario.worker_pool,
            catalog=scenario.catalog,
            calibrator=scenario.calibrator,
            ground_truth=scenario.crowd.ground_truth,
            behavior=scenario.crowd.behavior,
            seed=5,
        )
        assert crowd.collect_responses_block(crowd_tasks[0], scenario.worker_pool.ids()) is None


class TestPlannerBlockParity:
    def test_planner_fingerprints_identical_to_object_path(self, scenario):
        """End to end: a planner consuming blocks is bit-identical (results,
        statistics, worker histories, rewards) to one on the object path."""
        import copy

        queries = scenario.sample_queries(30, seed=881)
        familiarity = scenario.build_planner().familiarity

        def run(crowd_class):
            pool = copy.deepcopy(scenario.worker_pool)
            crowd = crowd_class(
                pool=pool,
                catalog=scenario.catalog,
                calibrator=scenario.calibrator,
                ground_truth=scenario.crowd.ground_truth,
                behavior=scenario.crowd.behavior,
                seed=scenario.crowd.seed,
            )
            planner = CrowdPlanner(
                network=scenario.network,
                catalog=scenario.catalog,
                calibrator=scenario.calibrator,
                sources=scenario.sources,
                worker_pool=pool,
                crowd_backend=crowd,
                config=scenario.config.planner_config,
                familiarity=familiarity,
            )
            results = planner.recommend_batch(queries)
            histories = {
                worker.worker_id: {
                    landmark: (record.correct, record.wrong)
                    for landmark, record in worker.answer_history.items()
                }
                for worker in pool.workers()
            }
            rewards = {worker.worker_id: worker.reward_points for worker in pool.workers()}
            return (
                [recommendation_fingerprint(result) for result in results],
                planner.statistics.as_dict(),
                histories,
                rewards,
            )

        assert run(SimulatedCrowd) == run(SequentialCrowd)
