"""Columnar crowd responses: ``ResponseBlock`` ≡ the object-path oracle.

The columnar simulator (:meth:`SimulatedCrowd.collect_responses_block`) must
be a pure representation change: materializing its columns yields exactly
the :class:`WorkerResponse` objects of the preserved object path
(:class:`repro.crowd.reference.EagerObjectCrowd`) — and therefore of the
original sequential simulation — for any seed and any worker crew.  The hypothesis
property runs in the fast tier (few, cheap examples over a shared
scenario).  A block is the only form a crowd answer takes on its way to the
planner: the planner-level tests pin that a planner fed the columnar
simulator is fingerprint-identical to one fed the original simulation's
answers (packed with :func:`repro.crowd.reference.block_of`), and that a
backend implementing nothing but the block method serves the crowd path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregation import AnswerAggregator
from repro.core.planner import CrowdBackend, CrowdPlanner
from repro.core.reference import collect_with_early_stop
from repro.core.task_generation import TaskGenerator
from repro.crowd.reference import EagerObjectCrowd, SequentialCrowd, block_of
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
        assert block.materialize() == expected
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
        full = block.materialize()
        for upto in (0, 1, len(block) // 2, len(block), len(block) + 3):
            assert block.materialize(upto) == full[:upto]
        assert block.answer_offsets[-1] == sum(r.questions_answered for r in full)

    def test_block_aggregation_matches_object_aggregation(self, scenario, crowd_tasks):
        """collect_block_with_early_stop ≡ the re-tallying reference
        collector on the materialized responses, field for field."""
        aggregator = AnswerAggregator(scenario.config.planner_config)
        crowd = _fresh_crowd(scenario, 3)
        for task in crowd_tasks:
            block = crowd.collect_responses_block(task, scenario.worker_pool.ids())
            expected = collect_with_early_stop(
                aggregator, task, block.materialize(), expected_total=len(block)
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

    @pytest.mark.parametrize("crowd_class", [SequentialCrowd, EagerObjectCrowd])
    def test_reference_crowds_pack_their_objects(self, scenario, crowd_tasks, crowd_class):
        """A reference crowd's block is its object responses, packed."""
        crowd = _fresh_crowd(scenario, 5, crowd_class=crowd_class)
        crew = scenario.worker_pool.ids()[:6]
        for task in crowd_tasks:
            expected = crowd.collect_responses(task, crew)
            assert crowd.collect_responses_block(task, crew).materialize() == expected
            assert block_of(task, expected).materialize() == expected


def _serve(scenario, make_backend, answer):
    """Answer with a planner over a copy of the scenario's pool whose crowd
    backend is ``make_backend(pool)``: its fingerprints, statistics, worker
    answer histories and rewards."""
    import copy

    pool = copy.deepcopy(scenario.worker_pool)
    planner = CrowdPlanner(
        network=scenario.network,
        catalog=scenario.catalog,
        calibrator=scenario.calibrator,
        sources=scenario.sources,
        worker_pool=pool,
        crowd_backend=make_backend(pool),
        config=scenario.config.planner_config,
        familiarity=scenario.build_planner().familiarity,
    )
    results = answer(planner)
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


def _crowd_factory(scenario, crowd_class):
    def make(pool):
        return crowd_class(
            pool=pool,
            catalog=scenario.catalog,
            calibrator=scenario.calibrator,
            ground_truth=scenario.crowd.ground_truth,
            behavior=scenario.crowd.behavior,
            seed=scenario.crowd.seed,
        )

    return make


class TestPlannerBlockParity:
    def test_planner_fingerprints_identical_to_object_path(self, scenario):
        """End to end: a planner fed the columnar simulator is bit-identical
        (results, statistics, worker histories, rewards) to one fed the
        original question-by-question simulation."""
        queries = scenario.sample_queries(30, seed=881)

        def run(crowd_class):
            return _serve(
                scenario,
                _crowd_factory(scenario, crowd_class),
                lambda planner: planner.recommend_batch(queries),
            )

        assert run(SimulatedCrowd) == run(SequentialCrowd)


class _BlockOnlyBackend(CrowdBackend):
    """Implements the protocol's one method and nothing else."""

    def __init__(self, crowd):
        self.crowd = crowd

    def collect_responses_block(self, task, worker_ids):
        return self.crowd.collect_responses_block(task, worker_ids)


class TestCrowdBackendProtocol:
    def test_block_is_the_only_abstract_method(self):
        assert CrowdBackend.__abstractmethods__ == {"collect_responses_block"}

    def test_block_only_backend_serves_the_crowd_path(self, scenario):
        """``recommend`` through a backend with nothing but the block method
        leaves the answers, worker histories and rewards the scenario's
        crowd leaves."""
        queries = scenario.sample_queries(30, seed=881)
        make_crowd = _crowd_factory(scenario, SimulatedCrowd)

        def answer(planner):
            return [planner.recommend(query) for query in queries]

        served = _serve(scenario, lambda pool: _BlockOnlyBackend(make_crowd(pool)), answer)
        assert served[1]["crowd_tasks"] > 0
        assert served == _serve(scenario, make_crowd, answer)
