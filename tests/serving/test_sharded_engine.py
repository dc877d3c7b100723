"""Shard determinism: a pooled service's answers to one batch must be
bit-identical to the sequential ``recommend_batch`` oracle for every pool
size, execution mode (forked or simulated workers) and component
partitioning — including skewed workloads where one destination cell
dominates."""

import pytest

from repro.config import ServiceConfig
from repro.core.planner import QueryShard, ShardPlan
from repro.core.reference import partition_by_cells
from repro.serving import RecommendationService, recommendation_fingerprint

from .sim_pool import simulated_service


def _fingerprints(results):
    return [recommendation_fingerprint(result) for result in results]


def _service(planner, pool_size, forked=True):
    if not forked:
        return simulated_service(planner, pool_size=pool_size)
    config = ServiceConfig.from_planner_config(planner.config, pool_size=pool_size)
    return RecommendationService(planner, config)


def _serve(planner, workload, pool_size, forked=True, plan=None):
    """One batch through a pooled service opened and closed around it;
    a given ``plan`` replaces the planner's own shard plan."""
    if plan is not None:
        planner.shard_plan = lambda queries, shards: plan
    with _service(planner, pool_size, forked) as service:
        return [r.result for r in service.recommend_batch(workload)]


class TestWorkerSweep:
    """Acceptance criterion: workers {1, 2, 4} match the sequential oracle."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_forked_matches_sequential(
        self, build_serving_planner, serving_workload, sequential_oracle, workers
    ):
        planner = build_serving_planner()
        results = _serve(planner, serving_workload, workers)
        assert _fingerprints(results) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_inline_matches_sequential(
        self, build_serving_planner, serving_workload, sequential_oracle, workers
    ):
        planner = build_serving_planner()
        results = _serve(planner, serving_workload, workers, forked=False)
        assert _fingerprints(results) == sequential_oracle["plain"]["fingerprints"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_dominant_destination_cell(
        self, build_serving_planner, dominant_workload, sequential_oracle, workers
    ):
        planner = build_serving_planner()
        results = _serve(planner, dominant_workload, workers, forked=False)
        assert _fingerprints(results) == sequential_oracle["dominant"]["fingerprints"]


class TestParentStateParity:
    def test_truth_store_matches_sequential(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        planner = build_serving_planner()
        _serve(planner, serving_workload, 4)
        merged = [
            (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
            for t in planner.truths.all()
        ]
        assert merged == sequential_oracle["plain"]["truths"]

    def test_truth_ids_ascend_in_submission_order(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        _serve(planner, serving_workload, 4)
        ids = [t.truth_id for t in planner.truths.all()]
        assert ids == sorted(ids)

    def test_second_batch_reuses_merged_truths(self, build_serving_planner, serving_workload):
        """After the merge, a repeat of the same batch is served from truths."""
        planner = build_serving_planner()
        with _service(planner, 4) as service:
            service.recommend_batch(serving_workload)
            repeat = service.recommend_batch(serving_workload)
        assert all(response.method == "truth_reuse" for response in repeat)

    def test_crowd_side_effects_replayed(self, build_serving_planner, serving_workload):
        """Crowd tasks run in shards must credit the parent's reward ledger."""
        planner = build_serving_planner()
        results = _serve(planner, serving_workload, 4)
        crowd_results = [r for r in results if r.task_result is not None]
        assert planner.statistics.crowd_tasks == len(crowd_results)
        if crowd_results:
            assert len(planner.rewards.history()) > 0
            task_ids = [r.task_result.task.task_id for r in crowd_results]
            # Task ids were re-issued at merge time, in submission order.
            assert task_ids == sorted(task_ids)


class TestEngineBasics:
    def test_empty_batch(self, build_serving_planner):
        assert _serve(build_serving_planner(), [], 4) == []

    def test_plan_diagnostics(self, build_serving_planner, serving_workload):
        with _service(build_serving_planner(), 4) as service:
            plan = service.plan(serving_workload)
        assert plan.num_queries == len(serving_workload)
        assert 1 <= len(plan.shards) <= 4


class TestTruthViewShardEquivalence:
    """The copy-on-write truth views that seed shard clones must answer
    exactly like materialised partitions (the pre-view shipping scheme)."""

    def test_view_clone_matches_partition_clone(
        self, build_serving_planner, serving_workload, dominant_workload
    ):
        import copy

        from repro.core.planner import CrowdPlanner
        from repro.serving.shards import ShardJob, execute_shard

        methods = []
        # The dominant workload's tail sends queries to the crowd.
        for workload in (serving_workload, dominant_workload):
            planner = build_serving_planner()
            # Seed warm truths so the shard slices are non-trivial.
            planner.recommend_batch(workload[:40])
            tail = workload[40:120]
            plan = planner.shard_plan(tail, 4)
            assert len(plan.shards) > 1
            for shard in plan.shards:
                job = ShardJob(
                    shard_id=shard.shard_id,
                    indices=shard.indices,
                    queries=[tail[index] for index in shard.indices],
                )
                view_outcome = execute_shard(planner, job)

                # The former scheme: a clone over a materialised partition.
                partition = partition_by_cells(planner.truths, shard.destination_cells)
                clone = CrowdPlanner(
                    network=planner.network,
                    catalog=planner.catalog,
                    calibrator=planner.calibrator,
                    sources=planner.sources,
                    worker_pool=copy.deepcopy(planner.worker_pool),
                    crowd_backend=planner.crowd_backend,
                    config=planner.config,
                    familiarity=planner.familiarity,
                    task_generator=planner.task_generator,
                )
                clone.truths = partition
                evaluator = copy.copy(planner.evaluator)
                evaluator.truths = partition
                clone.evaluator = evaluator
                before = len(partition)
                partition_results = clone.recommend_batch(job.queries)

                assert _fingerprints(view_outcome.results) == _fingerprints(partition_results)
                methods.extend(result.method for result in view_outcome.results)
                assert [
                    (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
                    for t in view_outcome.new_truths
                ] == [
                    (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
                    for t in partition.all()[before:]
                ]
        # A crowd query assigns tasks in, and records answers into, the
        # clone's worker pool: the structural pool copy is really written
        # and compared against the deep-copied one above.
        assert "crowd" in methods


class TestOverlayMeetsMergedSiblings:
    """A shard clone reads the whole store as it is at dispatch.  A
    resubmitted, hedged or in-process-tail shard can meet a base that has
    already merged other shards of its window; their truths lie outside its
    interaction reach, so its outcome must equal its outcome on the
    window-start store."""

    def test_outcome_equals_window_start_outcome(
        self, build_serving_planner, serving_workload, dominant_workload
    ):
        from dataclasses import replace

        from repro.serving.shards import ShardJob, execute_shard, merge_shard_outcomes

        def key(outcome):
            return _fingerprints(outcome.results), [
                (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
                for t in outcome.new_truths
            ]

        for workload in (serving_workload, dominant_workload):
            planner = build_serving_planner()
            planner.recommend_batch(workload[:40])
            tail = workload[40:120]
            plan = planner.shard_plan(tail, 4)
            assert len(plan.shards) > 1
            jobs = [
                ShardJob(
                    shard_id=shard.shard_id,
                    indices=shard.indices,
                    queries=[tail[index] for index in shard.indices],
                )
                for shard in plan.shards
            ]
            outcomes = [execute_shard(planner, job) for job in jobs]
            expected = [key(outcome) for outcome in outcomes]
            # Merge the shards one at a time (answers, truths and crowd side
            # effects), re-running every shard not merged yet after each.
            for merged, outcome in enumerate(outcomes[:-1]):
                before = len(planner.truths)
                size = len(outcome.indices)
                merge_shard_outcomes(planner, size, [replace(outcome, indices=tuple(range(size)))])
                assert len(planner.truths) == before + len(outcome.new_truths)
                for later in range(merged + 1, len(jobs)):
                    assert key(execute_shard(planner, jobs[later])) == expected[later]
            assert any(outcome.new_truths for outcome in outcomes[:-1])


@pytest.mark.property
@pytest.mark.slow
class TestAnyPartitioningProperty:
    """Hypothesis: *any* regrouping of interaction-closed components into any
    number of shards reproduces the sequential oracle exactly."""

    def test_random_component_partitions(
        self, build_serving_planner, serving_workload, dominant_workload, sequential_oracle
    ):
        from hypothesis import given, settings, strategies as st

        workloads = {"plain": serving_workload, "dominant": dominant_workload}

        @settings(max_examples=12, deadline=None)
        @given(
            workload_name=st.sampled_from(["plain", "dominant"]),
            shard_count=st.integers(min_value=2, max_value=6),
            assignment_seed=st.integers(min_value=0, max_value=2**16),
        )
        def check(workload_name, shard_count, assignment_seed):
            import random

            workload = workloads[workload_name]
            planner = build_serving_planner()
            # One shard per component, then regroup them randomly: this
            # explores partitionings the planner's own bin packing never
            # produces.
            atomic = planner.shard_plan(workload, shards=len(workload))
            rng = random.Random(assignment_seed)
            groups = [[] for _ in range(shard_count)]
            for shard in atomic.shards:
                groups[rng.randrange(shard_count)].append(shard)
            shards = tuple(
                QueryShard(
                    shard_id=shard_id,
                    indices=tuple(sorted(i for s in members for i in s.indices)),
                    destination_cells=frozenset().union(*(s.destination_cells for s in members)),
                    components=sum(s.components for s in members),
                )
                for shard_id, members in enumerate(groups)
                if members
            )
            plan = ShardPlan(
                shards=shards,
                num_queries=atomic.num_queries,
                interaction_radius_m=atomic.interaction_radius_m,
                cell_size_m=atomic.cell_size_m,
                cell_reach=atomic.cell_reach,
            )
            results = _serve(planner, workload, len(shards), forked=False, plan=plan)
            assert _fingerprints(results) == sequential_oracle[workload_name]["fingerprints"]
            assert planner.statistics.as_dict() == sequential_oracle[workload_name]["statistics"]

        check()
