"""Dispatch: one shard of a batch's component plan, one message.

The pooled backend dispatches the plan
:meth:`~repro.core.planner.CrowdPlanner.shard_plan` returns, one
:class:`~repro.serving.shards.ShardJob` per shard, and
:func:`~repro.serving.shards.split_oversized` only reports plan shape.
That is sound because the split refines the component plan: every
sub-shard and every hand-off it names lie inside one component shard, with
the same cells and so the same cross-batch dependency.  Held over random
batches and over the serving and dominant workloads;
:func:`~repro.serving.shards.execute_shard` must equal the sequential
oracle over each shard's queries (results, new truths and counted
statistics); the largest dominant run message must fit a pipe buffer; and
the parent must group each batch's od cells once, over only the queries
its window's settle pass left it.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.core.planner import PlannerStatistics
from repro.routing.base import RouteQuery
from repro.serving import RecommendationService, recommendation_fingerprint
from repro.serving.pipeline import batch_dependencies
from repro.serving.shards import ShardJob, execute_shard, split_oversized
from repro.serving.worker import serve_message

from .faults import PIPE_BUFFER_BYTES
from .sim_pool import SimulatedPool

FRACTION = 0.1


def _jobs(plan, queries):
    return [
        ShardJob(
            shard_id=shard.shard_id,
            indices=shard.indices,
            queries=[queries[index] for index in shard.indices],
        )
        for shard in plan.shards
    ]


def _content(truths):
    """Truths without their ids, which are process-global serials."""
    return [replace(truth, truth_id=0) for truth in truths]


def _assert_shard_matches_oracle(base, fresh, job):
    """``execute_shard(base, job)`` equals ``fresh.recommend_batch`` over
    the job's queries: results and new truths, in order, and the statistics
    counted from the results.  ``fresh`` must hold what ``base`` holds."""
    outcome = execute_shard(base, job)
    assert (outcome.shard_id, outcome.indices) == (job.shard_id, job.indices)
    before = len(fresh.truths)
    oracle = fresh.recommend_batch(job.queries)
    assert [recommendation_fingerprint(r) for r in outcome.results] == [
        recommendation_fingerprint(r) for r in oracle
    ]
    assert _content(outcome.new_truths) == _content(fresh.truths.truths_since(before))
    counted = PlannerStatistics()
    for result in outcome.results:
        counted.count(result)
    assert counted.as_dict() == fresh.statistics.as_dict()
    return outcome


def _owners(plan, split):
    """The component shard of every sub-shard of ``split``, asserting that
    the split refines ``plan``: each sub-shard lies inside one component
    shard, carries its cells, and names hand-offs only inside it."""
    shard_of = {index: shard for shard in plan.shards for index in shard.indices}
    owners = {}
    for sub in split.shards:
        (owner,) = {shard_of[index].shard_id for index in sub.indices}
        owners[sub.shard_id] = owner
        assert sub.destination_cells == shard_of[sub.indices[0]].destination_cells
    for sub in split.shards:
        assert {owners[source] for source in sub.predecessors + sub.handoff_from} <= {
            owners[sub.shard_id]
        }, "a hand-off crosses component shards"
    return owners


def _assert_dispatch_contract(plan, split, slots):
    """At most ``slots`` shards, partitioning the batch in shard-id order,
    each refined by the split."""
    assert len(plan.shards) <= slots
    assert sorted(index for shard in plan.shards for index in shard.indices) == list(
        range(plan.num_queries)
    )
    assert [shard.shard_id for shard in plan.shards] == sorted(shard.shard_id for shard in plan.shards)
    return _owners(plan, split)


@pytest.fixture(scope="module")
def plan_planner(build_serving_planner):
    return build_serving_planner()


@pytest.fixture(scope="module")
def node_pools(serving_scenario):
    """All nodes, and the nodes on the city's outer edge."""
    network = serving_scenario.network
    nodes = sorted(network.node_ids())
    xs = [network.node_location(node).x for node in nodes]
    ys = [network.node_location(node).y for node in nodes]
    edge = [
        node
        for node, x, y in zip(nodes, xs, ys)
        if x in (min(xs), max(xs)) or y in (min(ys), max(ys))
    ]
    return nodes, edge


def _draw_plan(data, planner, node_pools):
    """A random batch's component plan and its split, at a random pool
    size and fraction."""
    nodes, edge = node_pools
    endpoint = st.one_of(st.sampled_from(edge), st.sampled_from(nodes))
    pairs = data.draw(
        st.lists(
            st.tuples(endpoint, endpoint).filter(lambda od: od[0] != od[1]),
            min_size=1,
            max_size=40,
        )
    )
    queries = [RouteQuery(origin, destination) for origin, destination in pairs]
    slots = data.draw(st.integers(min_value=1, max_value=4))
    fraction = data.draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))
    plan = planner.shard_plan(queries, slots)
    return queries, plan, split_oversized(planner, plan, queries, fraction), slots


class TestUnitContract:
    @pytest.mark.property
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_split_plans(self, plan_planner, node_pools, data):
        """Random batches (the cell-closure suite's strategy), random pool
        sizes and fractions: the dispatched plan holds at most one shard
        per worker, and the split only refines it."""
        _, plan, split, slots = _draw_plan(data, plan_planner, node_pools)
        _assert_dispatch_contract(plan, split, slots)

    @pytest.mark.parametrize("slots", [1, 2, 4])
    @pytest.mark.parametrize("workload_name", ["serving", "dominant"])
    def test_workload_windows(
        self, plan_planner, serving_workload, dominant_workload, workload_name, slots
    ):
        """40-query batches as one window: every sub-shard waits on the
        same batch as its component shard, so the split never changes what
        a dispatch waits on, and no dependency class exceeds the pool."""
        workload = serving_workload if workload_name == "serving" else dominant_workload
        batches = [list(workload[start : start + 40]) for start in range(0, len(workload), 40)]
        plans = [plan_planner.shard_plan(batch, slots) for batch in batches]
        splits = [
            split_oversized(plan_planner, plan, batch, FRACTION) for plan, batch in zip(plans, batches)
        ]
        chained = 0
        for plan, split, deps, split_deps in zip(
            plans, splits, batch_dependencies(plans), batch_dependencies(splits)
        ):
            owners = _assert_dispatch_contract(plan, split, slots)
            dep_of = {shard.shard_id: dep for shard, dep in zip(plan.shards, deps)}
            for sub, dep in zip(split.shards, split_deps):
                assert dep == dep_of[owners[sub.shard_id]]
            chained += any(sub.handoff_from for sub in split.shards)
        if workload_name == "dominant":
            assert chained, "the dominant workload must split into chains"


class TestWorkerLocalChain:
    @pytest.fixture()
    def dominant_units(self, build_serving_planner, dominant_workload):
        """The dominant workload's component shards at pool size 2, and the
        shard the split stages as a chain."""
        planner = build_serving_planner()
        queries = list(dominant_workload)
        plan = planner.shard_plan(queries, 2)
        split = split_oversized(planner, plan, queries, FRACTION)
        owners = _owners(plan, split)
        chained = {owners[sub.shard_id] for sub in split.shards if sub.handoff_from}
        assert chained
        jobs = _jobs(plan, queries)
        return planner, jobs, next(job for job in jobs if job.shard_id in chained)

    def test_dominant_units_equal_the_oracle(self, build_serving_planner, dominant_units):
        """Each component shard of the dominant workload, the one the split
        chains included, run on one clone, equals the sequential oracle
        over its queries."""
        planner, jobs, _ = dominant_units
        for job in jobs:
            _assert_shard_matches_oracle(planner, build_serving_planner(), job)

    def test_worker_serves_a_unit_through_execute_unit(self, dominant_units):
        """A pool worker answers a one-job ``run`` message with the
        in-process ``execute_shard`` outcome, results and new truths
        alike."""
        planner, _, job = dominant_units
        expected = execute_shard(planner, job)
        kind, pid, outcome = serve_message({"": planner}, ("run", "", None, [], job), 7)
        assert (kind, pid) == ("done", 7)
        assert (outcome.shard_id, outcome.indices, outcome.worker_pid) == (
            expected.shard_id,
            expected.indices,
            expected.worker_pid,
        )
        assert [recommendation_fingerprint(r) for r in outcome.results] == [
            recommendation_fingerprint(r) for r in expected.results
        ]
        assert _content(outcome.new_truths) == _content(expected.new_truths)


class TestUnitExecution:
    @pytest.mark.property
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_units_equal_the_oracle_over_their_queries(
        self, plan_planner, build_serving_planner, node_pools, data
    ):
        """Every shard of a random component plan, run by
        ``execute_shard``, equals ``recommend_batch`` on a fresh planner
        over the shard's queries in submission order."""
        assert len(plan_planner.truths) == 0
        queries, plan, _, _ = _draw_plan(data, plan_planner, node_pools)
        for job in _jobs(plan, queries):
            _assert_shard_matches_oracle(plan_planner, build_serving_planner(), job)


class TestWireSize:
    def test_largest_dominant_unit_fits_a_pipe_buffer(
        self, build_serving_planner, dominant_workload
    ):
        """A ``kill_after`` fault sends to a stopped worker, which only works
        while the whole run message fits the pipe buffer."""
        planner = build_serving_planner()
        queries = list(dominant_workload)
        jobs = _jobs(planner.shard_plan(queries, 2), queries)
        largest = max(len(ForkingPickler.dumps(("run", "", None, [], job))) for job in jobs)
        assert largest < PIPE_BUFFER_BYTES


class TestPlanGroupsOnce:
    @pytest.mark.parametrize("window", [1, 4])
    def test_parent_groups_each_batch_once(
        self, build_serving_planner, dominant_workload, sequential_oracle, window
    ):
        """``split_oversized`` restages from the plan's own od-cell groups:
        the parent groups a window's od cells once, in its one
        ``shard_plan``, over the queries the window's settle pass left it
        (none when it left none), so each batch is grouped once."""
        planner = build_serving_planner()
        calls, left = [], []
        group, settle = planner.od_cell_groups, planner.settled_hits

        def counting(queries):
            calls.append(len(queries))
            return group(queries)

        def settling(window):
            hits = settle(window)
            left.append(sum(len(queries) - len(found) for queries, found in zip(window, hits)))
            return hits

        planner.od_cell_groups = counting
        planner.settled_hits = settling
        config = ServiceConfig(pool_size=2, max_shard_fraction=FRACTION, pipeline_window=window)
        batches = [list(dominant_workload[start : start + 40]) for start in range(0, 160, 40)]
        with RecommendationService(planner, config, SimulatedPool(config)) as service:
            tickets = [service.submit(batch) for batch in batches]
            responses = [r for ticket in tickets for r in service.results(ticket)]
            stats = service.statistics()
        assert stats["sharding"]["sub_shards_total"] > 0
        assert len(left) == len(batches) // window
        assert calls == [count for count in left if count]
        assert stats["pipeline"]["settled_queries"] == 40 * len(batches) - sum(left)
        assert [recommendation_fingerprint(r.result) for r in responses] == (
            sequential_oracle["dominant"]["fingerprints"]
        )
        assert 0 < stats["pipeline"]["dispatch_units"] <= 2 * len(batches)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)
class TestSettleBeforePlanning:
    def test_repeat_batch_is_neither_planned_nor_waited_on(self, build_serving_planner, serving_workload):
        """A window of a fresh batch and then a repeat of an earlier one:
        the settle pass answers the repeat whole in the parent before any
        planning, so it makes no ``shard_plan`` call and no cross-batch
        edge, and answers stay the sequential oracle's."""
        first, fresh = list(serving_workload[:40]), list(serving_workload[40:80])
        oracle = build_serving_planner()
        expected = [
            recommendation_fingerprint(result)
            for batch in (first, fresh, first)
            for result in oracle.recommend_batch(batch)
        ]
        planner = build_serving_planner()
        config = ServiceConfig(pool_size=2, max_shard_fraction=FRACTION, pipeline_window=2)
        with RecommendationService(planner, config) as service:
            responses = service.results(service.submit(first))
            before = service.statistics()["pipeline"]
            calls = []
            plan = planner.shard_plan

            def counting(queries, shards):
                calls.append(len(queries))
                return plan(queries, shards)

            planner.shard_plan = counting
            tickets = [service.submit(fresh), service.submit(first)]
            served_fresh, repeat = (service.results(ticket) for ticket in tickets)
            after = service.statistics()["pipeline"]
        assert after["windows"] - before["windows"] == 1
        assert len(calls) == 1, "only the fresh batch is planned"
        assert after["cross_batch_edges"] == before["cross_batch_edges"]
        assert after["settled_queries"] - before["settled_queries"] == 80 - calls[0]
        assert all(r.provenance.shard_id is None for r in repeat)
        assert {r.provenance.worker_pid for r in repeat} == {os.getpid()}
        assert all(r.provenance.truth_reused for r in repeat)
        fingerprints = [recommendation_fingerprint(r.result) for r in responses + served_fresh + repeat]
        assert fingerprints == expected
