"""Shard cell closures equal the per-cell expansion; run messages stay small.

:meth:`CrowdPlanner.shard_plan` builds each shard's destination cells with
:func:`~repro.core.planner.reach_closure` (a union of memoised per-centre
squares).  These tests hold it to the set-based oracle in
:mod:`repro.core.reference` — plans before and after
:func:`split_oversized` must be identical — bound a hotspot sub-shard's run
message, and check that running the crowd-bound shard the split chains
never writes the base planner's worker pool.
"""

from __future__ import annotations

import copy
import pickle
import random
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import reach_closure
from repro.core.reference import expand_cells, set_shard_plan
from repro.routing.base import RouteQuery
from repro.serving.shards import ShardJob, execute_shard, split_oversized

#: The hotspot regime: 40-query batches split at a tenth of the batch.
FRACTION = 0.1

centres = st.frozensets(
    st.tuples(st.integers(min_value=-12, max_value=30), st.integers(min_value=-12, max_value=30)),
    max_size=12,
)


def _jobs(plan, queries):
    return [
        ShardJob(
            shard_id=shard.shard_id,
            indices=shard.indices,
            queries=[queries[index] for index in shard.indices],
        )
        for shard in plan.shards
    ]


@pytest.fixture(scope="module")
def plan_planner(build_serving_planner):
    return build_serving_planner()


@pytest.fixture(scope="module")
def node_pools(serving_scenario):
    """All nodes, and the nodes on the city's outer edge (whose cell
    closures reach past the grid into negative cells)."""
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


class TestReachClosure:
    @pytest.mark.property
    @settings(max_examples=120, deadline=None)
    @given(centres=centres, reach=st.integers(min_value=0, max_value=8))
    def test_equals_per_cell_expansion(self, centres, reach):
        assert reach_closure(centres, reach) == expand_cells(centres, reach)


class TestPlanOracle:
    @pytest.mark.property
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_plans_equal_the_set_based_plans(self, plan_planner, node_pools, data):
        """Random batches, with endpoints drawn often from the city's edge,
        plan and split identically with closures and with per-cell sets."""
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
        shards = data.draw(st.integers(min_value=1, max_value=4))
        fraction = data.draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]))

        plan = plan_planner.shard_plan(queries, shards)
        reference = set_shard_plan(plan_planner, queries, shards)
        assert plan == reference
        assert split_oversized(plan_planner, plan, queries, fraction) == split_oversized(
            plan_planner, reference, queries, fraction
        )

    @pytest.mark.parametrize("batch_size", [40, 160])
    def test_workload_batches_plan_like_the_oracle(
        self, plan_planner, serving_workload, dominant_workload, batch_size
    ):
        for workload in (serving_workload, dominant_workload):
            queries = list(workload)
            for start in range(0, len(queries), batch_size):
                batch = queries[start : start + batch_size]
                for shards in (1, 2, 4):
                    plan = plan_planner.shard_plan(batch, shards)
                    reference = set_shard_plan(plan_planner, batch, shards)
                    assert plan == reference
                    assert split_oversized(plan_planner, plan, batch, FRACTION) == split_oversized(
                        plan_planner, reference, batch, FRACTION
                    )

    def test_city_wide_batch_with_many_buckets(self, plan_planner, node_pools):
        """A batch spread over the whole city: more coarse buckets than
        neighbour offsets, most of them neighbours of several others."""
        nodes, _ = node_pools
        rng = random.Random(5)
        batch = [RouteQuery(*rng.sample(nodes, 2)) for _ in range(300)]
        plan = plan_planner.shard_plan(batch, 3)
        coarse = {
            tuple(value // plan.cell_reach for value in key)
            for key in plan_planner.od_cell_groups(batch)
        }
        assert len(coarse) > 41
        assert plan == set_shard_plan(plan_planner, batch, 3)

    @pytest.mark.parametrize("axis", range(4))
    @pytest.mark.parametrize("gap", [0, 1])
    def test_link_boundary_on_every_axis(self, plan_planner, node_pools, axis, gap):
        """Two queries whose od cells differ by ``reach + gap`` on one axis
        only are linked exactly when ``gap`` is 0."""
        nodes, _ = node_pools
        cell = plan_planner.truths.reuse_cell_size_m
        reach = plan_planner.shard_plan([], 1).cell_reach

        def cell_of(node):
            location = plan_planner.network.node_location(node)
            return int(location.x // cell), int(location.y // cell)

        coordinate = axis % 2
        a, b = next(
            (a, b)
            for a in nodes
            for b in nodes
            if cell_of(b)[coordinate] - cell_of(a)[coordinate] == reach + gap
            and cell_of(b)[1 - coordinate] == cell_of(a)[1 - coordinate]
        )
        anchor = next(node for node in nodes if node not in (a, b))
        if axis < 2:
            batch = [RouteQuery(a, anchor), RouteQuery(b, anchor)]
        else:
            batch = [RouteQuery(anchor, a), RouteQuery(anchor, b)]
        plan = plan_planner.shard_plan(batch, 2)
        assert plan.num_components == (1 if gap == 0 else 2)
        assert plan == set_shard_plan(plan_planner, batch, 2)

    def test_edge_destinations_reach_negative_cells(self, plan_planner, node_pools):
        nodes, edge = node_pools
        corner = min(edge, key=lambda node: plan_planner.network.node_location(node))
        plan = plan_planner.shard_plan([RouteQuery(nodes[len(nodes) // 2], corner)], 1)
        (shard,) = plan.shards
        assert any(x < 0 or y < 0 for x, y in shard.destination_cells)
        assert plan == set_shard_plan(plan_planner, [RouteQuery(nodes[len(nodes) // 2], corner)], 1)


class TestWireForm:
    def test_hotspot_sub_shard_run_message_is_under_1_kib(self, plan_planner, dominant_workload):
        queries = list(dominant_workload)[:40]
        plan = split_oversized(plan_planner, plan_planner.shard_plan(queries, 2), queries, FRACTION)
        assert plan.chain_depth() >= 2
        for job in _jobs(plan, queries):
            message = ("run", "", None, [], job)
            assert len(ForkingPickler.dumps(message)) < 1024
            assert pickle.loads(ForkingPickler.dumps(message))[4] == job


class TestPoolOverlay:
    def test_crowd_bound_sub_shards_leave_the_base_pool_untouched(
        self, build_serving_planner, dominant_workload
    ):
        planner = build_serving_planner()
        queries = list(dominant_workload)
        plan = planner.shard_plan(queries, 2)
        split = split_oversized(planner, plan, queries, FRACTION)
        chained = {index for sub in split.shards if sub.handoff_from for index in sub.indices}
        before = copy.deepcopy(planner.worker_pool.workers())

        outcomes = [execute_shard(planner, job) for job in _jobs(plan, queries)]

        assert any(
            result.used_crowd
            for outcome in outcomes
            for index, result in zip(outcome.indices, outcome.results)
            if index in chained
        ), "the workload must send some sub-shard's query to the crowd"
        assert planner.worker_pool.workers() == before
