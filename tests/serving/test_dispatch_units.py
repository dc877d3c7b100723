"""Dispatch units: hand-off-closed groups of a batch's shards, one message each.

:func:`~repro.serving.shards.dispatch_units` is held to its structural
contract over random split plans and over the serving and dominant
workloads; :func:`~repro.serving.shards.execute_unit` must equal the
sequential oracle over each unit's queries in submission order (results,
new truths and counted statistics), including where shard-id order would
break a lookup tie differently; the largest unit of the dominant workload
must fit a pipe buffer; and the parent must group each batch's od cells
once, over only the queries its window's settle pass left it.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.core.planner import CrowdPlanner, PlannerStatistics
from repro.exceptions import ServingError
from repro.routing.base import RouteQuery
from repro.serving import RecommendationService, recommendation_fingerprint
from repro.serving.pipeline import batch_dependencies
from repro.serving.shards import ShardJob, dispatch_units, execute_unit, split_oversized
from repro.serving.worker import serve_message

from .faults import PIPE_BUFFER_BYTES
from .sim_pool import SimulatedPool

FRACTION = 0.1


def _jobs(plan, queries):
    return [
        ShardJob(
            shard_id=shard.shard_id,
            indices=shard.indices,
            destination_cells=shard.destination_cells,
            queries=[queries[index] for index in shard.indices],
            predecessors=shard.predecessors,
            handoff_from=shard.handoff_from,
        )
        for shard in plan.shards
    ]


def _content(truths):
    """Truths without their ids, which are process-global serials."""
    return [replace(truth, truth_id=0) for truth in truths]


def _assert_unit_matches_oracle(base, fresh, jobs):
    """``execute_unit(base, jobs)`` equals ``fresh.recommend_batch`` over
    the jobs' queries in submission order: every job's results and new
    truths, in order, and the statistics counted from the results.
    ``fresh`` must hold what ``base`` holds."""
    outcomes = execute_unit(base, jobs)
    assert [outcome.shard_id for outcome in outcomes] == [job.shard_id for job in jobs]
    owner = {index: job.shard_id for job in jobs for index in job.indices}
    query_of = {
        index: query for job in jobs for index, query in zip(job.indices, job.queries)
    }
    indices = sorted(owner)
    before = len(fresh.truths)
    oracle = fresh.recommend_batch([query_of[index] for index in indices])
    expected_truths = {job.shard_id: [] for job in jobs}
    writers = [index for index, result in zip(indices, oracle) if result.method != "truth_reuse"]
    new_truths = fresh.truths.truths_since(before)
    assert len(new_truths) == len(writers)
    for index, truth in zip(writers, new_truths):
        expected_truths[owner[index]].append(truth)
    expected = dict(zip(indices, oracle))
    counted = PlannerStatistics()
    for job, outcome in zip(jobs, outcomes):
        assert outcome.indices == job.indices
        assert [recommendation_fingerprint(r) for r in outcome.results] == [
            recommendation_fingerprint(expected[index]) for index in job.indices
        ]
        assert _content(outcome.new_truths) == _content(expected_truths[job.shard_id])
        for result in outcome.results:
            counted.count(result)
    assert counted.as_dict() == fresh.statistics.as_dict()
    return outcomes


def _shape(units):
    return [
        (unit.dependency, [(job.shard_id, job.indices) for job in unit.jobs]) for unit in units
    ]


def _assert_unit_contract(jobs, deps, slots, units):
    """Units partition the jobs, are hand-off-closed, ordered, one
    dependency each, at most ``slots`` per dependency, and deterministic."""
    dep_of = {job.shard_id: dep for job, dep in zip(jobs, deps)}
    ids = [job.shard_id for unit in units for job in unit.jobs]
    assert sorted(ids) == sorted(job.shard_id for job in jobs)
    assert len(ids) == len(set(ids))
    per_dependency = {}
    for unit in units:
        members = {job.shard_id for job in unit.jobs}
        for job in unit.jobs:
            assert set(job.predecessors) <= members, "a producer left its consumer's unit"
            assert set(job.handoff_from) <= members, "a hand-off crosses units"
            assert dep_of[job.shard_id] == unit.dependency
        assert [job.shard_id for job in unit.jobs] == sorted(members)
        per_dependency[unit.dependency] = per_dependency.get(unit.dependency, 0) + 1
    assert all(count <= slots for count in per_dependency.values())
    assert [unit.unit_id for unit in units] == sorted(unit.unit_id for unit in units)
    assert _shape(dispatch_units(jobs, deps, slots)) == _shape(units)


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
    """A random batch's split plan as jobs, with a random cross-batch
    dependency per component cell set and a random pool size."""
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
    plan = split_oversized(planner, planner.shard_plan(queries, slots), queries, fraction)
    jobs = _jobs(plan, queries)
    dep_of_cells = {}
    deps = []
    for job in jobs:
        key = id(job.destination_cells)
        if key not in dep_of_cells:
            dep_of_cells[key] = data.draw(st.integers(min_value=-1, max_value=2))
        deps.append(dep_of_cells[key])
    return jobs, deps, slots


class TestUnitContract:
    @pytest.mark.property
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_split_plans(self, plan_planner, node_pools, data):
        """Random batches (the cell-closure suite's strategy), random pool
        sizes and fractions, and a random cross-batch dependency per
        component cell set."""
        jobs, deps, slots = _draw_plan(data, plan_planner, node_pools)
        _assert_unit_contract(jobs, deps, slots, dispatch_units(jobs, deps, slots))

    @pytest.mark.parametrize("slots", [1, 2, 4])
    @pytest.mark.parametrize("workload_name", ["serving", "dominant"])
    def test_workload_windows(
        self, plan_planner, serving_workload, dominant_workload, workload_name, slots
    ):
        """40-query batches as one window, with their real dependencies."""
        workload = serving_workload if workload_name == "serving" else dominant_workload
        batches = [list(workload[start : start + 40]) for start in range(0, len(workload), 40)]
        plans = [
            split_oversized(plan_planner, plan_planner.shard_plan(batch, slots), batch, FRACTION)
            for batch in batches
        ]
        window_deps = batch_dependencies(plans)
        chained = 0
        for batch, plan, deps in zip(batches, plans, window_deps):
            jobs = _jobs(plan, batch)
            units = dispatch_units(jobs, deps, slots)
            _assert_unit_contract(jobs, deps, slots, units)
            chained += any(job.handoff_from for job in jobs)
        if workload_name == "dominant":
            assert chained, "the dominant workload must split into chains"

    def test_a_chain_spanning_two_dependencies_is_refused(self):
        jobs = [
            ShardJob(0, (0,), frozenset(), []),
            ShardJob(1, (1,), frozenset(), [], predecessors=(0,), handoff_from=(0,)),
        ]
        with pytest.raises(ServingError):
            dispatch_units(jobs, [-1, 0], 2)


class TestWorkerLocalChain:
    @pytest.fixture()
    def dominant_units(self, build_serving_planner, dominant_workload):
        planner = build_serving_planner()
        queries = list(dominant_workload)
        plan = split_oversized(planner, planner.shard_plan(queries, 2), queries, FRACTION)
        jobs = _jobs(plan, queries)
        units = dispatch_units(jobs, [-1] * len(jobs), 2)
        assert any(job.handoff_from for unit in units for job in unit.jobs)
        return planner, units

    def test_dominant_units_equal_the_oracle(self, build_serving_planner, dominant_units):
        """Each chained unit of the dominant workload, run on one clone,
        equals the sequential oracle over the unit's queries."""
        planner, units = dominant_units
        for unit in units:
            _assert_unit_matches_oracle(planner, build_serving_planner(), unit.jobs)

    def test_worker_serves_a_unit_through_execute_unit(self, dominant_units):
        """A pool worker answers a ``run`` message with the in-process run's
        outcomes, results and new truths alike."""
        planner, units = dominant_units
        unit = next(unit for unit in units if any(job.handoff_from for job in unit.jobs))
        expected = execute_unit(planner, unit.jobs)
        kind, pid, outcomes = serve_message({"": planner}, ("run", "", None, [], list(unit.jobs)), 7)
        assert (kind, pid) == ("done", 7)
        assert [(o.shard_id, o.indices, o.worker_pid) for o in outcomes] == [
            (o.shard_id, o.indices, o.worker_pid) for o in expected
        ]
        for mine, theirs in zip(outcomes, expected):
            assert [recommendation_fingerprint(r) for r in mine.results] == [
                recommendation_fingerprint(r) for r in theirs.results
            ]
            assert _content(mine.new_truths) == _content(theirs.new_truths)

    def test_a_consumer_without_its_producer_is_refused(self, dominant_units):
        """The closure check: a consumer whose producer is not in its unit
        never executes."""
        planner, units = dominant_units
        consumer = next(job for unit in units for job in unit.jobs if job.predecessors)
        with pytest.raises(ServingError):
            execute_unit(planner, [consumer])


class TestUnitExecution:
    @pytest.mark.property
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_units_equal_the_oracle_over_their_queries(
        self, plan_planner, build_serving_planner, node_pools, data
    ):
        """Every unit of a random split plan, run by ``execute_unit``, equals
        ``recommend_batch`` on a fresh planner over the unit's queries in
        submission order."""
        assert len(plan_planner.truths) == 0
        jobs, deps, slots = _draw_plan(data, plan_planner, node_pools)
        for unit in dispatch_units(jobs, deps, slots):
            _assert_unit_matches_oracle(plan_planner, build_serving_planner(), unit.jobs)

    def test_interleaved_producers_resolve_ties_as_the_oracle(
        self, serving_scenario, serving_familiarity
    ):
        """Jobs ``(0, 2)``, ``(1,)`` and ``(3,)``: query 3 reuses a truth,
        tied on origin distance between the truths of queries 1 and 2.  The
        oracle recorded query 1's first, so its smaller id wins; running the
        jobs in shard-id order would record query 2's first."""
        config = replace(serving_scenario.config.planner_config, truth_reuse_radius_m=400.0)
        radius = config.truth_reuse_radius_m

        def build():
            return CrowdPlanner(
                network=serving_scenario.network,
                catalog=serving_scenario.catalog,
                calibrator=serving_scenario.calibrator,
                sources=serving_scenario.sources,
                worker_pool=serving_scenario.worker_pool,
                crowd_backend=serving_scenario.crowd,
                config=config,
                familiarity=serving_familiarity,
            )

        network = serving_scenario.network
        nodes = sorted(network.node_ids())

        def distance(a, b):
            return network.node_location(a).distance_to(network.node_location(b))

        # Two destinations out of each other's radius with a third within
        # both; one origin, so every origin distance is 0.
        first, between, second = next(
            (a, c, b)
            for c in nodes
            for a in nodes
            for b in nodes
            if distance(a, c) <= radius and distance(c, b) <= radius and distance(a, b) > radius
        )
        origin = next(node for node in nodes if min(distance(node, d) for d in (first, second)) > 3 * radius)
        far = [n for n in nodes if min(distance(n, m) for m in (origin, first, second)) > 3 * radius]
        assert len(far) > 1
        queries = [
            RouteQuery(far[0], far[-1]),
            RouteQuery(origin, first),
            RouteQuery(origin, second),
            RouteQuery(origin, between),
        ]
        jobs = [
            ShardJob(0, (0, 2), frozenset(), [queries[0], queries[2]]),
            ShardJob(1, (1,), frozenset(), [queries[1]]),
            ShardJob(2, (3,), frozenset(), [queries[3]], predecessors=(0, 1), handoff_from=(0, 1)),
        ]
        oracle = build()
        outcomes = _assert_unit_matches_oracle(build(), oracle, jobs)
        # The tie is real: queries 1 and 2 each recorded a truth at origin
        # distance 0 from query 3, on different routes, and query 3 reused
        # query 1's.
        first_answer, second_answer = outcomes[1].results[0], outcomes[0].results[1]
        reused = outcomes[2].results[0]
        assert first_answer.method != "truth_reuse" and second_answer.method != "truth_reuse"
        assert reused.method == "truth_reuse"
        assert first_answer.route.path != second_answer.route.path
        assert reused.route.path == first_answer.route.path


class TestWireSize:
    def test_largest_dominant_unit_fits_a_pipe_buffer(
        self, build_serving_planner, dominant_workload
    ):
        """A ``kill_after`` fault sends to a stopped worker, which only works
        while the whole run message fits the pipe buffer."""
        planner = build_serving_planner()
        queries = list(dominant_workload)
        plan = split_oversized(planner, planner.shard_plan(queries, 2), queries, FRACTION)
        jobs = _jobs(plan, queries)
        units = dispatch_units(jobs, [-1] * len(jobs), 2)
        largest = max(
            len(ForkingPickler.dumps(("run", "", None, [], list(unit.jobs)))) for unit in units
        )
        assert largest < PIPE_BUFFER_BYTES


class TestPlanGroupsOnce:
    @pytest.mark.parametrize("window", [1, 4])
    def test_parent_groups_each_batch_once(
        self, build_serving_planner, dominant_workload, sequential_oracle, window
    ):
        """``split_oversized`` restages from the plan's own od-cell groups:
        the parent groups a batch's od cells once, in ``shard_plan``, over
        the queries the window's settle pass left it (none when it left
        none)."""
        planner = build_serving_planner()
        calls, left = [], []
        group, settle = planner.od_cell_groups, planner.settled_hits

        def counting(queries):
            calls.append(len(queries))
            return group(queries)

        def settling(window):
            hits = settle(window)
            left.extend(len(queries) - len(found) for queries, found in zip(window, hits))
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
        assert len(left) == len(batches)
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
