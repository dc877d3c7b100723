"""Dispatch units: hand-off-closed groups of a batch's shards, one message each.

:func:`~repro.serving.shards.dispatch_units` is held to its structural
contract over random split plans and over the serving and dominant
workloads; running a chained unit with a worker-local plain-list
:class:`~repro.serving.shards.ChainState` is checked against the path where
each consumer adopted a parent-encoded ``TruthDeltaBlock``; the largest unit
of the dominant workload must fit a pipe buffer; and the parent must group
each batch's od cells once.
"""

from __future__ import annotations

from dataclasses import replace
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ServiceConfig
from repro.exceptions import ServingError
from repro.routing.base import RouteQuery
from repro.serving import RecommendationService, recommendation_fingerprint
from repro.serving.pipeline import batch_dependencies
from repro.serving.protocol import encode_truth_delta
from repro.serving.shards import (
    ChainState,
    ShardJob,
    dispatch_units,
    execute_jobs_inline,
    execute_shard_job,
    handoff_id_base,
    split_oversized,
)
from repro.serving.worker import serve_message

from .faults import PIPE_BUFFER_BYTES
from .sim_pool import SimulatedPool

FRACTION = 0.1


def _jobs(plan, queries, base=0):
    return [
        ShardJob(
            shard_id=shard.shard_id,
            indices=shard.indices,
            destination_cells=shard.destination_cells,
            queries=[queries[index] for index in shard.indices],
            predecessors=shard.predecessors,
            handoff_from=shard.handoff_from,
            handoff_base=base,
        )
        for shard in plan.shards
    ]


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


class TestUnitContract:
    @pytest.mark.property
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_split_plans(self, plan_planner, node_pools, data):
        """Random batches (the cell-closure suite's strategy), random pool
        sizes and fractions, and a random cross-batch dependency per
        component cell set."""
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
        plan = split_oversized(
            plan_planner, plan_planner.shard_plan(queries, slots), queries, fraction
        )
        jobs = _jobs(plan, queries)
        dep_of_cells = {}
        deps = []
        for job in jobs:
            key = id(job.destination_cells)
            if key not in dep_of_cells:
                dep_of_cells[key] = data.draw(st.integers(min_value=-1, max_value=2))
            deps.append(dep_of_cells[key])
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
        base = handoff_id_base()
        jobs = _jobs(plan, queries, base)
        units = dispatch_units(jobs, [-1] * len(jobs), 2)
        assert any(job.handoff_from for unit in units for job in unit.jobs)
        return planner, base, units

    def test_plain_list_chain_equals_parent_encoded_hand_offs(self, dominant_units):
        """Each unit run the way a worker now runs it equals the same jobs
        run the way the parent relayed hand-offs before: every consumer
        adopting a ``TruthDeltaBlock`` encoded from the parent's chain."""
        planner, base, units = dominant_units
        for unit in units:
            local = ChainState(unit.jobs, base)
            outcomes = execute_jobs_inline(planner, unit.jobs, local)
            local_payloads = {job.shard_id: job.adopt for job in unit.jobs}

            relay = ChainState(unit.jobs, base)
            relayed = []
            for job in unit.jobs:
                truths = relay.payload(job)
                job.adopt = encode_truth_delta(truths, planner.network) if truths else truths
                relayed.append(execute_shard_job(planner, job))
                relay.record(relayed[-1])
                if truths:
                    # The provisional ids are the same on both paths.
                    assert job.adopt.decode_truths(planner.network) == local_payloads[job.shard_id]

            assert [outcome.shard_id for outcome in outcomes] == [
                outcome.shard_id for outcome in relayed
            ]
            for mine, theirs in zip(outcomes, relayed):
                assert [recommendation_fingerprint(r) for r in mine.results] == [
                    recommendation_fingerprint(r) for r in theirs.results
                ]
                assert mine.statistics_delta == theirs.statistics_delta
                # Ids are process-global serials: compare the truths' content.
                assert [replace(t, truth_id=0) for t in mine.new_truths] == [
                    replace(t, truth_id=0) for t in theirs.new_truths
                ]

    def test_worker_runs_a_unit_on_the_shipped_base(self, dominant_units):
        """A pool worker's chain retags on the parent's hand-off base, which
        rides on the jobs, and its outcomes are the in-process run's."""
        planner, base, units = dominant_units
        unit = next(unit for unit in units if any(job.handoff_from for job in unit.jobs))
        expected = execute_jobs_inline(planner, unit.jobs, ChainState(unit.jobs, base))
        jobs = list(unit.jobs)
        kind, pid, outcomes = serve_message({"": planner}, ("run", "", None, [], jobs), 7)
        assert (kind, pid) == ("done", 7)
        adopted = [truth for job in jobs if job.adopt for truth in job.adopt]
        assert adopted, "the unit must hand truths on"
        indices = {index for job in jobs for index in job.indices}
        assert all(truth.truth_id - base in indices for truth in adopted)
        assert [
            [recommendation_fingerprint(r) for r in outcome.results] for outcome in outcomes
        ] == [[recommendation_fingerprint(r) for r in outcome.results] for outcome in expected]

    def test_a_consumer_without_its_producer_is_refused(self, dominant_units):
        """The shard-id-order guard: a consumer whose producer is not in
        its unit (or not yet run) never executes."""
        planner, base, units = dominant_units
        consumer = next(job for unit in units for job in unit.jobs if job.predecessors)
        with pytest.raises(ServingError):
            execute_jobs_inline(planner, [consumer], ChainState([consumer], base))


class TestWireSize:
    def test_largest_dominant_unit_fits_a_pipe_buffer(
        self, build_serving_planner, dominant_workload
    ):
        """A ``kill_after`` fault sends to a stopped worker, which only works
        while the whole run message fits the pipe buffer."""
        planner = build_serving_planner()
        queries = list(dominant_workload)
        plan = split_oversized(planner, planner.shard_plan(queries, 2), queries, FRACTION)
        jobs = _jobs(plan, queries, handoff_id_base())
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
        the parent groups a batch's od cells once, in ``shard_plan``."""
        planner = build_serving_planner()
        calls = []
        group = planner.od_cell_groups

        def counting(queries):
            calls.append(len(queries))
            return group(queries)

        planner.od_cell_groups = counting
        config = ServiceConfig(pool_size=2, max_shard_fraction=FRACTION, pipeline_window=window)
        batches = [list(dominant_workload[start : start + 40]) for start in range(0, 160, 40)]
        with RecommendationService(planner, config, SimulatedPool(config)) as service:
            tickets = [service.submit(batch) for batch in batches]
            responses = [r for ticket in tickets for r in service.results(ticket)]
            stats = service.statistics()
        assert stats["sharding"]["sub_shards_total"] > 0
        assert calls == [40] * len(batches)
        assert [recommendation_fingerprint(r.result) for r in responses] == (
            sequential_oracle["dominant"]["fingerprints"]
        )
        assert 0 < stats["pipeline"]["dispatch_units"] <= 2 * len(batches)
