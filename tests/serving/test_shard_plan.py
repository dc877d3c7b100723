"""Shard-plan construction: coverage, closure, balance and determinism."""

import pytest

from repro.core.planner import CrowdPlannerError
from repro.core.reference import partition_by_cells


@pytest.fixture(scope="module")
def plan_setup(build_serving_planner, serving_workload):
    planner = build_serving_planner()
    return planner, serving_workload


class TestShardPlan:
    def test_indices_cover_batch_exactly_once(self, plan_setup):
        planner, workload = plan_setup
        plan = planner.shard_plan(workload, 4)
        indices = sorted(i for shard in plan.shards for i in shard.indices)
        assert indices == list(range(len(workload)))
        assert plan.num_queries == len(workload)

    def test_indices_ascending_within_shard(self, plan_setup):
        planner, workload = plan_setup
        plan = planner.shard_plan(workload, 4)
        for shard in plan.shards:
            assert list(shard.indices) == sorted(shard.indices)

    def test_at_most_requested_shards(self, plan_setup):
        planner, workload = plan_setup
        for requested in (1, 2, 3, 5, 64):
            plan = planner.shard_plan(workload, requested)
            assert 1 <= len(plan.shards) <= requested

    def test_deterministic(self, plan_setup):
        planner, workload = plan_setup
        assert planner.shard_plan(workload, 4) == planner.shard_plan(workload, 4)

    def test_destination_cells_cover_member_queries(self, plan_setup):
        planner, workload = plan_setup
        plan = planner.shard_plan(workload, 4)
        truths = planner.truths
        for shard in plan.shards:
            for index in shard.indices:
                destination = planner.network.node_location(workload[index].destination)
                assert truths.destination_cell_of(destination) in shard.destination_cells

    def test_cross_shard_queries_cannot_interact(self, plan_setup):
        """Queries in different shards are farther apart than the interaction
        reach in origin cells or destination cells — the closure invariant
        that makes sharded execution order-independent."""
        planner, workload = plan_setup
        plan = planner.shard_plan(workload, 8)
        assert len(plan.shards) > 1, "workload must actually shard for this test"
        cell = plan.cell_size_m

        def od_cells(query):
            origin = planner.network.node_location(query.origin)
            destination = planner.network.node_location(query.destination)
            return (
                int(origin.x // cell),
                int(origin.y // cell),
                int(destination.x // cell),
                int(destination.y // cell),
            )

        shard_cells = [[od_cells(workload[i]) for i in shard.indices] for shard in plan.shards]
        for a in range(len(shard_cells)):
            for b in range(a + 1, len(shard_cells)):
                for ka in shard_cells[a]:
                    for kb in shard_cells[b]:
                        origin_close = (
                            abs(ka[0] - kb[0]) <= plan.cell_reach
                            and abs(ka[1] - kb[1]) <= plan.cell_reach
                        )
                        destination_close = (
                            abs(ka[2] - kb[2]) <= plan.cell_reach
                            and abs(ka[3] - kb[3]) <= plan.cell_reach
                        )
                        assert not (origin_close and destination_close)

    def test_reach_covers_both_radii(self, plan_setup):
        planner, workload = plan_setup
        plan = planner.shard_plan(workload, 2)
        assert plan.interaction_radius_m == max(
            planner.config.truth_reuse_radius_m, planner.evaluator.neighbourhood_radius_m
        )
        assert plan.cell_reach * plan.cell_size_m >= plan.interaction_radius_m

    def test_rejects_zero_shards(self, plan_setup):
        planner, workload = plan_setup
        with pytest.raises(CrowdPlannerError):
            planner.shard_plan(workload, 0)

    def test_empty_batch(self, plan_setup):
        planner, _ = plan_setup
        plan = planner.shard_plan([], 4)
        assert plan.shards == ()
        assert plan.num_queries == 0
        assert plan.largest_shard_fraction() == 0.0

    def test_dominant_destination_still_shards(self, build_serving_planner, dominant_workload):
        planner = build_serving_planner()
        plan = planner.shard_plan(dominant_workload, 4)
        assert len(plan.shards) > 1
        indices = sorted(i for shard in plan.shards for i in shard.indices)
        assert indices == list(range(len(dominant_workload)))


class TestTruthPartitioning:
    def test_partition_selects_by_destination_cell(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        planner.recommend_batch(serving_workload[:40])
        truths = planner.truths
        assert len(truths) > 0
        all_cells = {truths.destination_cell_of(t.destination) for t in truths.all()}
        some_cells = set(list(all_cells)[: max(1, len(all_cells) // 2)])
        partition = partition_by_cells(truths, some_cells)
        expected = [
            t.truth_id
            for t in truths.all()
            if truths.destination_cell_of(t.destination) in some_cells
        ]
        assert [t.truth_id for t in partition.all()] == expected  # ids + order preserved

    def test_absorb_renumbers_in_order(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        planner.recommend_batch(serving_workload[:30])
        donor = build_serving_planner()
        donor.recommend_batch(serving_workload[30:60])
        new_truths = donor.truths.all()
        before = len(planner.truths)
        merged = planner.truths.absorb(new_truths)
        assert len(planner.truths) == before + len(new_truths)
        merged_ids = [t.truth_id for t in merged]
        assert merged_ids == sorted(merged_ids)
        for original, adopted in zip(new_truths, merged):
            assert adopted.route.path == original.route.path
            assert adopted.origin == original.origin
            assert adopted.destination == original.destination
            assert adopted.time_slot == original.time_slot
            assert adopted.confidence == original.confidence
