"""Intra-component pipeline (hotspot splitting) tests.

Covers the :func:`~repro.serving.shards.split_oversized` stage and the
sub-shard hand-off chain end to end: structural plan invariants (coverage,
size bound, topological ids, hand-off edges), visibility soundness (two
sub-shards with no hand-off relation share no linked query pair), the
diagnostics surfaced through ``service.plan()`` / ``service.statistics()``,
and — on the forked pool — mid-chain fault recovery: killing or hanging a
worker that holds a sub-shard whose delta downstream slices await must
reproduce the sequential fingerprints exactly.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.config import ServiceConfig
from repro.serving import RecommendationService, recommendation_fingerprint
from repro.serving.shards import ChainState, handoff_id_base, split_oversized

from .faults import FaultInjectingBackend
from .sim_pool import SimulatedPool

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")

#: Tight enough that the 30%-dominant workload's biggest component must chain.
FRACTION = 0.1


def _fingerprints(responses):
    return [recommendation_fingerprint(response.result) for response in responses]


def _truth_tuples(planner):
    return [
        (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
        for t in planner.truths.all()
    ]


@pytest.fixture()
def split_case(build_serving_planner, dominant_workload):
    """One planner + raw plan + split plan over the dominant workload."""
    planner = build_serving_planner()
    queries = list(dominant_workload)
    raw = planner.shard_plan(queries, 4)
    split = split_oversized(planner, raw, queries, FRACTION)
    return planner, queries, raw, split


class TestSplitPlan:
    def test_noop_when_fraction_permits(self, build_serving_planner, dominant_workload):
        planner = build_serving_planner()
        queries = list(dominant_workload)
        raw = planner.shard_plan(queries, 4)
        assert split_oversized(planner, raw, queries, 1.0) is raw
        # A bound every shard already satisfies returns the plan untouched.
        loose = max(len(shard) for shard in raw.shards) / raw.num_queries
        assert split_oversized(planner, raw, queries, loose) is raw

    def test_split_structural_invariants(self, split_case):
        _, _, raw, split = split_case
        max_size = max(1, int(FRACTION * raw.num_queries))
        assert len(split.shards) > len(raw.shards)
        # Every query exactly once, ids dense in emission order.
        covered = sorted(index for shard in split.shards for index in shard.indices)
        assert covered == list(range(raw.num_queries))
        assert sorted(shard.shard_id for shard in split.shards) == list(
            range(len(split.shards))
        )
        for shard in split.shards:
            assert len(shard) <= max_size
            assert list(shard.indices) == sorted(shard.indices)
            # Shard-id order is a topological order of the hand-off DAG.
            assert all(pred < shard.shard_id for pred in shard.predecessors)
            assert all(src < shard.shard_id for src in shard.handoff_from)
            # Completion gates are a subset of the adopted hand-off set.
            assert set(shard.predecessors) <= set(shard.handoff_from)
        assert split.largest_shard_fraction() <= FRACTION + 1e-9
        assert split.chain_depth() >= 2  # the dominant component truly chains

    def test_split_is_deterministic(self, split_case):
        planner, queries, raw, split = split_case
        again = split_oversized(planner, raw, queries, FRACTION)
        assert [
            (s.shard_id, s.indices, s.predecessors, s.handoff_from) for s in split.shards
        ] == [(s.shard_id, s.indices, s.predecessors, s.handoff_from) for s in again.shards]

    def test_unrelated_sub_shards_share_no_linked_pair(self, split_case):
        """Soundness of omitted hand-offs: if sub-shard B never adopts from
        sub-shard A (in either direction), then no query pair across them is
        within interaction reach — A's truths are invisible to B anyway."""
        planner, queries, raw, split = split_case
        reach = raw.cell_reach
        cell_of = {}
        for key, members in planner.od_cell_groups(queries).items():
            for index in members:
                cell_of[index] = key
        shards = sorted(split.shards, key=lambda s: s.shard_id)
        assert any(shard.handoff_from for shard in shards)  # real consumers exist
        for a in shards:
            for b in shards:
                if a.shard_id >= b.shard_id:
                    continue
                if a.shard_id in b.handoff_from:
                    continue
                for i in a.indices:
                    for j in b.indices:
                        linked = all(
                            abs(cell_of[i][axis] - cell_of[j][axis]) <= reach
                            for axis in range(4)
                        )
                        # Linked pairs in the same component must be related
                        # through the hand-off chain; unrelated sub-shards of
                        # different components are unlinked by plan
                        # construction.
                        assert not linked, (
                            f"sub-shards {a.shard_id}->{b.shard_id} are unrelated "
                            f"but queries {i},{j} interact"
                        )

    def test_chain_state_retags_and_memoises(self, split_case):
        planner, queries, _, split = split_case
        consumer = next(s for s in split.shards if s.handoff_from)
        from repro.serving.shards import ShardJob, execute_shard_job

        jobs = {
            shard.shard_id: ShardJob(
                shard_id=shard.shard_id,
                indices=shard.indices,
                destination_cells=shard.destination_cells,
                queries=[queries[i] for i in shard.indices],
                predecessors=shard.predecessors,
                handoff_from=shard.handoff_from,
            )
            for shard in split.shards
        }
        base = handoff_id_base()
        chain = ChainState(list(jobs.values()), base)
        job = jobs[consumer.shard_id]
        assert not chain.ready(job)
        for src in sorted(set(job.handoff_from)):
            chain.record(execute_shard_job(planner, jobs[src]))
        assert chain.ready(job)
        payload = chain.payload(job)
        assert payload is chain.payload(job)  # memoised for resubmission
        ids = [truth.truth_id for truth in payload]
        assert ids == sorted(ids)
        assert all(truth_id >= base for truth_id in ids)


class TestHotspotDiagnostics:
    def test_service_plan_reports_split(self, build_serving_planner, dominant_workload):
        planner = build_serving_planner()
        backend = SimulatedPool(ServiceConfig(pool_size=4, max_shard_fraction=FRACTION))
        with RecommendationService(planner, backend=backend) as service:
            plan = service.plan(list(dominant_workload))
            assert plan.largest_shard_fraction() <= FRACTION + 1e-9
            assert plan.chain_depth() >= 2
            assert any(shard.handoff_from for shard in plan.shards)

    def test_statistics_surface_skew_and_chain_depth(
        self, build_serving_planner, dominant_workload
    ):
        planner = build_serving_planner()
        backend = SimulatedPool(ServiceConfig(pool_size=4, max_shard_fraction=FRACTION))
        with RecommendationService(planner, backend=backend) as service:
            service.results(service.submit(list(dominant_workload)))
            sharding = service.statistics()["sharding"]
        assert sharding["largest_shard_fraction_before"] > FRACTION
        assert sharding["largest_shard_fraction_after"] <= FRACTION + 1e-9
        assert sharding["chain_depth"] >= 2
        assert sharding["max_chain_depth"] >= sharding["chain_depth"]
        assert sharding["sub_shards_total"] > 0

    def test_inprocess_chain_is_not_a_degraded_batch(
        self, build_serving_planner, dominant_workload, sequential_oracle
    ):
        """Every shard of the chains runs on a live (simulated) pool; with no
        pool lost, that is not a degradation."""
        planner = build_serving_planner()
        backend = SimulatedPool(ServiceConfig(pool_size=4, max_shard_fraction=FRACTION))
        half = len(dominant_workload) // 2
        with RecommendationService(planner, backend=backend) as service:
            responses = service.results(service.submit(list(dominant_workload[:half])))
            responses += service.results(service.submit(list(dominant_workload[half:])))
            stats = service.statistics()
        assert stats["sharding"]["max_chain_depth"] >= 2
        assert stats["supervision"]["degraded_batches"] == 0
        assert _fingerprints(responses) == sequential_oracle["dominant"]["fingerprints"]

    def test_inline_backend_reports_neutral_sharding(
        self, build_serving_planner, serving_workload
    ):
        planner = build_serving_planner()
        config = ServiceConfig.from_planner_config(planner.config, backend="inline")
        with RecommendationService(planner, config=config) as service:
            service.results(service.submit(list(serving_workload[:8])))
            sharding = service.statistics()["sharding"]
        assert sharding["sub_shards_total"] == 0
        assert sharding["chain_depth"] == 0

    def test_config_validates_fraction(self, build_serving_planner):
        planner = build_serving_planner()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(Exception):
                ServiceConfig.from_planner_config(
                    planner.config, max_shard_fraction=bad
                ).validate()
        ServiceConfig.from_planner_config(planner.config, max_shard_fraction=0.5).validate()


@needs_fork
@pytest.mark.chaos
class TestMidChainFaults:
    """Kill/hang a worker holding a sub-shard that downstream slices await."""

    def _run(self, build_serving_planner, workload, schedule, **backend_kwargs):
        planner = build_serving_planner()
        backend = FaultInjectingBackend(
            schedule=schedule, pool_size=2, max_shard_fraction=FRACTION, **backend_kwargs
        )
        with RecommendationService(planner, backend=backend) as service:
            responses = service.results(service.submit(list(workload)))
            stats = service.statistics()
        return planner, backend, _fingerprints(responses), stats

    @pytest.mark.parametrize("kind", ["kill_before", "kill_after", "hang", "desync"])
    def test_mid_chain_fault_reproduces_oracle(
        self, build_serving_planner, dominant_workload, sequential_oracle, kind
    ):
        # Ordinals 2-4 land on sub-shard dispatches of the dominant chain
        # (its head slices dispatch first, so these hit producers whose
        # deltas downstream slices are already waiting for).
        planner, backend, fingerprints, stats = self._run(
            build_serving_planner, dominant_workload, {2: kind, 4: kind}
        )
        assert backend.injected, "fault schedule never fired"
        assert fingerprints == sequential_oracle["dominant"]["fingerprints"]
        assert _truth_tuples(planner) == sequential_oracle["dominant"]["truths"]
        assert planner.statistics.as_dict() == sequential_oracle["dominant"]["statistics"]
        # kill_before can surface as a failed dispatch + respawn rather than a
        # resubmission (the job never reached the dead worker); either way
        # supervision must have intervened.
        supervision = stats["supervision"]
        assert supervision["resubmitted_shards"] + supervision["respawns"] >= 1

    def test_whole_pool_loss_degrades_chain_inline(
        self, build_serving_planner, dominant_workload, sequential_oracle
    ):
        """Both workers die mid-chain with the breaker closed: the remaining
        sub-shards (hand-offs included) degrade to in-process execution."""
        planner, backend, fingerprints, stats = self._run(
            build_serving_planner,
            dominant_workload,
            {0: "kill_after", 1: "kill_after", 2: "kill_after", 3: "kill_after"},
            max_respawns_per_batch=0,
        )
        assert fingerprints == sequential_oracle["dominant"]["fingerprints"]
        assert _truth_tuples(planner) == sequential_oracle["dominant"]["truths"]
        assert stats["supervision"]["degraded_batches"] >= 1

    def test_windowed_stream_with_mid_chain_hang(
        self, build_serving_planner, dominant_workload, sequential_oracle
    ):
        """The window dispatcher recovers a hung chain producer too."""
        planner = build_serving_planner()
        backend = FaultInjectingBackend(
            schedule={3: "hang"}, pool_size=2, max_shard_fraction=FRACTION
        )
        config = ServiceConfig.from_planner_config(
            planner.config, backend="pooled", pool_size=2, pipeline_window=3
        )
        with RecommendationService(planner, config=config, backend=backend) as service:
            produced = []
            for start in (0, 80):
                ticket = service.submit(list(dominant_workload[start : start + 80]))
                produced.extend(_fingerprints(service.results(ticket)))
        assert produced == sequential_oracle["dominant"]["fingerprints"]
        assert _truth_tuples(planner) == sequential_oracle["dominant"]["truths"]
