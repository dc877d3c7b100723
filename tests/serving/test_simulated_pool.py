"""The serving contract on the simulated pool (see ``sim_pool.py``).

The real pooled dispatcher — scheduler, transport loop, reply reader,
respawn and degrade tail — over in-process workers, so hypothesis can
explore schedules in milliseconds with no fork, signal or clock: the
chunking, pool size, pipeline window, hotspot splitting, the order replies
arrive in and which dispatches lose their worker.  Every schedule must
reproduce the sequential oracle exactly: answers, planner statistics and
the merged truth store.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.serving import PooledBackend, RecommendationService, recommendation_fingerprint

from .sim_pool import simulated_service


def _truth_tuples(planner):
    return [
        (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
        for t in planner.truths.all()
    ]


@pytest.fixture(scope="module")
def workloads(build_serving_planner, serving_workload, dominant_workload, sequential_oracle):
    """``name -> (workload, cut points, oracle)``.  Besides the shared two,
    ``clustered`` is the plain workload with each interaction-closed
    component made contiguous and cut only between components: its batches
    share no cells, so a window overlaps whole batches and a later batch can
    finish, and wait to merge, before an earlier one."""
    atomic = build_serving_planner().shard_plan(serving_workload, len(serving_workload))
    clustered = [serving_workload[i] for shard in atomic.shards for i in shard.indices]
    boundaries = list(itertools.accumulate(len(shard.indices) for shard in atomic.shards))[:-1]
    planner = build_serving_planner()
    results = planner.recommend_batch(clustered)
    anywhere = range(1, len(serving_workload))
    return {
        "plain": (serving_workload, anywhere, sequential_oracle["plain"]),
        "dominant": (dominant_workload, anywhere, sequential_oracle["dominant"]),
        "clustered": (
            clustered,
            boundaries,
            {
                "fingerprints": [recommendation_fingerprint(result) for result in results],
                "statistics": planner.statistics.as_dict(),
                "truths": _truth_tuples(planner),
            },
        ),
    }


@pytest.mark.property
class TestSimulatedPoolProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        workload_name=st.sampled_from(["plain", "dominant", "clustered"]),
        cuts=st.sets(st.integers(min_value=0, max_value=10**6), max_size=7),
        pool_size=st.integers(min_value=1, max_value=4),
        pipeline_window=st.integers(min_value=1, max_value=4),
        max_shard_fraction=st.sampled_from([None, 0.5, 0.1]),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.sets(st.integers(min_value=0, max_value=40), max_size=4),
    )
    # Pinned: whole independent batches overlap, so later ones finish first
    # and must wait to merge; the second also loses workers mid-chain.
    @example("clustered", {0, 1, 2, 3}, 4, 4, None, 0, set())
    @example("clustered", {0, 1, 2, 3}, 2, 3, 0.1, 1, {2, 5})
    def test_any_schedule_matches_sequential(
        self,
        build_serving_planner,
        workloads,
        workload_name,
        cuts,
        pool_size,
        pipeline_window,
        max_shard_fraction,
        seed,
        kill_at,
    ):
        workload, positions, oracle = workloads[workload_name]
        cut_at = {positions[cut % len(positions)] for cut in cuts}
        bounds = [0, *sorted(cut_at), len(workload)]
        chunks = [workload[start:end] for start, end in zip(bounds, bounds[1:])]
        planner = build_serving_planner()
        with simulated_service(
            planner,
            seed=seed,
            kill_at=kill_at,
            pool_size=pool_size,
            pipeline_window=pipeline_window,
            max_shard_fraction=max_shard_fraction,
            respawn_backoff_s=0.0,
            respawn_backoff_max_s=0.0,
        ) as service:
            tickets = [service.submit(chunk) for chunk in chunks]
            order = list(range(len(tickets)))
            random.Random(seed).shuffle(order)
            collected = {position: service.results(tickets[position]) for position in order}
            stats = service.statistics()
            dispatches = service.backend.dispatches
        responses = [r for position in range(len(tickets)) for r in collected[position]]
        assert [recommendation_fingerprint(r.result) for r in responses] == oracle["fingerprints"]
        assert planner.statistics.as_dict() == oracle["statistics"]
        assert _truth_tuples(planner) == oracle["truths"]
        # Every killed worker's shard was detected lost and resubmitted once.
        kills = sum(1 for ordinal in kill_at if ordinal < dispatches)
        assert stats["supervision"]["resubmitted_shards"] == kills
        if pipeline_window > 1 and len(chunks) > 1:
            # The first redemption ran a real window, not a per-batch barrier.
            assert stats["pipeline"]["windows"] > 0


class NoForkPool(PooledBackend):
    """The pooled backend as it runs on a platform without ``fork``."""

    def _can_fork(self) -> bool:
        return False


def test_no_fork_platform_serves_windows_in_process(
    build_serving_planner, dominant_workload, sequential_oracle
):
    """Without ``fork`` no pool starts: the window path runs every shard —
    hotspot chains included — in the in-process tail, which is not a
    degradation, and answers stay the oracle's."""
    planner = build_serving_planner()
    config = ServiceConfig.from_planner_config(
        planner.config, backend="pooled", pool_size=2, pipeline_window=3, max_shard_fraction=0.1
    )
    with RecommendationService(planner, config, NoForkPool(config)) as service:
        tickets = [service.submit(dominant_workload[i : i + 40]) for i in range(0, 160, 40)]
        responses = [r for ticket in tickets for r in service.results(ticket)]
        stats = service.statistics()
        assert service.worker_pids() == []
    oracle = sequential_oracle["dominant"]
    assert [recommendation_fingerprint(r.result) for r in responses] == oracle["fingerprints"]
    assert planner.statistics.as_dict() == oracle["statistics"]
    assert stats["pipeline"]["windows"] >= 1
    assert stats["sharding"]["max_chain_depth"] >= 2
    assert stats["supervision"]["degraded_batches"] == 0
