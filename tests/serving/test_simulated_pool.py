"""The serving contract on the simulated pool (see ``sim_pool.py``).

The real pooled dispatcher — scheduler, transport loop, reply reader,
respawn and degrade tail — over in-process workers, so hypothesis can
explore schedules in milliseconds with no fork, signal or clock: the
chunking, pool size, pipeline window, hotspot splitting, the order replies
arrive in and which dispatches lose their worker.  Every schedule must
reproduce the sequential oracle exactly: answers, planner statistics and
the merged truth store, with each batch's journaled ``truth_span`` holding
exactly the truths its own answers recorded.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.serving import (
    DEFAULT_TENANT,
    PooledBackend,
    RecommendationService,
    recommendation_fingerprint,
)

from .sim_pool import SimulatedPool, simulated_service


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
    finish, and wait to merge, before an earlier one.  ``repeated`` serves
    half the plain workload, then repeats it, then a stretch half repeated
    and half fresh, so windows mix queries the parent settles with queries
    it dispatches.  ``spanning`` cuts the plain workload into batches of ten
    fresh queries, each followed by one query of each of the three batches
    before it: an od key first missed in batch k repeats in batches
    k+1..k+3, so a window's components span its batches."""
    atomic = build_serving_planner().shard_plan(serving_workload, len(serving_workload))
    clustered = [serving_workload[i] for shard in atomic.shards for i in shard.indices]
    boundaries = list(itertools.accumulate(len(shard.indices) for shard in atomic.shards))[:-1]
    repeated = serving_workload[:80] * 2 + serving_workload[40:120]
    fresh = [serving_workload[start : start + 10] for start in range(0, 80, 10)]
    spanning_batches = [
        fresh[k] + [fresh[k - back][back - 1] for back in (1, 2, 3) if k - back >= 0]
        for k in range(len(fresh))
    ]
    spanning = [query for batch in spanning_batches for query in batch]

    def oracle(workload):
        planner = build_serving_planner()
        results = planner.recommend_batch(workload)
        return {
            "fingerprints": [recommendation_fingerprint(result) for result in results],
            "statistics": planner.statistics.as_dict(),
            "truths": _truth_tuples(planner),
        }

    anywhere = range(1, len(serving_workload))
    return {
        "plain": (serving_workload, anywhere, sequential_oracle["plain"]),
        "dominant": (dominant_workload, anywhere, sequential_oracle["dominant"]),
        "clustered": (clustered, boundaries, oracle(clustered)),
        "repeated": (repeated, range(1, len(repeated)), oracle(repeated)),
        "spanning": (
            spanning,
            list(itertools.accumulate(len(batch) for batch in spanning_batches))[:-1],
            oracle(spanning),
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
        workload_name=st.sampled_from(["plain", "dominant", "clustered", "repeated", "spanning"]),
        cuts=st.sets(st.integers(min_value=0, max_value=10**6), max_size=7),
        pool_size=st.integers(min_value=1, max_value=4),
        pipeline_window=st.integers(min_value=1, max_value=4),
        max_shard_fraction=st.sampled_from([None, 0.5, 0.1]),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.sets(st.integers(min_value=0, max_value=40), max_size=4),
    )
    # Pinned: whole independent batches overlap, so later ones finish first
    # and must wait to merge; the second also loses workers on the hotspot.
    @example("clustered", {0, 1, 2, 3}, 4, 4, None, 0, set())
    @example("clustered", {0, 1, 2, 3}, 2, 3, 0.1, 1, {2, 5})
    # Settled and dispatched queries share windows, and a worker is lost.
    @example("repeated", {79, 119, 159, 199}, 2, 3, 0.1, 2, {1})
    # Components span a window's batches; one of their shards is lost.
    @example("spanning", set(range(7)), 2, 4, None, 3, {0})
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
            spans = _record_truth_spans(service.backend)
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
        # Each batch's truth span holds exactly the truths its own answers
        # recorded, in order, and the spans tile the store.
        assert [span[0] for span in spans] == [0] + [span[1] for span in spans[:-1]]
        locate = planner.network.node_location
        for (before, after), position in zip(spans, range(len(tickets))):
            own = [
                (locate(r.request.query.origin), locate(r.request.query.destination), r.result.route.path)
                for r in collected[position]
                if r.result.method != "truth_reuse"
            ]
            recorded = planner.truth_delta(before, upto=after)
            assert [(t.origin, t.destination, t.route.path) for t in recorded] == own
        # Every killed worker's shard was detected lost and resubmitted once.
        kills = sum(1 for ordinal in kill_at if ordinal < dispatches)
        assert stats["supervision"]["resubmitted_shards"] == kills
        if pipeline_window > 1 and len(chunks) > 1:
            # The first redemption ran a real window, not a per-batch barrier.
            assert stats["pipeline"]["windows"] > 0


def _record_truth_spans(backend):
    """Collect the ``truth_span`` of every batch ``backend`` executes, in
    submission order."""
    spans = []
    execute = backend.execute_window

    def recording(batches, *args, **kwargs):
        executions = execute(batches, *args, **kwargs)
        spans.extend(execution.truth_span for execution in executions)
        return executions

    backend.execute_window = recording
    return spans


class NoForkPool(PooledBackend):
    """The pooled backend as it runs on a platform without ``fork``."""

    def _can_fork(self) -> bool:
        return False


def test_no_fork_platform_serves_windows_in_process(
    build_serving_planner, dominant_workload, sequential_oracle
):
    """Without ``fork`` no pool starts: the window path runs every shard —
    the one the split chains included — in the in-process tail, which is not a
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


class RecordingPool(SimulatedPool):
    """A simulated pool that logs every message sent to a worker, each
    ``run`` with the worker's cursor, the parent's cursor at send time and
    the parent's cursor when the window began."""

    def __init__(self, config):
        super().__init__(config)
        self.sent = []
        self.window_start = 0

    def execute_window(self, batches, tenant=DEFAULT_TENANT):
        self.window_start = self.planner.truth_cursor()
        return super().execute_window(batches, tenant)

    def _spawn_worker(self):
        handle = super()._spawn_worker()
        send = handle.conn.send

        def record(message):
            if message[0] == "run":
                cursors = (handle.cursors.get(message[1], 0), self.planner.truth_cursor())
                self.sent.append((message, cursors, self.window_start))
            else:
                self.sent.append((message, None, None))
            send(message)

        handle.conn.send = record
        return handle


def _wire_tuples(truths):
    return [
        (t.truth_id, t.origin, t.destination, t.time_slot, t.route.path, t.verified_by)
        for t in truths
    ]


def test_idle_worker_catches_up_on_its_next_run(
    build_serving_planner, serving_workload, sequential_oracle
):
    """A worker is brought current only by the delta on its next ``run``:
    each one carries exactly the parent's truths between that worker's
    cursor and the parent's, including truths merged in windows the worker
    sat out."""
    planner = build_serving_planner()
    config = ServiceConfig.from_planner_config(
        planner.config, backend="pooled", pool_size=2, pipeline_window=4
    )
    pool = RecordingPool(config)
    with RecommendationService(planner, config, pool) as service:
        tickets = [service.submit(serving_workload[i : i + 10]) for i in range(0, 160, 10)]
        responses = [r for ticket in tickets for r in service.results(ticket)]
    oracle = sequential_oracle["plain"]
    assert [recommendation_fingerprint(r.result) for r in responses] == oracle["fingerprints"]
    assert {message[0] for message, _, _ in pool.sent} <= {"run", "drop", "stop"}
    runs = [(message, cursors, start) for message, cursors, start in pool.sent if cursors]
    for message, (cursor, parent_cursor), _ in runs:
        delta = message[3]
        decoded = delta.decode_truths(planner.network) if len(delta) else []
        assert _wire_tuples(decoded) == _wire_tuples(planner.truth_delta(cursor, parent_cursor))
    # Some run reached a worker already behind when its window began: the
    # run's own delta brought it current.
    assert any(0 < cursor < start for _, (cursor, _), start in runs)


def test_dispatch_ignores_the_split(build_serving_planner, dominant_workload, sequential_oracle):
    """The split is a diagnostic: at fractions 0.1, 1.0 and ``None`` every
    ``run`` message carries one shard, the same shard index sets are sent
    in the same order, and answers stay the oracle's.  At 0.1 the
    ``sharding`` counters still report the hotspot's chains."""
    oracle = sequential_oracle["dominant"]
    sent = {}
    for fraction in (0.1, 1.0, None):
        planner = build_serving_planner()
        config = ServiceConfig.from_planner_config(
            planner.config,
            backend="pooled",
            pool_size=2,
            pipeline_window=2,
            max_shard_fraction=fraction,
        )
        pool = RecordingPool(config)
        with RecommendationService(planner, config, pool) as service:
            tickets = [service.submit(dominant_workload[i : i + 40]) for i in range(0, 160, 40)]
            responses = [r for ticket in tickets for r in service.results(ticket)]
            sharding = service.statistics()["sharding"]
        assert [recommendation_fingerprint(r.result) for r in responses] == oracle["fingerprints"]
        sent[fraction] = [message[4].indices for message, _, _ in pool.sent if message[0] == "run"]
        if fraction == 0.1:
            assert sharding["max_chain_depth"] >= 2
            assert sharding["sub_shards_total"] > 0
    assert sent[0.1]
    assert sent[0.1] == sent[1.0] == sent[None]
