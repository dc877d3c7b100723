"""Cross-batch pipelining: dependency DAG + windowed execution parity.

The acceptance gate of the rolling-window scheduler: for any
``pipeline_window``, pool size and interleaving, windowed execution is
fingerprint-identical to the sequential oracle — the DAG dispatcher may
only change *timing*, never observable state.  Degenerate windows are
pinned explicitly: window size 1 never leaves the barrier path, and a
fully-dependent stream (every batch touching the same od cells)
serialises batch by batch.  Fault handling rides along: a mid-window
failure returns the merged prefix and keeps later tickets redeemable,
and the chaos schedule (crash / hang / desync mid-window) must neither
stall the DAG nor change a single fingerprint.
"""

import multiprocessing
from types import SimpleNamespace

import pytest

from repro.config import ServiceConfig
from repro.exceptions import ServingError
from repro.serving import (
    PooledBackend,
    RecommendationService,
    recommendation_fingerprint,
    shards,
    worker,
)
from repro.serving.pipeline import batch_dependencies, window_parallelism

from .faults import FaultInjectingBackend
from .sim_pool import simulated_service

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")


def _service(planner, pool_size=2, **overrides):
    config = ServiceConfig.from_planner_config(
        planner.config, backend="pooled", pool_size=pool_size, **overrides
    )
    return RecommendationService(planner, config)


def _fingerprints(responses):
    return [recommendation_fingerprint(response.result) for response in responses]


def _chunks(workload, count):
    size = (len(workload) + count - 1) // count
    return [workload[start:start + size] for start in range(0, len(workload), size)]


def _plan(*cells_per_shard):
    """A synthetic shard plan: only the fields batch_dependencies reads."""
    return SimpleNamespace(
        shards=[
            SimpleNamespace(destination_cells=frozenset(cells)) for cells in cells_per_shard
        ]
    )


class TestBatchDependencies:
    """Unit coverage of the rolling cell -> last-writing-batch analysis."""

    def test_disjoint_batches_are_independent(self):
        plans = [_plan([(0, 0)]), _plan([(5, 5)]), _plan([(9, 9)])]
        deps = batch_dependencies(plans)
        assert deps == [[-1], [-1], [-1]]
        assert window_parallelism(deps) == {
            "independent_shards": 3,
            "cross_batch_edges": 0,
            "serialized_batches": 0,
        }

    def test_shared_cell_chains_to_previous_batch(self):
        plans = [_plan([(0, 0)]), _plan([(0, 0)]), _plan([(0, 0)])]
        deps = batch_dependencies(plans)
        assert deps == [[-1], [0], [1]]
        assert window_parallelism(deps)["serialized_batches"] == 2

    def test_dependency_is_latest_touching_batch(self):
        # Batch 2 shares a cell with batch 0 only: its dep skips batch 1.
        plans = [_plan([(0, 0)]), _plan([(5, 5)]), _plan([(0, 0), (7, 7)])]
        assert batch_dependencies(plans) == [[-1], [-1], [0]]

    def test_same_batch_shards_never_depend_on_each_other(self):
        # Two shards of one batch sharing a cell: writes are recorded only
        # after the batch's own deps are computed (siblings are already
        # interaction-closed by the shard plan).
        plans = [_plan([(0, 0)], [(0, 0)]), _plan([(0, 0)])]
        assert batch_dependencies(plans) == [[-1, -1], [0]]

    def test_per_shard_granularity_within_a_batch(self):
        # Only the shard that actually touches the hot cell waits.
        plans = [_plan([(0, 0)]), _plan([(0, 0)], [(8, 8)])]
        deps = batch_dependencies(plans)
        assert deps == [[-1], [0, -1]]
        assert window_parallelism(deps) == {
            "independent_shards": 2,
            "cross_batch_edges": 1,
            "serialized_batches": 0,
        }

    def test_empty_plans(self):
        assert batch_dependencies([]) == []
        assert batch_dependencies([_plan(), _plan([(1, 1)])]) == [[], [-1]]
        assert window_parallelism([[], [-1]])["independent_shards"] == 1


class TestDegenerateWindows:
    """Window size 1 is the barrier scheduler, byte for byte."""

    def test_window_one_never_calls_execute_window(
        self, build_serving_planner, serving_workload, sequential_oracle, monkeypatch
    ):
        planner = build_serving_planner()

        def forbidden(self, batches):  # pragma: no cover - the assertion
            raise AssertionError("pipeline_window=1 must stay on the barrier path")

        monkeypatch.setattr(PooledBackend, "execute_window", forbidden)
        with simulated_service(planner, pool_size=2) as service:
            tickets = [service.submit(chunk) for chunk in _chunks(serving_workload, 4)]
            responses = [r for t in tickets for r in service.results(t)]
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    def test_single_pending_batch_skips_the_window_path(
        self, build_serving_planner, serving_workload
    ):
        """Even with a window configured, a lone pending batch runs the
        plain execute_batch path (nothing to overlap with)."""
        planner = build_serving_planner()
        with simulated_service(planner, pool_size=2, pipeline_window=4) as service:
            responses = service.results(service.submit(serving_workload[:24]))
        assert len(responses) == 24
        assert service.statistics()["pipeline"]["windows"] == 0

    @needs_fork
    def test_lone_batches_on_forked_pool_count_no_windows(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """A lone batch on a real pool is a one-batch window: served by the
        DAG dispatcher, yet counted in no window-structure statistic."""
        planner = build_serving_planner()
        with _service(planner, pool_size=2, pipeline_window=4) as service:
            responses = [
                r
                for chunk in _chunks(serving_workload, 4)
                for r in service.results(service.submit(chunk))
            ]
            stats = service.statistics()["pipeline"]
        assert stats["windows"] == 0
        assert stats["independent_shards"] == 0
        assert stats["overlapped_dispatches"] == 0
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    def test_fully_dependent_stream_serializes(
        self, build_serving_planner, serving_workload
    ):
        """Every batch touching the same od cells forces barrier order:
        no dispatch may overlap an unmerged batch, and repeats are served
        from the truths the earlier batches just recorded."""
        planner = build_serving_planner()
        repeated = serving_workload[:12]
        plans = [planner.shard_plan(repeated, 2) for _ in range(4)]
        deps = batch_dependencies(plans)
        # Identical batches: every shard waits on the immediately
        # preceding batch, the degenerate fully-serialised window.
        assert all(dep == batch_index - 1 for batch_index, batch_deps
                   in enumerate(deps) if batch_index for dep in batch_deps)
        assert window_parallelism(deps)["serialized_batches"] == len(plans) - 1

        oracle_planner = build_serving_planner()
        oracle = [
            recommendation_fingerprint(result)
            for _ in range(4)
            for result in oracle_planner.recommend_batch(list(repeated))
        ]
        with simulated_service(planner, pool_size=2, pipeline_window=4) as service:
            tickets = [service.submit(list(repeated)) for _ in range(4)]
            responses = [r for t in tickets for r in service.results(t)]
        assert _fingerprints(responses) == oracle
        # The first batch computes, the repeats reuse its truths.
        assert all(r.method == "truth_reuse" for r in responses[len(repeated):])


class TestWindowedContract:
    """Fingerprint parity for real windows across pools and interleavings."""

    @pytest.mark.parametrize("pipeline_window", [2, 4])
    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_inprocess_windows_match_sequential(
        self, build_serving_planner, serving_workload, sequential_oracle,
        pool_size, pipeline_window,
    ):
        planner = build_serving_planner()
        with simulated_service(
            planner, pool_size=pool_size, pipeline_window=pipeline_window
        ) as service:
            tickets = [service.submit(chunk) for chunk in _chunks(serving_workload, 5)]
            collected = {t.ticket_id: service.results(t) for t in reversed(tickets)}
            stats = service.statistics()
        responses = [r for t in tickets for r in collected[t.ticket_id]]
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]
        # The simulated pool runs the real window dispatcher, not a barrier.
        assert stats["pipeline"]["windows"] >= 1

    @needs_fork
    @pytest.mark.parametrize("pipeline_window", [2, 4])
    def test_pooled_windows_match_sequential(
        self, build_serving_planner, serving_workload, sequential_oracle, pipeline_window
    ):
        planner = build_serving_planner()
        with _service(planner, pool_size=2, pipeline_window=pipeline_window) as service:
            tickets = [service.submit(chunk) for chunk in _chunks(serving_workload, 5)]
            collected = {t.ticket_id: service.results(t) for t in reversed(tickets)}
            stats = service.statistics()
        responses = [r for t in tickets for r in collected[t.ticket_id]]
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]
        assert stats["pipeline"]["windows"] >= 1

    @needs_fork
    def test_truth_store_parity_under_windows(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        planner = build_serving_planner()
        with _service(planner, pool_size=2, pipeline_window=3) as service:
            for ticket in [service.submit(chunk) for chunk in _chunks(serving_workload, 6)]:
                service.results(ticket)
        merged = [
            (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
            for t in planner.truths.all()
        ]
        assert merged == sequential_oracle["plain"]["truths"]

    @needs_fork
    def test_stream_prefetch_engages_windows(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        planner = build_serving_planner()
        with _service(planner, pool_size=2, pipeline_window=4) as service:
            responses = list(service.stream(serving_workload, batch_size=20))
            stats = service.statistics()
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        # The prefetch kept enough batches outstanding for real windows.
        assert stats["pipeline"]["windows"] >= 1

    @needs_fork
    def test_dominant_stream_matches_sequential(
        self, build_serving_planner, dominant_workload, sequential_oracle
    ):
        planner = build_serving_planner()
        with _service(planner, pool_size=2, pipeline_window=3) as service:
            responses = list(service.stream(dominant_workload, batch_size=40))
        assert _fingerprints(responses) == sequential_oracle["dominant"]["fingerprints"]

    @needs_fork
    def test_independent_batches_overlap(self, build_serving_planner, serving_workload):
        """Two closure-disjoint batches genuinely overlap: the second
        batch's shard is dispatched while the first is still unmerged."""
        planner = build_serving_planner()
        survey = planner.shard_plan(serving_workload, 16)
        # Two single-component shards with disjoint expanded closures:
        # re-planned alone each stays a single shard, so with pool size 2
        # the DAG dispatcher must put batch 1 in flight while batch 0 is.
        picked = []
        taken_cells = frozenset()
        for shard in survey.shards:
            if shard.components != 1 or taken_cells & shard.destination_cells:
                continue
            picked.append(shard)
            taken_cells = taken_cells | shard.destination_cells
            if len(picked) == 2:
                break
        assert len(picked) == 2, "workload lacks two disjoint single-component shards"
        batches = [[serving_workload[i] for i in shard.indices] for shard in picked]
        assert batch_dependencies(
            [planner.shard_plan(batch, 2) for batch in batches]
        ) == [[-1], [-1]]

        oracle_planner = build_serving_planner()
        oracle = [
            recommendation_fingerprint(result)
            for batch in batches
            for result in oracle_planner.recommend_batch(list(batch))
        ]
        with _service(planner, pool_size=2, pipeline_window=2) as service:
            tickets = [service.submit(batch) for batch in batches]
            responses = [r for t in tickets for r in service.results(t)]
            stats = service.statistics()
        assert _fingerprints(responses) == oracle
        assert stats["pipeline"]["windows"] == 1
        assert stats["pipeline"]["overlapped_dispatches"] >= 1


class TestWindowFaults:
    """Failures inside a window: prefix semantics + chaos parity."""

    def test_mid_window_failure_keeps_later_tickets_redeemable(
        self, build_serving_planner, serving_workload, monkeypatch
    ):
        planner = build_serving_planner()
        oracle_planner = build_serving_planner()
        batches = _chunks(serving_workload[:72], 3)
        oracle = [
            recommendation_fingerprint(result)
            for batch in batches
            for result in oracle_planner.recommend_batch(list(batch))
        ]
        # Batch 1's shards fail on the workers until the fault clears.
        poisoned = set(batches[1])
        assert not poisoned & set(batches[0] + batches[2])
        real_execute = worker.execute_shard_job

        def failing_execute(base, job):
            if poisoned & set(job.queries):
                raise RuntimeError("transient shard failure")
            return real_execute(base, job)

        monkeypatch.setattr(worker, "execute_shard_job", failing_execute)
        with simulated_service(planner, pool_size=2, pipeline_window=4) as service:
            tickets = [service.submit(batch) for batch in batches]
            # The window executes batch 1, fails on batch 2: the prefix is
            # finalised and ticket 1 redeems fine.
            first = service.results(tickets[0])
            # Batch 2 now heads the window and its failure surfaces here —
            # deterministically, on the caller redeeming it.
            with pytest.raises(ServingError):
                service.results(tickets[1])
            # Both tickets stayed pending and redeem after the fault clears.
            monkeypatch.undo()
            second = service.results(tickets[1])
            third = service.results(tickets[2])
        assert _fingerprints(first + second + third) == oracle
        assert planner.statistics.as_dict() == oracle_planner.statistics.as_dict()

    @needs_fork
    @pytest.mark.chaos
    def test_chaos_schedule_under_pipelining(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """Crash, hang and desync faults mid-window must neither stall the
        DAG (the hung worker is killed, its shard resubmitted) nor change
        any fingerprint."""
        planner = build_serving_planner()
        backend = FaultInjectingBackend(
            schedule={1: "kill_after", 3: "hang", 5: "desync", 8: "drop"}
        )
        config = ServiceConfig.from_planner_config(
            planner.config, backend="pooled", pool_size=2, pipeline_window=3
        )
        with RecommendationService(planner, config=config, backend=backend) as service:
            tickets = [service.submit(chunk) for chunk in _chunks(serving_workload, 5)]
            responses = [r for t in tickets for r in service.results(t)]
            assert len(backend.injected) >= 3
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    @needs_fork
    def test_lost_pool_counts_each_degraded_batch(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """The only worker dies before the first dispatch with the breaker
        open: every batch of the window runs in-process, and each one
        counts as a degraded batch."""
        planner = build_serving_planner()
        backend = FaultInjectingBackend(
            schedule={0: "kill_before"}, pool_size=1, max_respawns_per_batch=0
        )
        config = ServiceConfig.from_planner_config(
            planner.config, backend="pooled", pool_size=1, pipeline_window=3
        )
        chunks = _chunks(serving_workload, 3)
        with RecommendationService(planner, config=config, backend=backend) as service:
            tickets = [service.submit(chunk) for chunk in chunks]
            responses = [r for t in tickets for r in service.results(t)]
            supervision = service.statistics()["supervision"]
        assert backend.injected == ["kill_before"]
        assert supervision["degraded_batches"] == len(chunks)
        assert supervision["respawns"] == 0
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    @needs_fork
    def test_lost_pool_tail_failure_returns_merged_prefix(
        self, build_serving_planner, serving_workload, sequential_oracle, monkeypatch
    ):
        """A shard execution error in the lost pool's in-process tail takes
        the worker-error path: batch 0 (already merged) is returned as the
        window's prefix instead of the raw exception escaping, so its ticket
        is finalised once and a retry never executes it again."""
        planner = build_serving_planner()
        backend = FaultInjectingBackend(
            schedule={0: "kill_before"}, pool_size=1, max_respawns_per_batch=0
        )
        config = ServiceConfig.from_planner_config(
            planner.config, backend="pooled", pool_size=1, pipeline_window=3
        )
        chunks = _chunks(serving_workload, 3)
        poisoned = {id(query) for query in chunks[1]}
        real_execute = shards.execute_shard_job

        def failing_execute(base, job):
            if any(id(query) in poisoned for query in job.queries):
                raise RuntimeError("injected shard execution failure")
            return real_execute(base, job)

        monkeypatch.setattr(shards, "execute_shard_job", failing_execute)
        with RecommendationService(planner, config=config, backend=backend) as service:
            tickets = [service.submit(chunk) for chunk in chunks]
            first = service.results(tickets[0])
            assert backend.injected == ["kill_before"]
            # Batch 1 stays pending; once the fault clears it redeems, and
            # batch 0 is never executed twice.
            monkeypatch.undo()
            rest = [r for t in tickets[1:] for r in service.results(t)]
        assert _fingerprints(first + rest) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]


@needs_fork
class TestWindowJournal:
    """Per-batch journaling stays exact when batches merge inside windows."""

    def test_journal_records_per_batch_spans(
        self, build_serving_planner, serving_workload, tmp_path
    ):
        planner = build_serving_planner()
        chunks = _chunks(serving_workload, 6)
        with _service(
            planner, pool_size=2, pipeline_window=3,
            journal_path=str(tmp_path / "journal"), journal_fsync=False,
            snapshot_every_truths=16,
        ) as service:
            for ticket in [service.submit(chunk) for chunk in chunks]:
                service.results(ticket)
            journal_stats = service.statistics()["journal"]
        # One record per executed batch, even though several batches merged
        # inside each window call.
        assert journal_stats["batches"] == len(chunks)
        # The tight snapshot cadence forced mid-stream compactions; the
        # deferred-snapshot rule kept them consistent (checked by recovery).
        assert journal_stats["snapshots_written"] >= 1

        recovered = build_serving_planner()
        with RecommendationService.recover(recovered, tmp_path / "journal") as service:
            assert service.journal.batch_count == len(chunks)
        canonical = lambda store: [  # noqa: E731 - tiny local projection
            (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
            for t in store.all()
        ]
        assert canonical(recovered.truths) == canonical(planner.truths)
