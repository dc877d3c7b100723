"""Windows: one component plan per window + windowed execution parity.

The acceptance gate of window planning: for any ``pipeline_window``, pool
size and interleaving, windowed execution is fingerprint-identical to the
sequential oracle — planning a window as one batch may only change
*timing*, never observable state.  Degenerate windows are pinned
explicitly: window size 1 never leaves the one-batch path, and a
fully-dependent stream (every batch touching the same od cells) runs each
repeat on the shard of its first occurrence.  The per-batch dependency
analysis (``batch_dependencies``) keeps its unit tests.  Fault handling
rides along: a mid-window failure returns the merged prefix and keeps
later tickets redeemable, and the chaos schedule (crash / hang / desync
mid-window) must neither stall a window nor change a single fingerprint.
"""

import multiprocessing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.exceptions import ServingError
from repro.serving import (
    DEFAULT_TENANT,
    PooledBackend,
    RecommendationService,
    recommendation_fingerprint,
    worker,
)
from repro.serving import service as service_module
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
        }

    def test_shared_cell_chains_to_previous_batch(self):
        plans = [_plan([(0, 0)]), _plan([(0, 0)]), _plan([(0, 0)])]
        deps = batch_dependencies(plans)
        assert deps == [[-1], [0], [1]]

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
        }

    def test_empty_plans(self):
        assert batch_dependencies([]) == []
        assert batch_dependencies([_plan(), _plan([(1, 1)])]) == [[], [-1]]
        assert window_parallelism([[], [-1]])["independent_shards"] == 1


def _per_cell_dependencies(plans):
    """The former per-shard, per-cell loop: the oracle of ``batch_dependencies``."""
    cell_last_batch = {}
    deps = []
    for batch_index, plan in enumerate(plans):
        batch_deps = []
        for shard in plan.shards:
            dep = -1
            for cell in shard.destination_cells:
                dep = max(dep, cell_last_batch.get(cell, -1))
            batch_deps.append(dep)
        deps.append(batch_deps)
        for shard in plan.shards:
            for cell in shard.destination_cells:
                cell_last_batch[cell] = batch_index
    return deps


_cells = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8)
#: One cell set and how it is carried by ``count`` shards: one shared
#: frozenset object (what ``split_oversized`` emits), equal but distinct
#: frozensets, or plain sets (the shape ``_plan`` callers and tests build).
_groups = st.tuples(_cells, st.integers(1, 4), st.sampled_from(["shared", "copies", "plain"]))


@st.composite
def _window_plans(draw):
    plans = []
    for _ in range(draw(st.integers(0, 5))):
        shards = []
        for cells, count, shape in draw(st.lists(_groups, max_size=4)):
            shared = frozenset(cells)
            for _ in range(count):
                if shape == "shared":
                    shard_cells = shared
                elif shape == "copies":
                    shard_cells = frozenset(cells)
                else:
                    shard_cells = set(cells)
                shards.append(SimpleNamespace(destination_cells=shard_cells))
        plans.append(SimpleNamespace(shards=draw(st.permutations(shards))))
    return plans


class TestBatchDependenciesEquivalence:
    """``batch_dependencies`` must answer exactly like the per-shard,
    per-cell loop it replaced, whatever objects carry the cell sets."""

    @pytest.mark.property
    @settings(max_examples=200, deadline=None)
    @given(plans=_window_plans())
    def test_matches_per_cell_loop(self, plans):
        assert batch_dependencies(plans) == _per_cell_dependencies(plans)


class TestDegenerateWindows:
    """Window size 1 is the barrier scheduler, byte for byte."""

    def test_window_one_serves_one_batch_per_call(
        self, build_serving_planner, serving_workload, sequential_oracle, monkeypatch
    ):
        """At ``pipeline_window=1`` every ``execute_window`` call carries
        exactly one batch, even with several batches pending."""
        planner = build_serving_planner()
        window_sizes = []
        execute_window = PooledBackend.execute_window

        def spy(self, batches, *args, **kwargs):
            window_sizes.append(len(batches))
            return execute_window(self, batches, *args, **kwargs)

        monkeypatch.setattr(PooledBackend, "execute_window", spy)
        with simulated_service(planner, pool_size=2) as service:
            tickets = [service.submit(chunk) for chunk in _chunks(serving_workload, 4)]
            responses = [r for t in tickets for r in service.results(t)]
        assert window_sizes == [1] * len(tickets)
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    def test_single_pending_batch_skips_the_window_path(
        self, build_serving_planner, serving_workload
    ):
        """Even with a window configured, a lone pending batch is a
        one-batch window: nothing to overlap, so no window is counted."""
        planner = build_serving_planner()
        with simulated_service(planner, pool_size=2, pipeline_window=4) as service:
            responses = service.results(service.submit(serving_workload[:24]))
        assert len(responses) == 24
        assert service.statistics()["pipeline"]["windows"] == 0

    def test_empty_batch_counts_the_same_at_every_window(
        self, build_serving_planner, serving_workload
    ):
        """An empty batch is a batch whatever the window size: it advances
        the tenant's batch count alike at windows 1 and 4."""
        counts = {}
        for window in (1, 4):
            planner = build_serving_planner()
            with simulated_service(planner, pool_size=2, pipeline_window=window) as service:
                batches = [serving_workload[:10], [], serving_workload[10:20]]
                tickets = [service.submit(batch) for batch in batches]
                sizes = [len(service.results(ticket)) for ticket in tickets]
                counts[window] = service.backend.counters.breakdown(DEFAULT_TENANT)["batches"]
            assert sizes == [10, 0, 10]
        assert counts[1] == counts[4] == 3

    @needs_fork
    def test_lone_batches_on_forked_pool_count_no_windows(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """A lone batch on a real pool is a one-batch window: served by the
        window dispatcher, yet counted in no window-structure statistic."""
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
        """Every batch touching the same od cells: planned apart, each
        shard would wait on the immediately preceding batch.  Planned as
        one window, each repeat shares a shard with its first occurrence,
        runs after it in submission order and is served from the truth it
        just recorded — no shard waits on another."""
        planner = build_serving_planner()
        repeated = serving_workload[:12]
        plans = [planner.shard_plan(repeated, 2) for _ in range(4)]
        deps = batch_dependencies(plans)
        assert all(dep == batch_index - 1 for batch_index, batch_deps
                   in enumerate(deps) if batch_index for dep in batch_deps)

        oracle_planner = build_serving_planner()
        oracle = [
            recommendation_fingerprint(result)
            for _ in range(4)
            for result in oracle_planner.recommend_batch(list(repeated))
        ]
        with simulated_service(planner, pool_size=2, pipeline_window=4) as service:
            tickets = [service.submit(list(repeated)) for _ in range(4)]
            responses = [r for t in tickets for r in service.results(t)]
            pipeline = service.statistics()["pipeline"]
        assert _fingerprints(responses) == oracle
        # The first batch computes, the repeats reuse its truths.
        assert all(r.method == "truth_reuse" for r in responses[len(repeated):])
        assert pipeline["cross_batch_edges"] == 0
        assert 0 < pipeline["dispatch_units"] <= 2
        for position, response in enumerate(responses[len(repeated):]):
            first = responses[position % len(repeated)]
            assert response.provenance.shard_id == first.provenance.shard_id


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
        """Two closure-disjoint batches genuinely overlap: the window's one
        plan has a shard per batch, both dispatched at once to different
        workers, and neither waits on the other's merge."""
        planner = build_serving_planner()
        survey = planner.shard_plan(serving_workload, 16)
        # Two single-component shards with disjoint expanded closures:
        # planned together at pool size 2 they stay two shards, one per
        # batch.
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
            served = [service.results(t) for t in tickets]
            stats = service.statistics()
        assert _fingerprints([r for batch in served for r in batch]) == oracle
        pipeline = stats["pipeline"]
        assert pipeline["windows"] == 1
        assert pipeline["dispatch_units"] == pipeline["independent_shards"] == 2
        assert pipeline["cross_batch_edges"] == pipeline["overlapped_dispatches"] == 0
        shards, pids = (
            [{getattr(r.provenance, field) for r in batch} for batch in served]
            for field in ("shard_id", "worker_pid")
        )
        assert all(len(ids) == 1 for ids in shards + pids)
        assert shards[0] != shards[1] and pids[0] != pids[1]


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
        real_execute = worker.execute_shard

        def failing_execute(base, job):
            if poisoned & set(job.queries):
                raise RuntimeError("transient shard failure")
            return real_execute(base, job)

        monkeypatch.setattr(worker, "execute_shard", failing_execute)
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
        real_execute = service_module.execute_shard

        def failing_execute(base, job):
            if any(id(query) in poisoned for query in job.queries):
                raise RuntimeError("injected shard execution failure")
            return real_execute(base, job)

        monkeypatch.setattr(service_module, "execute_shard", failing_execute)
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
