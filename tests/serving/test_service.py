"""RecommendationService contract and lifecycle tests.

The acceptance gate of the API redesign: for backends {inline, pooled},
pool sizes {1, 2, 4} and multiple submission interleavings, the service's
concatenated responses (and the planner's post-batch state) are
fingerprint-identical to the sequential oracle.  Lifecycle coverage: the
persistent pool reuses workers across batches without re-forking, a worker
crash resubmits its shards to a healthy worker, close()/context-manager
shutdown, double collection, and the bounded submission queue.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.config import ServiceConfig
from repro.core.planner import QueryShard, ShardPlan
from repro.exceptions import ServingError
from repro.routing.base import RouteQuery
from repro.serving import (
    InlineBackend,
    PooledBackend,
    RecommendationService,
    WorkspaceService,
    recommendation_fingerprint,
)

from .sim_pool import SimulatedPool, simulated_service

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")


def _service(planner, backend_name, pool_size=2, **overrides):
    config = ServiceConfig.from_planner_config(
        planner.config, backend=backend_name, pool_size=pool_size, **overrides
    )
    return RecommendationService(planner, config)


def _fingerprints(responses):
    return [recommendation_fingerprint(response.result) for response in responses]


def _chunks(workload, count=3):
    size = (len(workload) + count - 1) // count
    return [workload[start:start + size] for start in range(0, len(workload), size)]


def _run_interleaving(service, workload, interleaving):
    """Drive the workload through the service under a named interleaving."""
    if interleaving == "single_ticket":
        return service.results(service.submit(workload))
    if interleaving == "chunked_out_of_order":
        tickets = [service.submit(chunk) for chunk in _chunks(workload)]
        # Redeem out of submission order: execution order must not change.
        collected = {t.ticket_id: service.results(t) for t in reversed(tickets)}
        return [response for t in tickets for response in collected[t.ticket_id]]
    if interleaving == "stream":
        return list(service.stream(workload, batch_size=48))
    raise AssertionError(f"unknown interleaving {interleaving!r}")


class TestServiceContract:
    """Fingerprint parity across backends, pool sizes and interleavings."""

    @pytest.mark.parametrize("interleaving", ["single_ticket", "chunked_out_of_order"])
    @pytest.mark.parametrize("pool_size", [1, 2, 4])
    def test_pooled_matches_sequential(
        self, build_serving_planner, serving_workload, sequential_oracle, pool_size, interleaving
    ):
        planner = build_serving_planner()
        with _service(planner, "pooled", pool_size) as service:
            responses = _run_interleaving(service, serving_workload, interleaving)
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    @pytest.mark.parametrize("interleaving", ["single_ticket", "chunked_out_of_order", "stream"])
    def test_inline_matches_sequential(
        self, build_serving_planner, serving_workload, sequential_oracle, interleaving
    ):
        planner = build_serving_planner()
        with _service(planner, "inline") as service:
            responses = _run_interleaving(service, serving_workload, interleaving)
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    def test_pooled_stream_dominant_workload(
        self, build_serving_planner, dominant_workload, sequential_oracle
    ):
        planner = build_serving_planner()
        with _service(planner, "pooled", 2) as service:
            responses = list(service.stream(dominant_workload, batch_size=40))
        assert _fingerprints(responses) == sequential_oracle["dominant"]["fingerprints"]

    def test_truth_store_parity(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        planner = build_serving_planner()
        with _service(planner, "pooled", 4) as service:
            service.results(service.submit(serving_workload))
        merged = [
            (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
            for t in planner.truths.all()
        ]
        assert merged == sequential_oracle["plain"]["truths"]

    @pytest.mark.parametrize("max_shard_fraction", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("pool_size", [1, 2, 4])
    @pytest.mark.parametrize("forked", [False, True])
    def test_hotspot_split_matches_sequential(
        self,
        build_serving_planner,
        dominant_workload,
        sequential_oracle,
        max_shard_fraction,
        pool_size,
        forked,
    ):
        """The hotspot matrix: every splitting level is observationally
        invisible — fingerprints, statistics and the merged truth store all
        equal the sequential oracle, forked pool and simulated pool alike."""
        if forked and not HAS_FORK:
            pytest.skip("platform has no fork start method")
        config = ServiceConfig(pool_size=pool_size, max_shard_fraction=max_shard_fraction)
        planner = build_serving_planner()
        backend = PooledBackend(config) if forked else SimulatedPool(config)
        with RecommendationService(planner, backend=backend) as service:
            responses = service.results(service.submit(dominant_workload))
        oracle = sequential_oracle["dominant"]
        assert _fingerprints(responses) == oracle["fingerprints"]
        assert planner.statistics.as_dict() == oracle["statistics"]
        merged = [
            (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
            for t in planner.truths.all()
        ]
        assert merged == oracle["truths"]

    def test_request_envelopes_carry_queries_and_provenance(
        self, build_serving_planner, serving_workload
    ):
        planner = build_serving_planner()
        with _service(planner, "pooled", 2) as service:
            responses = service.results(service.submit(serving_workload[:24]))
        assert [r.request.query for r in responses] == serving_workload[:24]
        assert [r.request.request_id for r in responses] == list(range(1, 25))
        for response in responses:
            assert response.provenance.backend == "pooled"
            assert response.provenance.batch_size == 24
            assert response.provenance.truth_reused == (response.method == "truth_reuse")
            assert response.provenance.timings.total_s >= 0.0
            if HAS_FORK:
                assert response.provenance.shard_id is not None
                assert response.provenance.worker_pid is not None


@needs_fork
class TestPersistentPool:
    """Acceptance: workers are reused across >= 3 batches without re-forking."""

    def test_worker_pids_stable_across_batches(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        batches = _chunks(serving_workload, 4)
        with _service(planner, "pooled", 2) as service:
            pids_per_batch = []
            warm_per_batch = []
            for batch in batches:
                responses = service.results(service.submit(batch))
                # Settled truth reuses are answered by the parent itself.
                in_parent = [r for r in responses if r.provenance.worker_pid == os.getpid()]
                assert all(r.provenance.truth_reused for r in in_parent)
                pids_per_batch.append({r.provenance.worker_pid for r in responses} - {os.getpid()})
                warm_per_batch.append(all(r.provenance.warm_pool for r in responses))
            pool_pids = set(service.worker_pids())
        assert len(batches) >= 3
        assert len(pool_pids) == 2
        for pids in pids_per_batch:
            assert pids <= pool_pids  # every worker answer came from the original workers
        assert set().union(*pids_per_batch) == pool_pids
        assert warm_per_batch[0] is False  # the pool forks on the first batch
        assert all(warm_per_batch[1:])     # and is never re-forked afterwards
        assert os.getpid() not in pool_pids

    def test_repeat_batch_served_from_warm_truths(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        with _service(planner, "pooled", 2) as service:
            service.results(service.submit(serving_workload))
            repeat = service.results(service.submit(serving_workload))
        assert all(response.method == "truth_reuse" for response in repeat)
        assert all(response.provenance.truth_reused for response in repeat)

    def test_repeat_batch_is_settled_without_a_dispatch(
        self, build_serving_planner, serving_workload
    ):
        """A batch the parent's store already answers whole is settled in
        the parent: no unit reaches the pool."""
        planner = build_serving_planner()
        with _service(planner, "pooled", 2) as service:
            service.results(service.submit(serving_workload))
            before = service.statistics()["pipeline"]
            repeat = service.results(service.submit(serving_workload))
            after = service.statistics()["pipeline"]
        assert after["dispatch_units"] == before["dispatch_units"]
        assert after["settled_queries"] - before["settled_queries"] == len(serving_workload)
        assert {r.provenance.worker_pid for r in repeat} == {os.getpid()}
        assert not any(r.provenance.resubmitted for r in repeat)

    def test_explicit_plan_on_forked_pool(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """A substituted shard plan on the pool: shards follow the given
        regrouping of whole components, and answers stay the sequential
        oracle's."""
        planner = build_serving_planner()
        atomic = planner.shard_plan(serving_workload, shards=len(serving_workload))
        groups = [atomic.shards[start::3] for start in range(3)]
        plan = ShardPlan(
            shards=tuple(
                QueryShard(
                    shard_id=shard_id,
                    indices=tuple(sorted(i for s in members for i in s.indices)),
                    destination_cells=frozenset().union(*(s.destination_cells for s in members)),
                    components=sum(s.components for s in members),
                )
                for shard_id, members in enumerate(groups)
            ),
            num_queries=atomic.num_queries,
            interaction_radius_m=atomic.interaction_radius_m,
            cell_size_m=atomic.cell_size_m,
            cell_reach=atomic.cell_reach,
        )
        assert len(atomic.shards) >= 3
        expected_shard = {i: shard.shard_id for shard in plan.shards for i in shard.indices}
        planner.shard_plan = lambda queries, shards: plan
        with _service(planner, "pooled", 2) as service:
            responses = service.recommend_batch(serving_workload)
            pool_pids = set(service.worker_pids())
        assert len(pool_pids) == 2
        assert [r.provenance.shard_id for r in responses] == [
            expected_shard[i] for i in range(len(serving_workload))
        ]
        assert {r.provenance.worker_pid for r in responses} <= pool_pids
        assert _fingerprints(responses) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]


@needs_fork
class TestCrashRecovery:
    @staticmethod
    def _wait_dead(pid):
        # SIGKILL delivery is near-immediate; the killed child stays a
        # zombie (still visible to ``os.kill(pid, 0)``) until the backend's
        # next ``is_alive`` check reaps it, so a short fixed grace period is
        # the right wait here.
        time.sleep(0.2)

    def test_dead_worker_respawned_in_place(
        self, build_serving_planner, serving_workload, sequential_oracle
    ):
        """The default policy re-forks one replacement per dead worker."""
        planner = build_serving_planner()
        batches = _chunks(serving_workload, 4)
        collected = []
        with _service(planner, "pooled", 2) as service:
            collected.extend(service.results(service.submit(batches[0])))
            victim, survivor = service.worker_pids()
            os.kill(victim, signal.SIGKILL)
            self._wait_dead(victim)
            for batch in batches[1:]:
                collected.extend(service.results(service.submit(batch)))
            pids = service.worker_pids()
            # Capacity restored by one freshly forked worker; the survivor
            # (and its warm truth state) kept serving throughout.
            assert len(pids) == 2
            assert survivor in pids
            assert victim not in pids
            served_pids = {r.provenance.worker_pid for r in collected}
            assert set(pids) <= served_pids  # the replacement did real work
            assert all(r.provenance.warm_pool for r in collected[len(batches[0]):])
        assert _fingerprints(collected) == sequential_oracle["plain"]["fingerprints"]
        assert planner.statistics.as_dict() == sequential_oracle["plain"]["statistics"]

    def test_respawned_worker_holds_current_truth_state(
        self, build_serving_planner, serving_workload
    ):
        """A replacement forked mid-session serves repeats from warm truths."""
        planner = build_serving_planner()
        with _service(planner, "pooled", 2) as service:
            service.results(service.submit(serving_workload))
            victim = service.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            self._wait_dead(victim)
            repeat = service.results(service.submit(serving_workload))
            assert len(service.worker_pids()) == 2
        # Every repeat answer comes straight from the truth store the
        # replacement inherited at its fork.
        assert all(response.method == "truth_reuse" for response in repeat)

    def test_whole_pool_crash_reforks(self, build_serving_planner, serving_workload, sequential_oracle):
        planner = build_serving_planner()
        first, second = serving_workload[:80], serving_workload[80:]
        with _service(planner, "pooled", 2) as service:
            before = _fingerprints(service.results(service.submit(first)))
            old_pids = service.worker_pids()
            for pid in old_pids:
                os.kill(pid, signal.SIGKILL)
            for pid in old_pids:
                self._wait_dead(pid)
            after = _fingerprints(service.results(service.submit(second)))
            new_pids = service.worker_pids()
        assert before + after == sequential_oracle["plain"]["fingerprints"]
        assert new_pids and not set(new_pids) & set(old_pids)


class TestLifecycle:
    def test_close_refuses_further_calls(self, build_serving_planner, serving_workload):
        service = _service(build_serving_planner(), "inline")
        ticket = service.submit(serving_workload[:4])
        service.close()
        assert service.closed
        with pytest.raises(ServingError):
            service.submit(serving_workload[:4])
        with pytest.raises(ServingError):
            service.results(ticket)
        service.close()  # idempotent

    def test_context_manager_closes_pool(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        with _service(planner, "pooled", 2) as service:
            service.results(service.submit(serving_workload[:20]))
            pids = service.worker_pids()
        assert service.closed
        assert service.worker_pids() == []
        if HAS_FORK:
            for pid in pids:
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail(f"pool worker {pid} survived close()")

    def test_double_collect_raises(self, build_serving_planner, serving_workload):
        with _service(build_serving_planner(), "inline") as service:
            ticket = service.submit(serving_workload[:6])
            assert len(service.results(ticket)) == 6
            with pytest.raises(ServingError):
                service.results(ticket)

    def test_unknown_ticket_raises(self, build_serving_planner):
        with _service(build_serving_planner(), "inline") as service:
            with pytest.raises(ServingError):
                service.results(999)

    def test_submission_queue_bound(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        with _service(planner, "inline", max_pending_batches=2) as service:
            first = service.submit(serving_workload[:4])
            service.submit(serving_workload[4:8])
            with pytest.raises(ServingError):
                service.submit(serving_workload[8:12])
            # Collecting drains the queue and frees capacity.
            service.results(first)
            service.submit(serving_workload[8:12])

    def test_rejected_submit_does_not_consume_queries(
        self, build_serving_planner, serving_workload
    ):
        """A queue-full rejection must be side-effect-free: a generator
        passed to the refused submit stays intact for the retry."""
        with _service(build_serving_planner(), "inline", max_pending_batches=1) as service:
            service.submit(serving_workload[:4])
            source = iter(serving_workload[4:8])
            with pytest.raises(ServingError):
                service.submit(source)
            service.drain()
            assert service.submit(source).size == 4

    def test_nan_deadline_and_batch_size_rejected(self, build_serving_planner, serving_workload):
        """NaN fails every comparison, so it must fail validation too: a NaN
        deadline would never shed or breach, a NaN batch size would send a
        whole stream as one batch."""
        with _service(build_serving_planner(), "inline") as service:
            with pytest.raises(ServingError):
                service.submit(serving_workload[:4], deadline_s=float("nan"))
            with pytest.raises(ServingError):
                next(service.stream(serving_workload[:4], batch_size=float("nan")))

    def test_empty_batch(self, build_serving_planner):
        with _service(build_serving_planner(), "inline") as service:
            assert service.results(service.submit([])) == []

    def test_recommend_single_query(self, build_serving_planner, serving_workload):
        with _service(build_serving_planner(), "inline") as service:
            response = service.recommend(serving_workload[0])
        assert isinstance(response.query, RouteQuery)
        assert response.query == serving_workload[0]
        assert response.route is response.result.route

    def test_explicit_backend_instance(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        backend = SimulatedPool(ServiceConfig(pool_size=2))
        with RecommendationService(planner, backend=backend) as service:
            responses = service.results(service.submit(serving_workload[:20]))
        assert len(responses) == 20
        assert responses[0].provenance.backend == "pooled"

    def test_backend_failure_keeps_ticket_redeemable(
        self, build_serving_planner, serving_workload
    ):
        class FlakyBackend(InlineBackend):
            def __init__(self):
                super().__init__()
                self.fail_next = True

            def execute_window(self, batches):
                if self.fail_next:
                    self.fail_next = False
                    raise ServingError("transient backend failure")
                return super().execute_window(batches)

        planner = build_serving_planner()
        with RecommendationService(planner, backend=FlakyBackend()) as service:
            ticket = service.submit(serving_workload[:6])
            with pytest.raises(ServingError):
                service.results(ticket)
            # The batch stayed pending: the ticket is still redeemable.
            assert len(service.results(ticket)) == 6

    def test_backend_rebinding_rejected(self, build_serving_planner):
        backend = InlineBackend()
        RecommendationService(build_serving_planner(), backend=backend)
        # InlineBackend allows rebinding; PooledBackend does not.
        pooled = PooledBackend(ServiceConfig(pool_size=1))
        RecommendationService(build_serving_planner(), backend=pooled)
        with pytest.raises(ServingError):
            RecommendationService(build_serving_planner(), backend=pooled)


class TestStatisticsSurface:
    def test_same_keys_on_every_backend(self, build_serving_planner, serving_workload):
        """Inline, pooled and workspace services report the same groups and
        keys, so a dashboard reads one shape whatever serves it."""
        batch = list(serving_workload[:12])

        def key_sets(stats):
            return {group: set(values) for group, values in stats.items()}

        surfaces = {}
        with _service(build_serving_planner(), "inline") as service:
            service.results(service.submit(batch))
            surfaces["inline"] = key_sets(service.statistics())
        with simulated_service(build_serving_planner(), pool_size=2) as service:
            service.results(service.submit(batch))
            surfaces["pooled"] = key_sets(service.statistics())
        template = build_serving_planner()
        config = ServiceConfig.from_planner_config(template.config, backend="pooled", pool_size=2)
        pool = SimulatedPool(config)
        with WorkspaceService(template, config=config, pool=pool) as workspaces:
            workspace = workspaces.create_workspace("alpha")
            workspace.results(workspace.submit(batch))
            surfaces["workspace"] = key_sets(workspace.statistics())
        assert surfaces["inline"] == surfaces["pooled"] == surfaces["workspace"]
        assert {"planner", "supervision", "pipeline", "sharding", "resilience"} == set(
            surfaces["inline"]
        )


@pytest.mark.property
@pytest.mark.slow
class TestInterleavingProperty:
    """Hypothesis: *any* chunking of the stream into tickets, redeemed in any
    order, over any pool size and pipeline window, reproduces the sequential
    oracle exactly."""

    def test_random_interleavings(
        self, build_serving_planner, serving_workload, dominant_workload, sequential_oracle
    ):
        from hypothesis import given, settings, strategies as st

        workloads = {"plain": serving_workload, "dominant": dominant_workload}

        @settings(max_examples=10, deadline=None)
        @given(
            workload_name=st.sampled_from(["plain", "dominant"]),
            pool_size=st.integers(min_value=1, max_value=4),
            pipeline_window=st.integers(min_value=1, max_value=4),
            chunk_seed=st.integers(min_value=0, max_value=2**16),
        )
        def check(workload_name, pool_size, pipeline_window, chunk_seed):
            import random

            workload = workloads[workload_name]
            rng = random.Random(chunk_seed)
            chunks = []
            position = 0
            while position < len(workload):
                size = rng.randint(1, 64)
                chunks.append(workload[position:position + size])
                position += size
            planner = build_serving_planner()
            # The simulated pool keeps the property sweep affordable; the
            # forked path is covered by the parametrised contract tests.
            with simulated_service(
                planner, seed=chunk_seed, pool_size=pool_size, pipeline_window=pipeline_window
            ) as service:
                tickets = [service.submit(chunk) for chunk in chunks]
                order = list(range(len(tickets)))
                rng.shuffle(order)
                collected = {}
                for position in order:
                    collected[position] = service.results(tickets[position])
            responses = [r for position in range(len(tickets)) for r in collected[position]]
            assert _fingerprints(responses) == sequential_oracle[workload_name]["fingerprints"]
            assert planner.statistics.as_dict() == sequential_oracle[workload_name]["statistics"]

        check()
