"""Worker-supervision coverage: hangs, desyncs, breakers, shutdown.

Every test holds the serving correctness contract — whatever the supervisor
had to do, redeemed fingerprints equal the sequential oracle's — while
asserting the supervision *observability*: provenance flags, aggregate
counters, restored capacity.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.config import ServiceConfig
from repro.serving import RecommendationService, recommendation_fingerprint
from repro.serving.service import PooledBackend

from .faults import FAST_SUPERVISION, FaultInjectingBackend

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")

pytestmark = [needs_fork, pytest.mark.chaos]


def _fingerprints(responses):
    return [recommendation_fingerprint(response.result) for response in responses]


def _service(build_serving_planner, backend):
    planner = build_serving_planner()
    return RecommendationService(planner, backend=backend), planner


@pytest.fixture
def oracle(sequential_oracle):
    return sequential_oracle["plain"]["fingerprints"]


class TestHungWorkerDetection:
    def test_sigstopped_worker_is_declared_dead_within_deadline(
        self, build_serving_planner, serving_workload, oracle
    ):
        """The fast-tier smoke case of the acceptance criteria: a SIGSTOP'd
        worker (alive but silent) is killed within the RPC deadline and its
        shards complete elsewhere with results unchanged."""
        backend = PooledBackend(ServiceConfig(pool_size=2, **FAST_SUPERVISION))
        service, planner = _service(build_serving_planner, backend)
        with service:
            produced = _fingerprints(service.results(service.submit(list(serving_workload[:8]))))
            victim = service.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            started = time.monotonic()
            produced += _fingerprints(
                service.results(service.submit(list(serving_workload[8:])))
            )
            elapsed = time.monotonic() - started
            stats = service.statistics()["supervision"]
            assert produced == oracle
            assert stats["hung_workers_killed"] >= 1
            assert stats["resubmitted_shards"] >= 1
            # Detection cost is bounded by the deadline (plus real work),
            # not by "wait forever": generous margin, but it must not hang.
            assert elapsed < 30.0
            # Mid-batch respawn restored full capacity before the batch edge.
            assert len(service.worker_pids()) == 2
            assert victim not in service.worker_pids()

    def test_hung_worker_marks_resubmitted_provenance(
        self, build_serving_planner, serving_workload, oracle
    ):
        backend = FaultInjectingBackend(schedule={0: "hang"}, pool_size=2)
        service, _ = _service(build_serving_planner, backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:64])))
            assert _fingerprints(responses) == oracle[:64]
            flagged = [r for r in responses if r.provenance.resubmitted]
            assert flagged, "no response carries the resubmitted flag"
            assert all(r.provenance.respawn_count >= 1 for r in responses)
            healthy = [r for r in responses if not r.provenance.resubmitted]
            assert all(r.provenance.respawn_count == responses[0].provenance.respawn_count
                       for r in healthy)
            assert service.statistics()["supervision"]["resubmitted_results"] == len(flagged)

    def test_dropped_dispatch_is_recovered_as_hang(
        self, build_serving_planner, serving_workload, oracle
    ):
        # A lost run message leaves the worker idle (and silent: idle workers
        # do not heartbeat) — only the deadline can catch this.
        backend = FaultInjectingBackend(schedule={1: "drop"}, pool_size=2)
        service, _ = _service(build_serving_planner, backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:64])))
            assert _fingerprints(responses) == oracle[:64]
            assert service.statistics()["supervision"]["hung_workers_killed"] >= 1

    def test_delayed_dispatch_needs_no_supervision(
        self, build_serving_planner, serving_workload, oracle
    ):
        backend = FaultInjectingBackend(schedule={0: "delay", 2: "delay"}, pool_size=2)
        service, _ = _service(build_serving_planner, backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:64])))
            assert _fingerprints(responses) == oracle[:64]
            stats = service.statistics()["supervision"]
            assert stats["hung_workers_killed"] == 0
            assert stats["resubmitted_shards"] == 0
            assert all(not r.provenance.resubmitted for r in responses)


class TestDesyncRespawn:
    def test_desynced_worker_is_reforked_immediately(
        self, build_serving_planner, serving_workload, oracle
    ):
        backend = FaultInjectingBackend(schedule={0: "desync"}, pool_size=2)
        service, _ = _service(build_serving_planner, backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:64])))
            assert _fingerprints(responses) == oracle[:64]
            stats = service.statistics()["supervision"]
            assert stats["respawns"] >= 1
            assert stats["resubmitted_shards"] >= 1
            # One batch only — a full 2-worker pool right now proves the
            # replacement was forked mid-batch, not at the next batch edge.
            assert len(service.worker_pids()) == 2


class TestCircuitBreaker:
    def test_pool_loss_with_breaker_open_degrades_inline(
        self, build_serving_planner, serving_workload, oracle
    ):
        backend = FaultInjectingBackend(
            schedule={0: "kill_before", 1: "kill_before"},
            pool_size=2,
            max_respawns_per_batch=0,
        )
        service, _ = _service(build_serving_planner, backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:64])))
            assert _fingerprints(responses) == oracle[:64]
            stats = service.statistics()["supervision"]
            assert stats["degraded_batches"] == 1
            assert stats["respawns"] == 0
            # The ticket was served even though every worker was lost.
            parent = os.getpid()
            assert {r.provenance.worker_pid for r in responses if r.provenance.resubmitted} \
                   <= {parent}

    def test_breaker_budget_bounds_respawns(
        self, build_serving_planner, serving_workload, oracle
    ):
        # Four crashes against a budget of 1: exactly one respawn happens,
        # and the batch still completes correctly (inline if need be).
        backend = FaultInjectingBackend(
            schedule={0: "kill_after", 1: "kill_after", 2: "kill_after", 3: "kill_after"},
            pool_size=2,
            max_respawns_per_batch=1,
        )
        service, _ = _service(build_serving_planner, backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:64])))
            assert _fingerprints(responses) == oracle[:64]
            assert service.statistics()["supervision"]["respawns"] <= 1

    def test_next_batch_restores_capacity_after_degradation(
        self, build_serving_planner, serving_workload, oracle
    ):
        backend = FaultInjectingBackend(
            schedule={0: "kill_before", 1: "kill_before"},
            pool_size=2,
            max_respawns_per_batch=0,
        )
        service, _ = _service(build_serving_planner, backend)
        with service:
            produced = _fingerprints(service.results(service.submit(list(serving_workload[:64]))))
            # The breaker resets at the batch edge: the next batch re-forks a
            # fresh pool and serves on it.
            produced += _fingerprints(service.results(service.submit(list(serving_workload[64:]))))
            assert produced == oracle
            assert len(service.worker_pids()) == 2


class TestShutdownEscalation:
    def test_close_escalates_past_a_sigstopped_worker(
        self, build_serving_planner, serving_workload
    ):
        """Satellite fix: a wedged worker must not hang interpreter shutdown.
        SIGTERM stays pending on a SIGSTOP'd process, so close() must
        escalate to SIGKILL."""
        backend = PooledBackend(ServiceConfig(pool_size=2, **FAST_SUPERVISION))
        service, _ = _service(build_serving_planner, backend)
        service.results(service.submit(list(serving_workload[:8])))
        pids = service.worker_pids()
        os.kill(pids[0], signal.SIGSTOP)
        started = time.monotonic()
        service.close()
        assert time.monotonic() - started < 10.0
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.kill(pids[0], 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - diagnostic path
            os.kill(pids[0], signal.SIGKILL)
            pytest.fail("SIGSTOP'd worker survived close()")
