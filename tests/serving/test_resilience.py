"""Graceful-degradation coverage: hedges, admission control, degrade ladder.

Three traffic-shaped failure modes, one contract: whatever the resilience
layer had to do — speculatively duplicate a straggler's shard, shed a
submission at admission, or suspend a journal on a dying disk — redeemed
fingerprints stay bit-identical to the sequential oracle, and every action
is observable in ``service.statistics()["resilience"]``.
"""

from __future__ import annotations

import dataclasses
import errno
import multiprocessing
import time
import warnings

import pytest

from repro.config import ServiceConfig
from repro.exceptions import JournalError, OverloadError, ServingError
from repro.serving import RecommendationService, recommendation_fingerprint
from repro.serving.tenancy import WorkspaceService

from .faults import FaultInjectingBackend, break_journal_disk

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")

RESILIENCE_KEYS = {
    "hedges_issued",
    "hedges_won",
    "hedges_wasted",
    "stragglers_killed",
    "sheds",
    "deadline_breaches",
    "journal_suspended",
}


def _fingerprints(responses):
    return [recommendation_fingerprint(response.result) for response in responses]


def _inline_config(planner, **overrides) -> ServiceConfig:
    config = ServiceConfig.from_planner_config(planner.config)
    return dataclasses.replace(config, backend="inline", **overrides)


@pytest.fixture
def oracle(sequential_oracle):
    return sequential_oracle["plain"]["fingerprints"]


# ------------------------------------------------------------ hedged execution
@needs_fork
@pytest.mark.chaos
class TestHedgedExecution:
    def test_slow_worker_without_hedging_stalls_but_stays_correct(
        self, build_serving_planner, serving_workload, oracle
    ):
        """Baseline for the straggler gap: a slow-but-heartbeating worker is
        never declared hung, so the batch rides the stall out — correctly,
        just slowly."""
        backend = FaultInjectingBackend(
            schedule={0: "slow"}, pool_size=2, slow_total_s=1.0
        )
        service = RecommendationService(build_serving_planner(), backend=backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:32])))
            assert _fingerprints(responses) == oracle[:32]
            stats = service.statistics()
            assert stats["supervision"]["hung_workers_killed"] == 0
            assert stats["resilience"]["hedges_issued"] == 0

    def test_hedge_absorbs_straggler(
        self, build_serving_planner, serving_workload, oracle
    ):
        """With ``hedge_after_s`` set, the straggler's shard is re-dispatched
        to an idle worker and the duplicate's outcome is discarded — results
        identical, the stall not load-bearing."""
        backend = FaultInjectingBackend(
            schedule={0: "slow"},
            pool_size=2,
            hedge_after_s=0.15,
            # Stalled far longer than the healthy worker needs to drain the
            # queue and run the hedge: the hedge must be issued and must win.
            # A ~3% duty cycle: a 16-query shard costs only tens of ms of
            # CPU, so the crawler must not reach a run slice before ~0.3 s.
            slow_total_s=6.0,
            slow_stop_s=0.3,
            slow_run_s=0.01,
        )
        service = RecommendationService(build_serving_planner(), backend=backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:32])))
            assert _fingerprints(responses) == oracle[:32]
            resilience = service.statistics()["resilience"]
            assert resilience["hedges_issued"] >= 1
            # Stopped ~3s against a 0.15s budget: the hedge must win.
            assert resilience["hedges_won"] >= 1
            # The crawler is not hung (it heartbeats in its run slices), so
            # the hang supervisor stayed out of it.
            assert service.statistics()["supervision"]["hung_workers_killed"] == 0

    def test_every_hedge_race_resolves(
        self, build_serving_planner, serving_workload, oracle
    ):
        """A short stall makes the race genuinely uncertain; whoever wins
        (or whether a hedge was even needed), every issued hedge is
        accounted won or wasted and fingerprints hold."""
        backend = FaultInjectingBackend(
            schedule={1: "slow"},
            pool_size=2,
            hedge_after_s=0.1,
            slow_total_s=1.0,
        )
        service = RecommendationService(build_serving_planner(), backend=backend)
        with service:
            responses = service.results(service.submit(list(serving_workload[:32])))
            assert _fingerprints(responses) == oracle[:32]
            resilience = service.statistics()["resilience"]
            assert (
                resilience["hedges_won"] + resilience["hedges_wasted"]
                == resilience["hedges_issued"]
            )

    def test_hedged_window_matches_oracle(
        self, build_serving_planner, serving_workload, oracle
    ):
        """The window dispatcher hedges too: a straggler inside a pipelined
        window is absorbed without perturbing the strict merge order."""
        planner = build_serving_planner()
        config = dataclasses.replace(
            ServiceConfig.from_planner_config(planner.config),
            backend="pooled",
            pool_size=2,
            pipeline_window=3,
        )
        backend = FaultInjectingBackend(
            schedule={1: "slow"},
            pool_size=2,
            hedge_after_s=0.15,
            slow_total_s=6.0,
        )
        service = RecommendationService(planner, config=config, backend=backend)
        with service:
            tickets = [
                service.submit(list(serving_workload[start : start + 16]))
                for start in (0, 16, 32)
            ]
            produced = []
            for ticket in tickets:
                produced.extend(_fingerprints(service.results(ticket)))
            assert produced == oracle[:48]
            assert service.statistics()["resilience"]["hedges_issued"] >= 1

    def test_lame_loser_is_killed_after_deadline(
        self, build_serving_planner, serving_workload, oracle
    ):
        """A hedge loser that never drains its stale reply is killed once it
        breaches ``rpc_deadline_s`` on top of losing the race."""
        backend = FaultInjectingBackend(
            schedule={0: "slow"},
            pool_size=2,
            hedge_after_s=0.1,
            # The loser stays stopped for its first 1.5 s, past the next
            # batch edge (~1.1 s after dispatch: the lame deadline is
            # ~0.8 s), so it cannot deliver its duplicate before the kill.
            # Run slices inside that span would let a shard needing only a
            # few ms of CPU finish and return the loser to service.  A lame
            # worker is past hang supervision, so its stops need not fit a
            # heartbeat.
            slow_total_s=8.0,
            slow_stop_s=1.5,
            slow_run_s=0.002,
        )
        service = RecommendationService(build_serving_planner(), backend=backend)
        with service:
            produced = _fingerprints(service.results(service.submit(list(serving_workload[:32]))))
            # Let the loser's (non-renewable) lame deadline lapse; the next
            # batch edge polls the lame set and fires the kill.
            time.sleep(0.9)
            produced += _fingerprints(service.results(service.submit(list(serving_workload[32:64]))))
            assert produced == oracle[:64]
            resilience = service.statistics()["resilience"]
            assert resilience["hedges_issued"] >= 1
            assert resilience["stragglers_killed"] >= 1


# ----------------------------------------------------------- admission control
class TestAdmissionControl:
    def test_queue_full_sheds_with_typed_error(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        service = RecommendationService(planner, config=_inline_config(planner, max_pending_batches=2))
        with service:
            service.submit(list(serving_workload[:4]))
            service.submit(list(serving_workload[4:8]))
            with pytest.raises(OverloadError):
                service.submit(list(serving_workload[8:12]))
            # OverloadError subclasses ServingError: pre-existing callers
            # catching the queue-full ServingError keep working.
            assert issubclass(OverloadError, ServingError)
            assert service.statistics()["resilience"]["sheds"] == 1

    def test_unmeetable_deadline_sheds_before_side_effects(
        self, build_serving_planner, serving_workload, oracle
    ):
        planner = build_serving_planner()
        service = RecommendationService(planner, config=_inline_config(planner))
        with service:
            # Seed the EWMA with one real batch.
            produced = _fingerprints(service.results(service.submit(list(serving_workload[:16]))))
            backlog = service.submit(list(serving_workload[16:32]))
            with pytest.raises(OverloadError):
                service.submit(list(serving_workload[32:48]), deadline_s=1e-9)
            assert service.statistics()["resilience"]["sheds"] == 1
            # Side-effect-free shed: the same queries resubmit cleanly and
            # the stream is exactly the oracle's.
            retry = service.submit(list(serving_workload[32:48]))
            produced += _fingerprints(service.results(backlog))
            produced += _fingerprints(service.results(retry))
            assert produced == oracle[:48]

    def test_admitted_deadline_breach_is_counted_not_fatal(
        self, build_serving_planner, serving_workload, oracle
    ):
        planner = build_serving_planner()
        service = RecommendationService(planner, config=_inline_config(planner))
        with service:
            # No EWMA yet, so admission cannot price the deadline: the batch
            # is admitted, runs to completion, and the breach is counted.
            ticket = service.submit(list(serving_workload[:16]), deadline_s=1e-6)
            assert _fingerprints(service.results(ticket)) == oracle[:16]
            resilience = service.statistics()["resilience"]
            assert resilience["deadline_breaches"] == 1
            assert resilience["sheds"] == 0

    def test_deadline_must_be_positive(self, build_serving_planner, serving_workload):
        planner = build_serving_planner()
        service = RecommendationService(planner, config=_inline_config(planner))
        with service:
            with pytest.raises(ServingError):
                service.submit(list(serving_workload[:4]), deadline_s=0.0)

    def test_statistics_resilience_shape(self, build_serving_planner):
        planner = build_serving_planner()
        service = RecommendationService(planner, config=_inline_config(planner))
        with service:
            resilience = service.statistics()["resilience"]
            assert set(resilience) == RESILIENCE_KEYS
            assert resilience["journal_suspended"] is False
            assert all(
                resilience[key] == 0 for key in RESILIENCE_KEYS - {"journal_suspended"}
            )


# ------------------------------------------------------------- degrade ladder
class TestJournalDegradeLadder:
    def _config(self, planner, tmp_path, **overrides) -> ServiceConfig:
        return _inline_config(
            planner,
            journal_path=str(tmp_path / "journal"),
            snapshot_every_truths=10_000,  # keep the ladder on the append path
            **overrides,
        )

    def test_raise_mode_surfaces_typed_journal_error(
        self, tmp_path, build_serving_planner, serving_workload
    ):
        planner = build_serving_planner()
        service = RecommendationService(planner, config=self._config(planner, tmp_path))
        with service:
            service.results(service.submit(list(serving_workload[:8])))
            break_journal_disk(service.journal, fail_at_append=0, error=errno.ENOSPC)
            with pytest.raises(JournalError):
                service.results(service.submit(list(serving_workload[8:16])))
            assert service.statistics()["resilience"]["journal_suspended"] is False

    def test_suspend_mode_keeps_serving_and_recovers_to_durable_prefix(
        self, tmp_path, build_serving_planner, serving_workload, oracle
    ):
        planner = build_serving_planner()
        config = self._config(planner, tmp_path, journal_on_error="suspend")
        service = RecommendationService(planner, config=config)
        with service:
            produced = _fingerprints(service.results(service.submit(list(serving_workload[:16]))))
            break_journal_disk(service.journal, fail_at_append=0, error=errno.EIO)
            with pytest.warns(RuntimeWarning, match="journal suspended"):
                produced += _fingerprints(
                    service.results(service.submit(list(serving_workload[16:32])))
                )
            # Degraded, still serving — and no second warning: the ladder
            # latches instead of re-tripping per batch.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                produced += _fingerprints(
                    service.results(service.submit(list(serving_workload[32:48])))
                )
            assert produced == oracle[:48]
            assert service.statistics()["resilience"]["journal_suspended"] is True

        # recover() replays to the last *durable* batch: exactly the one
        # appended before the disk died.  Re-serving from there reproduces
        # the oracle stream — the undurable batches were answered but lost,
        # as documented.
        fresh = build_serving_planner()
        recovered = RecommendationService.recover(
            fresh, config.journal_path, config=self._config(fresh, tmp_path)
        )
        with recovered:
            assert recovered.journal.batch_count == 1
            replayed = []
            for start in (16, 32):
                replayed.extend(
                    _fingerprints(
                        recovered.results(recovered.submit(list(serving_workload[start : start + 16])))
                    )
                )
            assert replayed == oracle[16:48]

    def test_fsync_stage_failure_takes_the_same_ladder(
        self, tmp_path, build_serving_planner, serving_workload, oracle
    ):
        planner = build_serving_planner()
        config = self._config(planner, tmp_path, journal_on_error="suspend")
        service = RecommendationService(planner, config=config)
        with service:
            service.results(service.submit(list(serving_workload[:8])))
            break_journal_disk(
                service.journal, fail_at_append=0, error=errno.EIO, fail_on="fsync"
            )
            with pytest.warns(RuntimeWarning, match="journal suspended"):
                responses = service.results(service.submit(list(serving_workload[8:16])))
            assert _fingerprints(responses) == oracle[8:16]
            assert service.statistics()["resilience"]["journal_suspended"] is True


# ------------------------------------------------------------ tenant fairness
class TestWorkspaceFairness:
    def _service(self, build_serving_planner) -> WorkspaceService:
        template = build_serving_planner()
        config = dataclasses.replace(
            ServiceConfig.from_planner_config(template.config),
            backend="inline",
            max_pending_batches=4,
        )
        return WorkspaceService(template, config=config)

    def test_pump_round_robins_one_batch_per_workspace(
        self, build_serving_planner, serving_workload
    ):
        with self._service(build_serving_planner) as service:
            alpha = service.create_workspace("alpha")
            beta = service.create_workspace("beta")
            tickets = {
                "alpha": [alpha.submit(list(serving_workload[:4])) for _ in range(2)],
                "beta": [beta.submit(list(serving_workload[:4])) for _ in range(2)],
            }
            assert service.pump() is True
            assert alpha.batches_executed == 1
            assert beta.batches_executed == 1
            assert service.pump() is True
            assert alpha.batches_executed == 2
            assert beta.batches_executed == 2
            assert service.pump() is False
            for workspace, names in ((alpha, "alpha"), (beta, "beta")):
                for ticket in tickets[names]:
                    assert len(workspace.results(ticket)) == 4

    def test_deep_backlog_cannot_starve_another_tenant(
        self, build_serving_planner, serving_workload
    ):
        with self._service(build_serving_planner) as service:
            hog = service.create_workspace("hog")
            small = service.create_workspace("small")
            for _ in range(4):
                hog.submit(list(serving_workload[:4]))
            small.submit(list(serving_workload[4:8]))
            # One fairness sweep: the single-batch tenant finishes its whole
            # backlog while the hog has advanced by exactly one batch.
            assert service.pump() is True
            assert small.batches_executed == 1
            assert hog.batches_executed == 1
            # And the hog's freed slot means its next admission succeeds
            # without waiting for its own backlog to drain fully.
            hog.submit(list(serving_workload[8:12]))
            service.drain_fair()
            assert hog.batches_executed == 5
            assert small.batches_executed == 1

    def test_drain_fair_is_fingerprint_identical_to_sequential_drain(
        self, build_serving_planner, serving_workload, oracle
    ):
        with self._service(build_serving_planner) as service:
            workspaces = [service.create_workspace(name) for name in ("a", "b", "c")]
            tickets = []
            for start in (0, 16, 32):
                for workspace in workspaces:
                    tickets.append(
                        (workspace, workspace.submit(list(serving_workload[start : start + 16])))
                    )
            service.drain_fair()
            for workspace, ticket in tickets:
                assert workspace.batches_executed == 3
            # Isolation contract: every workspace saw the same query stream,
            # so each one's full stream equals the oracle prefix.
            streams = {workspace.name: [] for workspace in workspaces}
            for workspace, ticket in tickets:
                streams[workspace.name].extend(_fingerprints(workspace.results(ticket)))
            for stream in streams.values():
                assert stream == oracle[:48]

    def test_workspace_submit_passes_deadline_through(
        self, build_serving_planner, serving_workload
    ):
        with self._service(build_serving_planner) as service:
            workspace = service.create_workspace("alpha")
            workspace.results(workspace.submit(list(serving_workload[:4])))
            for _ in range(3):
                workspace.submit(list(serving_workload[:4]))
            with pytest.raises(OverloadError):
                workspace.submit(list(serving_workload[:4]), deadline_s=1e-9)
            assert workspace.statistics()["resilience"]["sheds"] == 1
