"""Tunable parameters of the CrowdPlanner system.

The paper names several thresholds (``eta`` for the automatic-answer
confidence, ``eta_time`` for response-time eligibility, ``eta_dis`` for the
knowledge radius, ``eta_#q`` for the per-worker task quota, the familiarity
smoothing ``alpha`` and wrong-answer gain ``beta``).  They are collected here
in one frozen dataclass so experiments can sweep them explicitly instead of
scattering magic numbers through the code base.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from .exceptions import ConfigurationError


@dataclass(frozen=True)
class PlannerConfig:
    """Configuration of the end-to-end CrowdPlanner pipeline.

    Attributes
    ----------
    confidence_threshold:
        ``eta`` in the paper — minimum confidence score for the traditional
        route-recommendation (TR) module to answer automatically without
        crowdsourcing.
    agreement_threshold:
        Minimum pairwise route similarity for the TR module to declare that
        candidate routes "agree with each other to a high degree" and store
        one as truth immediately.
    truth_reuse_radius_m:
        Maximum distance (metres) between a request endpoint and a stored
        truth endpoint for the truth to be reused.
    truth_time_slot_minutes:
        Width of the departure-time slot attached to each verified truth.
    min_landmark_set_size_slack:
        Extra landmarks (beyond ``ceil(log2(n))``) the landmark selector is
        allowed to consider.
    worker_quota:
        ``eta_#q`` — maximum number of outstanding tasks per worker.
    response_time_threshold:
        ``eta_time`` — minimum probability of answering before the deadline.
    knowledge_radius_m:
        ``eta_dis`` — radius around a landmark within which a worker's
        knowledge of it contributes to familiarity.
    familiarity_alpha:
        ``alpha`` — weight of profile distance vs. answer history in the
        familiarity score.
    familiarity_beta:
        ``beta`` — gain credited for a wrong answer (<1).
    workers_per_task:
        ``k`` — number of eligible workers a task is assigned to.
    early_stop_confidence:
        Confidence level at which the early-stop component returns an answer
        before all workers have responded.
    pmf_latent_dim:
        Number of latent factors used by probabilistic matrix factorization.
    reward_per_question:
        Base reward points granted per answered question.
    random_seed:
        Seed for all stochastic components owned by the planner.
    """

    confidence_threshold: float = 0.7
    agreement_threshold: float = 0.85
    truth_reuse_radius_m: float = 250.0
    truth_time_slot_minutes: int = 60
    min_landmark_set_size_slack: int = 3
    worker_quota: int = 5
    response_time_threshold: float = 0.8
    knowledge_radius_m: float = 2_000.0
    familiarity_alpha: float = 0.6
    familiarity_beta: float = 0.3
    workers_per_task: int = 5
    early_stop_confidence: float = 0.9
    pmf_latent_dim: int = 8
    reward_per_question: float = 1.0
    random_seed: int = 7

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any parameter is out of range.

        Float checks state what is valid and reject the rest, so a NaN —
        which fails every comparison — is rejected too."""
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise ConfigurationError("confidence_threshold must be in (0, 1]")
        if not 0.0 < self.agreement_threshold <= 1.0:
            raise ConfigurationError("agreement_threshold must be in (0, 1]")
        if not self.truth_reuse_radius_m > 0:
            raise ConfigurationError("truth_reuse_radius_m must be positive")
        if self.truth_time_slot_minutes <= 0:
            raise ConfigurationError("truth_time_slot_minutes must be positive")
        if self.worker_quota < 1:
            raise ConfigurationError("worker_quota must be at least 1")
        if not 0.0 < self.response_time_threshold <= 1.0:
            raise ConfigurationError("response_time_threshold must be in (0, 1]")
        if not self.knowledge_radius_m > 0:
            raise ConfigurationError("knowledge_radius_m must be positive")
        if not 0.0 <= self.familiarity_alpha <= 1.0:
            raise ConfigurationError("familiarity_alpha must be in [0, 1]")
        if not 0.0 <= self.familiarity_beta < 1.0:
            raise ConfigurationError("familiarity_beta must be in [0, 1)")
        if self.workers_per_task < 1:
            raise ConfigurationError("workers_per_task must be at least 1")
        if not 0.0 < self.early_stop_confidence <= 1.0:
            raise ConfigurationError("early_stop_confidence must be in (0, 1]")
        if self.pmf_latent_dim < 1:
            raise ConfigurationError("pmf_latent_dim must be at least 1")
        if not self.reward_per_question >= 0:
            raise ConfigurationError("reward_per_question must be non-negative")

    def with_overrides(self, **overrides: Any) -> "PlannerConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Return the configuration as a plain dictionary (for reporting)."""
        return {
            "confidence_threshold": self.confidence_threshold,
            "agreement_threshold": self.agreement_threshold,
            "truth_reuse_radius_m": self.truth_reuse_radius_m,
            "truth_time_slot_minutes": self.truth_time_slot_minutes,
            "min_landmark_set_size_slack": self.min_landmark_set_size_slack,
            "worker_quota": self.worker_quota,
            "response_time_threshold": self.response_time_threshold,
            "knowledge_radius_m": self.knowledge_radius_m,
            "familiarity_alpha": self.familiarity_alpha,
            "familiarity_beta": self.familiarity_beta,
            "workers_per_task": self.workers_per_task,
            "early_stop_confidence": self.early_stop_confidence,
            "pmf_latent_dim": self.pmf_latent_dim,
            "reward_per_question": self.reward_per_question,
            "random_seed": self.random_seed,
        }


DEFAULT_CONFIG = PlannerConfig()
"""A shared default configuration used when the caller does not supply one."""


#: Names accepted by :attr:`ServiceConfig.backend`.
SERVING_BACKENDS = ("inline", "pooled")

#: Policies accepted by :attr:`ServiceConfig.journal_on_error` — what the
#: service does when the journal hits a disk error (ENOSPC, EIO, ...).
JOURNAL_ON_ERROR_MODES = ("raise", "suspend")


@dataclass(frozen=True)
class ServiceConfig(PlannerConfig):
    """Declarative configuration of a :class:`~repro.serving.RecommendationService`.

    Extends :class:`PlannerConfig` with the serving-layer knobs, so one
    object can describe both the planner pipeline and the service wrapped
    around it (build the planner with :meth:`planner_config`).
    :class:`~repro.serving.tenancy.WorkspaceService` applies one such
    object's serving knobs to every workspace it hosts, while each
    workspace may substitute its own :class:`PlannerConfig` half.

    Attributes
    ----------
    backend:
        Which :class:`~repro.serving.protocol.ServingBackend` serves batches:
        ``"inline"`` (the sequential oracle, in-process) or ``"pooled"``
        (the persistent forked worker pool).
    pool_size:
        Worker-process count of the pooled backend; ``None`` means one per
        available CPU.
    max_shard_fraction:
        Hotspot-splitting knob of the pooled backend: any interaction
        component holding more than this fraction of a batch is staged as an
        ordered dataflow of sub-shards connected by truth-delta hand-offs
        (see :func:`repro.serving.shards.split_oversized`), so a dominant
        city-center destination stops serialising the whole pool.  ``None``
        (the default) keeps components whole.  Merges, truth-id issuance and
        journaling stay in strict submission order, so results are identical
        for every value — only parallelism depends on it.
    max_pending_batches:
        Submission-queue bound: :meth:`RecommendationService.submit` raises
        :class:`~repro.exceptions.ServingError` once this many submitted
        batches await collection.
    merge_every_batches:
        Cadence at which the parent pushes merged truth deltas to pool
        workers that sat out recent batches.  Workers taking part in a batch
        always receive the deltas they are missing with their shard
        dispatch, so this only bounds how stale an *idle* worker's warm
        partition may grow — it never affects results.
    journal_path:
        Directory of the :class:`~repro.serving.journal.TruthJournal`.
        When set, the service appends every batch's truth delta to an
        on-disk log (with periodic compacted snapshots) and, on open,
        replays any existing journal into the planner — so re-opening a
        service on the same path after a crash recovers the exact
        pre-crash truth state.  ``None`` (the default) disables
        durability.
    journal_fsync:
        Whether the journal fsyncs after every appended record (the
        default).  Disabling trades crash durability of the last few
        batches for append latency; recovery correctness for whatever
        *is* on disk is unaffected (torn tails are truncated either way).
    snapshot_every_truths:
        Compaction cadence of the journal: once this many truths have
        accumulated since the last snapshot, the journal writes a
        compacted snapshot of the whole store and starts a fresh delta
        segment, bounding replay time.
    heartbeat_interval_s:
        Cadence at which a busy pool worker's heartbeat thread signals
        liveness to the parent while it executes or adopts deltas.
    rpc_deadline_s:
        Supervision deadline: a dispatched worker that has neither
        replied nor heartbeat within this window is declared hung, killed,
        and its in-flight shard resubmitted.  Must exceed
        ``heartbeat_interval_s`` with margin; only latency (never results)
        depends on it.
    hedge_after_s:
        Straggler budget for hedged execution.  A dispatched shard whose
        wall-clock exceeds this budget while its worker still heartbeats
        (slow, not hung) is speculatively re-dispatched to an idle worker;
        the first outcome wins and the duplicate is discarded by shard id.
        Safe because the crowd RNG is content-keyed, so duplicate outcomes
        are bit-identical — only latency depends on the hedge.  The
        overtaken worker is given ``rpc_deadline_s`` (non-renewable) to
        finish its stale reply before being killed.  ``None`` (the
        default) disables hedging.
    journal_on_error:
        Degrade ladder for journal disk faults (``OSError`` on append or
        snapshot — ENOSPC, EIO, ...): ``"raise"`` (the default) surfaces
        the fault as a :class:`~repro.exceptions.JournalError` and fails
        the batch; ``"suspend"`` stops journaling, marks the service
        degraded (``statistics()["resilience"]["journal_suspended"]``) and
        keeps serving — ``recover`` then replays to the last *durable*
        batch, and the driver re-submits the rest, exactly as after a
        torn tail.  Answers never depend on the mode.
    max_respawns_per_batch:
        Circuit breaker of the mid-batch supervisor: after this many
        worker respawns within one batch, the backend stops re-forking and
        degrades the batch's remaining shards to inline (parent-process)
        execution instead of failing the ticket.
    respawn_backoff_s / respawn_backoff_max_s:
        Bounded exponential backoff (with jitter) between mid-batch
        respawns: the n-th respawn of a batch waits
        ``min(respawn_backoff_s * 2**n, respawn_backoff_max_s)`` plus a
        random jitter of up to ``respawn_backoff_s``.
    pipeline_window:
        Rolling-window size of the cross-batch pipelined scheduler: how many
        consecutive pending batches the service hands to the backend in one
        :meth:`~repro.serving.protocol.ServingBackend.execute_window` call.
        ``1`` (the default) is the per-batch barrier.  A barrier is a
        one-batch window: the pooled backend serves a lone batch through the
        same dispatcher, which then has nothing to overlap it with.  With a
        larger window the pooled backend dispatches a shard of batch N+1 as
        soon as every earlier in-flight batch whose reach-expanded
        destination cells intersect the shard's has merged (see
        :mod:`repro.serving.pipeline`), keeping the pool saturated across
        batch boundaries.  Merges stay strictly in submission order, so
        results are identical for every window size — only latency and
        throughput depend on it.
    stream_batch_size:
        Default batch size of :meth:`RecommendationService.stream`.
        :meth:`~repro.serving.RecommendationService.stream` also keeps up to
        ``pipeline_window`` submitted batches outstanding before redeeming,
        so a stream actually engages the window scheduler.
    share_candidate_generation:
        Default for the batch-level candidate-generation memo (see
        :meth:`CrowdPlanner.recommend_batch`); never changes answers.
    """

    backend: str = "pooled"
    pool_size: Optional[int] = None
    max_shard_fraction: Optional[float] = None
    max_pending_batches: int = 16
    merge_every_batches: int = 1
    journal_path: Optional[str] = None
    journal_fsync: bool = True
    snapshot_every_truths: int = 512
    heartbeat_interval_s: float = 0.5
    rpc_deadline_s: float = 8.0
    hedge_after_s: Optional[float] = None
    journal_on_error: str = "raise"
    max_respawns_per_batch: int = 2
    respawn_backoff_s: float = 0.05
    respawn_backoff_max_s: float = 1.0
    pipeline_window: int = 1
    stream_batch_size: int = 32
    share_candidate_generation: bool = True

    def validate(self) -> None:
        super().validate()
        if self.snapshot_every_truths < 1:
            raise ConfigurationError("snapshot_every_truths must be at least 1")
        if not self.heartbeat_interval_s > 0:
            raise ConfigurationError("heartbeat_interval_s must be positive")
        if not self.rpc_deadline_s > self.heartbeat_interval_s:
            raise ConfigurationError(
                "rpc_deadline_s must exceed heartbeat_interval_s (a busy worker "
                "is only as fresh as its last heartbeat)"
            )
        if self.hedge_after_s is not None and not self.hedge_after_s > 0:
            raise ConfigurationError(
                "hedge_after_s must be positive (or None to disable hedging)"
            )
        if self.journal_on_error not in JOURNAL_ON_ERROR_MODES:
            raise ConfigurationError(
                f"journal_on_error must be one of {JOURNAL_ON_ERROR_MODES}, "
                f"got {self.journal_on_error!r}"
            )
        if self.max_respawns_per_batch < 0:
            raise ConfigurationError("max_respawns_per_batch must be non-negative")
        if not self.respawn_backoff_s >= 0:
            raise ConfigurationError("respawn_backoff_s must be non-negative")
        if not self.respawn_backoff_max_s >= self.respawn_backoff_s:
            raise ConfigurationError(
                "respawn_backoff_max_s must be at least respawn_backoff_s"
            )
        if self.backend not in SERVING_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {SERVING_BACKENDS}, got {self.backend!r}"
            )
        if self.pool_size is not None and self.pool_size < 1:
            raise ConfigurationError("pool_size must be at least 1 (or None for one per CPU)")
        if self.max_shard_fraction is not None and not (0 < self.max_shard_fraction <= 1):
            raise ConfigurationError(
                "max_shard_fraction must be in (0, 1] (or None to keep components whole)"
            )
        if self.max_pending_batches < 1:
            raise ConfigurationError("max_pending_batches must be at least 1")
        if self.merge_every_batches < 1:
            raise ConfigurationError("merge_every_batches must be at least 1")
        if self.pipeline_window < 1:
            raise ConfigurationError("pipeline_window must be at least 1")
        if self.stream_batch_size < 1:
            raise ConfigurationError("stream_batch_size must be at least 1")

    @classmethod
    def from_planner_config(cls, config: PlannerConfig, **overrides: Any) -> "ServiceConfig":
        """Lift a planner configuration into a service configuration."""
        base = {field.name: getattr(config, field.name) for field in fields(PlannerConfig)}
        base.update(overrides)
        return cls(**base)

    def planner_config(self) -> PlannerConfig:
        """The embedded planner-level configuration (for building the planner)."""
        return PlannerConfig(
            **{field.name: getattr(self, field.name) for field in fields(PlannerConfig)}
        )

    def to_dict(self) -> Dict[str, Any]:
        report = super().to_dict()
        planner_fields = {field.name for field in fields(PlannerConfig)}
        for field in fields(self):
            if field.name not in planner_fields:
                report[field.name] = getattr(self, field.name)
        return report


DEFAULT_SERVICE_CONFIG = ServiceConfig()
"""A shared default service configuration."""
