"""Session-based serving of route recommendations.

This package turns :meth:`~repro.core.planner.CrowdPlanner.recommend_batch`
into a *service* while keeping its answers bit-identical to the sequential
path, which stays in place as the behavioural oracle:

* :class:`RecommendationService` — the public surface: ``submit``/``results``
  tickets, ``stream`` pipelining, unified
  :class:`RecommendRequest`/:class:`RecommendResponse` envelopes with
  per-result provenance, and a context-managed lifecycle;
* :class:`ServingBackend` — the pluggable execution strategy:
  :class:`InlineBackend` (the sequential oracle) or :class:`PooledBackend`,
  a **persistent** forked worker pool whose workers keep warm
  :class:`~repro.core.truth.TruthDatabase` state between batches and
  receive merged truth deltas streamed from the parent;
* :mod:`~repro.serving.shards` — the shard clone/execute/merge primitives
  every pooled path shares (interaction-closed shards over copy-on-write
  truth overlays, submission-order merge);
* :mod:`~repro.serving.pipeline` — the per-batch cross-batch dependency
  analysis; behind ``ServiceConfig(pipeline_window=…)`` consecutive
  batches execute as one window, which the pooled backend plans as one
  component plan while merges stay in strict submission order;
* :class:`TruthJournal` — the durability layer: an append-only, CRC-framed
  log of per-batch truth deltas with compacted snapshots, attached via
  ``ServiceConfig(journal_path=…)`` and replayed by
  :meth:`RecommendationService.recover` to the exact pre-crash truth state;
* :mod:`~repro.serving.tenancy` — multi-tenant workspaces:
  :class:`WorkspaceService` opens named :class:`Workspace` tenants that each
  own an isolated truth store, histories, batch numbering and journal
  directory while sharing one warm :class:`PooledBackend` through the
  tenant-tagged :class:`TenantBackend` facade, with whole-tree crash
  recovery via :meth:`WorkspaceService.recover_all`;
* :mod:`~repro.serving.metrics` — the one counter registry behind every
  backend's ``statistics()`` groups, charged per tenant on a shared pool.

The service contract — for any backend, pool size and submission
interleaving, results and post-batch planner state match the sequential
oracle exactly (up to process-local serials, see
:func:`recommendation_fingerprint`) — holds for every window size and is
enforced by the ``tests/serving`` suites and the
``crowd_shard``/``crowd_stream``/``crowd_pipeline`` benchmark gates.
"""

from .journal import TruthJournal
from .pipeline import batch_dependencies, window_parallelism
from .protocol import (
    BatchTimings,
    RecommendRequest,
    RecommendResponse,
    ResultProvenance,
    ServingBackend,
    Ticket,
    TruthDeltaBlock,
    encode_truth_delta,
    recommendation_fingerprint,
    response_fingerprint,
    wrap_requests,
)
from .service import DEFAULT_TENANT, InlineBackend, PooledBackend, RecommendationService
from .shards import build_tenant_planner
from .tenancy import TenantBackend, Workspace, WorkspaceService

__all__ = [
    "BatchTimings",
    "DEFAULT_TENANT",
    "InlineBackend",
    "PooledBackend",
    "RecommendRequest",
    "RecommendResponse",
    "RecommendationService",
    "ResultProvenance",
    "ServingBackend",
    "TenantBackend",
    "Ticket",
    "TruthDeltaBlock",
    "TruthJournal",
    "Workspace",
    "WorkspaceService",
    "batch_dependencies",
    "build_tenant_planner",
    "encode_truth_delta",
    "recommendation_fingerprint",
    "response_fingerprint",
    "window_parallelism",
    "wrap_requests",
]
