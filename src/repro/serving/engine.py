"""Deprecated per-batch sharded engine — a thin shim over the service.

:class:`ShardedRecommendationEngine` predates the session-based
:class:`~repro.serving.service.RecommendationService` and is kept only for
backwards compatibility (and as the per-batch-fork baseline the
``crowd_stream`` benchmark measures the persistent pool against).  Each
:meth:`recommend_batch` call builds a one-shot service around a fresh
:class:`~repro.serving.service.PooledBackend` and closes it afterwards —
fork the pool, serve the batch, stop the pool — which is exactly the old
engine's cost model, now expressed through the same dispatcher the
persistent pool uses.

Migrate by replacing::

    engine = ShardedRecommendationEngine(planner, workers=4)
    results = engine.recommend_batch(queries)

with::

    service = RecommendationService(planner, ServiceConfig.from_planner_config(
        planner.config, pool_size=4))
    results = [response.result for response in service.recommend_batch(queries)]
    ...
    service.close()

The service keeps its worker pool (and the workers' truth partitions) warm
across batches, so steady request streams no longer pay a fork + clone per
batch; the equivalence contract is unchanged (see
:func:`~repro.serving.protocol.recommendation_fingerprint`).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from ..core.planner import CrowdPlanner, RecommendationResult, ShardPlan
from ..exceptions import CrowdPlannerError
from ..routing.base import RouteQuery
from .protocol import recommendation_fingerprint  # noqa: F401  (compat re-export)
from .service import PooledBackend, RecommendationService


class ShardedRecommendationEngine:
    """Serves recommendation batches across a per-batch process pool.

    .. deprecated::
        Use :class:`~repro.serving.service.RecommendationService` — the
        session-based API with a persistent worker pool.  This shim remains
        result-identical to both the service and the sequential oracle.

    Parameters
    ----------
    planner:
        A (typically prepared) :class:`CrowdPlanner`.  The engine reads its
        configuration and substrate and writes its post-batch state.
    workers:
        Default worker count for :meth:`recommend_batch`; ``None`` means one
        worker per available CPU.
    use_processes:
        When ``False``, shards execute inline in the calling process (still
        through the same clone-and-merge machinery, so results are identical);
        inline execution is also the automatic fallback on platforms without
        ``fork``.
    """

    def __init__(
        self,
        planner: CrowdPlanner,
        workers: Optional[int] = None,
        use_processes: bool = True,
    ):
        if workers is not None and workers < 1:
            raise CrowdPlannerError("ShardedRecommendationEngine needs at least one worker")
        self.planner = planner
        self.workers = workers
        self.use_processes = use_processes

    # ------------------------------------------------------------------ plan
    def resolve_workers(self, workers: Optional[int] = None) -> int:
        """The effective worker count for a batch."""
        resolved = workers if workers is not None else self.workers
        if resolved is None:
            resolved = os.cpu_count() or 1
        if resolved < 1:
            raise CrowdPlannerError("worker count must be at least 1")
        return resolved

    def plan(self, queries: Sequence[RouteQuery], workers: Optional[int] = None) -> ShardPlan:
        """The shard plan a batch would execute under (diagnostics)."""
        return self.planner.shard_plan(list(queries), self.resolve_workers(workers))

    # ------------------------------------------------------------- interface
    def recommend_batch(
        self,
        queries: Sequence[RouteQuery],
        workers: Optional[int] = None,
        share_candidate_generation: bool = True,
        plan: Optional[ShardPlan] = None,
    ) -> List[RecommendationResult]:
        """Answer a batch in submission order, sharded across workers.

        ``workers=1`` (or a single-shard plan) runs the sequential path
        directly in-process — no clones, no fork — which is the oracle the
        multi-worker paths are tested against.

        An explicit ``plan`` overrides the planner's own
        :meth:`~repro.core.planner.CrowdPlanner.shard_plan`; it must cover
        the same queries and may regroup shards only along whole
        interaction-closed components (any such regrouping yields identical
        results — the shard-determinism property tests exercise exactly this
        freedom).
        """
        queries = list(queries)
        if not queries:
            return []
        worker_count = self.resolve_workers(workers)
        if plan is None:
            if worker_count <= 1:
                return self.planner.recommend_batch(
                    queries, share_candidate_generation=share_candidate_generation
                )
            plan = self.planner.shard_plan(queries, worker_count)
        if len(plan.shards) <= 1:
            return self.planner.recommend_batch(
                queries, share_candidate_generation=share_candidate_generation
            )
        backend = PooledBackend(
            pool_size=min(worker_count, len(plan.shards)),
            use_processes=self.use_processes,
        )
        service = RecommendationService(self.planner, backend=backend)
        try:
            responses = service.recommend_batch(
                queries, share_candidate_generation=share_candidate_generation, plan=plan
            )
        finally:
            service.close()
        return [response.result for response in responses]
