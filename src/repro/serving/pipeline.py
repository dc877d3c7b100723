"""Cross-batch shard dependency analysis — the pipelined scheduler's DAG.

:meth:`CrowdPlanner.shard_plan` proves that *within* one batch, shards whose
reach-expanded destination cells are disjoint cannot observe each other's
truth writes, which is what lets them run in parallel.  This module extends
that interaction-closure argument **across batch boundaries**: a shard of
batch N+1 needs to wait only for the in-flight batches whose shards' cell
closures intersect its own — every other in-flight batch is invisible to it
through the destination-keyed truth view, exactly as a sibling shard of the
same batch is.

:func:`batch_dependencies` reduces the pairwise intersection tests to one
rolling ``cell -> last writing batch`` map: walking the window's shard plans
in submission order, a shard's dependency is the highest-numbered earlier
batch that touched any of its cells (``-1`` when it is independent of every
in-flight batch).  The DAG dispatcher in
:class:`~repro.serving.service.PooledBackend` may dispatch a shard as soon
as all batches up to and including its dependency have **merged**; merges
themselves stay strictly in submission order, which is what keeps truth-id
issuance — and therefore every fingerprint — identical to the sequential
oracle for any overlap schedule.

Windows are always single-tenant: :class:`~repro.serving.tenancy.
WorkspaceService` gives every workspace its own
:class:`~repro.serving.RecommendationService`, so only batches of one
tenant are ever pending together and the dependency analysis never has to
reason about another tenant's truth writes (which its destination-keyed
views could not see anyway — tenants own disjoint truth stores).

Why the conservative cell-closure test is sufficient
----------------------------------------------------
All shard truth *reads* go through
:meth:`TruthDatabase.view_by_cells(shard.destination_cells)
<repro.core.truth.TruthDatabase.view_by_cells>` — a destination-keyed slice
— and all shard truth *writes* land inside the shard's own (pre-expansion)
destination cells, a subset of its expanded closure.  So batch M's writes
can reach batch N's shard only when their expanded cell sets intersect.
Dispatching shard S of batch N once batches ``0..m-1`` have merged (with
``m > dep(S)``) gives S's worker a truth base that differs from the full
sequential prefix ``0..N-1`` only by truths whose destination cells lie
outside S's closure — truths the destination-keyed view filters out
identically in both cases.  Adopting *more* merged batches than ``dep(S)``
is therefore harmless, and adopting all batches through ``dep(S)`` is
exactly enough.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Sequence, Tuple

from ..core.planner import ShardPlan

Cell = Tuple[int, int]


def batch_dependencies(plans: Sequence[ShardPlan]) -> List[List[int]]:
    """Per-shard batch dependencies for a window of shard plans.

    ``deps[b][s]`` is the highest index of an earlier batch in the window
    whose shards' reach-expanded destination cells intersect shard ``s`` of
    batch ``b`` — i.e. the latest in-flight batch whose truth writes the
    shard could observe.  ``-1`` means the shard depends on no in-flight
    batch and may dispatch immediately.  A shard is ready once every batch
    up to and including ``deps[b][s]`` has merged.

    Dependencies are transitively consistent by construction: merges happen
    in batch order, so "batches ``<= dep`` merged" subsumes every earlier
    dependency.
    """
    cell_last_batch: Dict[Cell, int] = {}
    deps: List[List[int]] = []
    for batch_index, plan in enumerate(plans):
        deps.append(
            [
                # The first batch depends on nothing.
                max(map(cell_last_batch.get, shard.destination_cells, repeat(-1)), default=-1)
                if cell_last_batch
                else -1
                for shard in plan.shards
            ]
        )
        if batch_index == len(plans) - 1:
            break  # no later batch reads the last batch's writes
        # Record writes only after computing this batch's deps: shards of
        # the same batch never depend on each other here (the shard plan
        # already made them interaction-closed siblings).
        for shard in plan.shards:
            cell_last_batch.update(dict.fromkeys(shard.destination_cells, batch_index))
    return deps


def window_parallelism(deps: Sequence[Sequence[int]]) -> Dict[str, int]:
    """Diagnostics for a window's dependency structure.

    ``independent_shards`` counts shards that could dispatch before *any*
    merge (``dep == -1``); ``cross_batch_edges`` counts shard->batch wait
    edges; ``serialized_batches`` counts batches whose every shard depends
    on the immediately preceding batch — the fully-dependent degenerate case
    that forces barrier-equivalent scheduling.
    """
    independent = 0
    edges = 0
    serialized = 0
    for batch_index, batch_deps in enumerate(deps):
        for dep in batch_deps:
            if dep == -1:
                independent += 1
            else:
                edges += 1
        if (
            batch_index > 0
            and batch_deps
            and all(dep == batch_index - 1 for dep in batch_deps)
        ):
            serialized += 1
    return {
        "independent_shards": independent,
        "cross_batch_edges": edges,
        "serialized_batches": serialized,
    }
