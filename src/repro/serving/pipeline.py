"""Cross-batch shard dependencies of per-batch plans — a diagnostic.

:meth:`CrowdPlanner.shard_plan` proves that shards whose reach-expanded
destination cells are disjoint cannot observe each other's truth writes.
:func:`batch_dependencies` applies that test across the plans of
consecutive batches: a shard of batch N depends on the latest earlier
batch whose shards' cells intersect its own, reduced to one rolling
``cell -> last writing batch`` map (``-1``: no dependency).

The pooled backend plans a whole window as one batch
(:meth:`~repro.serving.service.PooledBackend.execute_window`): the closure
argument never reads batch boundaries, so none of its shards waits on
another and :func:`batch_dependencies` of its one plan is all ``-1``.  It
still calls it once per window, and :func:`window_parallelism` turns the
result into the ``pipeline`` counters (``independent_shards`` = shards per
window, ``cross_batch_edges`` = 0).  On per-batch
plans the two functions show what planning batch by batch would wait on.
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
    edges.
    """
    independent = sum(dep == -1 for batch_deps in deps for dep in batch_deps)
    edges = sum(len(batch_deps) for batch_deps in deps) - independent
    return {"independent_shards": independent, "cross_batch_edges": edges}
