"""Shard execution and merge primitives shared by every pooled path.

A *shard job* is the unit of work the serving layer dispatches — one shard
of a window's component plan (whole interaction-closed components, see
:meth:`~repro.core.planner.CrowdPlanner.shard_plan`).  The primitives here
are used identically by the persistent pool workers
(:mod:`repro.serving.worker`) and the pooled backend's in-process tail:

* :func:`build_shard_clone` — a planner over a copy-on-write
  :meth:`~repro.core.truth.TruthDatabase.overlay` of the base planner's
  whole truth store, with an isolated evaluator and worker pool;
* :func:`execute_shard` — run one job on one clone, in submission order,
  into one :class:`ShardOutcome`;
* :func:`slice_outcome` — one batch's part of an outcome whose shard holds
  queries of several batches;
* :func:`merge_shard_outcomes` — replay every shard's writes onto the parent
  planner in submission order, reproducing the exact state a sequential run
  would have left.

One shard is one message: no truth crosses between the shards of a window,
so none of them waits on another or needs another's writes.

:func:`split_oversized` is a diagnostic of plan shape, not an execution
step.  When one interaction component is too large (a city-center hotspot —
every query within reach of one dominant destination), it re-stages the
component as an **ordered dataflow of sub-shards**: the component's od-cell
groups are condensed into atomic units (strongly connected pieces of the
visibility graph), the units form a DAG whose edges follow submission
order, and oversized units are sliced into contiguous submission-index
chunks.  Each sub-shard declares ``predecessors`` and ``handoff_from``
(the sub-shards whose recorded truths it can observe).  The serving layer
reports that shape (``service.plan()`` and the ``sharding`` counters) and
dispatches the component plan: a split component runs as one shard, which
is the sub-shard chain run in submission order.

Everything that crosses a process boundary (:class:`ShardJob` down,
:class:`ShardOutcome` up) is plain picklable data; planner substrate never
travels — workers inherit it through ``fork``.
"""

from __future__ import annotations

import bisect
import copy
import dataclasses
import heapq
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.planner import CrowdPlanner, QueryShard, RecommendationResult, ShardPlan
from ..core.truth import VerifiedTruth
from ..exceptions import ServingError
from ..routing.base import RouteQuery


@dataclass(frozen=True)
class ShardJob:
    """One shard of one window, ready to be executed anywhere.

    ``indices`` are the shard's positions in the window's queries (its
    batches concatenated in submission order), ascending.

    ``tenant`` names the workspace whose truth store the job executes
    against (``""`` is the backend's default, single-tenant planner); pool
    workers use it to select the matching warm truth base.  Nothing writes
    a job once it is built, so the first dispatch, a resubmission, a hedge
    copy and the in-process tail all send the same job.
    """

    shard_id: int
    indices: Tuple[int, ...]
    queries: List[RouteQuery]
    tenant: str = ""


@dataclass
class ShardOutcome:
    """Everything a shard execution produced, in shard submission order.

    ``shard_id`` is ``None`` for the outcome of a batch's settled truth
    reuses, which the parent answers outside any plan shard."""

    shard_id: Optional[int]
    indices: Tuple[int, ...]
    results: List[RecommendationResult]
    new_truths: List[VerifiedTruth]
    worker_pid: int


def _planner_on(template: CrowdPlanner, worker_pool, config) -> CrowdPlanner:
    """A planner on ``template``'s substrate (network, catalogue, sources,
    task generator, crowd backend, fitted familiarity) with the given worker
    pool and config, and a fresh truth store, evaluator, rewards and
    statistics."""
    return CrowdPlanner(
        network=template.network,
        catalog=template.catalog,
        calibrator=template.calibrator,
        sources=template.sources,
        worker_pool=worker_pool,
        crowd_backend=template.crowd_backend,
        config=config,
        familiarity=template.familiarity,
        task_generator=template.task_generator,
    )


def build_shard_clone(planner: CrowdPlanner) -> CrowdPlanner:
    """A planner over the base planner's truths and a private worker pool.

    The substrate is shared (read-only during a batch); the truth store (a
    copy-on-write :meth:`~repro.core.truth.TruthDatabase.overlay` over the
    whole base store), evaluator, worker pool, rewards and statistics are
    isolated so a shard's writes never leak into another shard or the base
    planner.

    A clone is built for every shard a worker runs.  The worker pool is an
    :meth:`~repro.core.worker.WorkerPool.overlay` that copies a worker only
    when the clone first touches it (most shards never reach the crowd),
    and the truth overlay is built in O(1).  Both read the base planner
    live, so the base must not be written while a clone is in use: clones
    live only inside :func:`execute_shard`, and merges replay onto the
    parent afterwards.
    """
    clone = _planner_on(planner, planner.worker_pool.overlay(), planner.config)
    clone.truths = planner.truths.overlay()
    # A shallow copy of the base planner's evaluator rebound to the overlay:
    # preserves any evaluator subclass/state without assuming its
    # constructor signature.
    evaluator = copy.copy(planner.evaluator)
    evaluator.truths = clone.truths
    clone.evaluator = evaluator
    return clone


def build_tenant_planner(template: CrowdPlanner, config=None) -> CrowdPlanner:
    """A workspace planner sharing ``template``'s substrate with its own state.

    Road network, catalogue, sources, task generator, crowd backend and —
    critically — the *fitted* familiarity model are shared read-only; the
    truth store, evaluator, worker pool (answer/reward histories) and
    statistics are fresh, so the tenant starts from an empty truth database
    but identical serving behaviour.  The familiarity model is **never
    refitted** here: a refit would read the live worker-pool histories at
    whatever moment the tenant happens to be built (parent at registration,
    worker at lazy construction), and the two moments would disagree.
    Sharing the frozen fit keeps every copy of a tenant's planner — parent
    and every pool worker — behaviourally identical, which the per-tenant
    serving contract rests on.
    """
    return _planner_on(
        template, template.worker_pool.copy(), template.config if config is None else config
    )


def execute_shard(planner: CrowdPlanner, job: ShardJob) -> ShardOutcome:
    """Run one shard as the sequential oracle restricted to its queries; the
    base planner is read, never written.

    One clone answers the shard's queries with one ``recommend_batch``, in
    submission order.  This is how a pool worker answers a ``run`` message,
    and how the pooled backend's in-process tail runs each remaining shard.
    """
    clone = build_shard_clone(planner)
    before = len(clone.truths)
    results = clone.recommend_batch(job.queries)
    return ShardOutcome(
        job.shard_id, job.indices, results, clone.truths.truths_since(before), os.getpid()
    )


def slice_outcome(outcome: ShardOutcome, start: int, stop: int) -> ShardOutcome:
    """One batch's share of a window shard: the (contiguous) part of
    ``outcome`` at positions ``start <= i < stop``, re-based to ``start``,
    with the truths its non-reuse results recorded."""
    indices, results = outcome.indices, outcome.results
    first, last = bisect.bisect_left(indices, start), bisect.bisect_left(indices, stop)
    if start == 0 and first == 0 and last == len(indices):
        return outcome
    written = sum(result.method != "truth_reuse" for result in results[:first])
    writes = sum(result.method != "truth_reuse" for result in results[first:last])
    return dataclasses.replace(
        outcome,
        indices=tuple(index - start for index in indices[first:last]),
        results=results[first:last],
        new_truths=outcome.new_truths[written : written + writes],
    )


def merge_shard_outcomes(
    planner: CrowdPlanner,
    num_queries: int,
    outcomes: List[ShardOutcome],
) -> List[RecommendationResult]:
    """Reassemble submission order and replay shard writes onto the parent.

    Truths are paired back to the submission indices that wrote them,
    sorted, and re-recorded globally in submission order — the order the
    sequential path would have used.  Each result is then counted into the
    parent's statistics (:meth:`~repro.core.planner.PlannerStatistics.count`)
    and its crowd task, if any, replays worker answer histories and rewards
    (with task ids re-issued from the parent's sequence).
    """
    ordered: List[Optional[RecommendationResult]] = [None] * num_queries
    tagged_truths: List[Tuple[int, VerifiedTruth]] = []
    for outcome in outcomes:
        # Every result but a truth-reuse hit recorded exactly one truth.
        writers = [
            index
            for index, result in zip(outcome.indices, outcome.results)
            if result.method != "truth_reuse"
        ]
        if len(writers) != len(outcome.new_truths):  # pragma: no cover - defensive
            raise ServingError("a shard recorded a different number of truths than its results imply")
        tagged_truths.extend(zip(writers, outcome.new_truths))
        for local, original in enumerate(outcome.indices):
            if ordered[original] is not None:
                raise ServingError(f"query {original} served by more than one shard")
            ordered[original] = outcome.results[local]
    tagged_truths.sort(key=lambda item: item[0])
    planner.truths.absorb([truth for _, truth in tagged_truths])
    for result in ordered:
        if result is None:  # pragma: no cover - defensive
            raise ServingError("a query was not covered by any shard")
        planner.statistics.count(result)
        if result.task_result is not None:
            planner.replay_task_result(result.task_result)
    return ordered  # type: ignore[return-value]


# ------------------------------------------- hotspot split (a diagnostic)
def _strongly_connected(succ: Sequence[Sequence[int]]) -> List[int]:
    """Tarjan's SCC (iterative) — returns a component id per node."""
    count = len(succ)
    index = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    comp = [-1] * count
    stack: List[int] = []
    counter = 0
    components = 0
    for root in range(count):
        if index[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for position in range(child, len(succ[node])):
                nxt = succ[node][position]
                if index[nxt] == -1:
                    work[-1] = (node, position + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = components
                    if member == node:
                        break
                components += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def _stage_dataflow(
    shard: QueryShard,
    groups: Dict[tuple, List[int]],
    max_size: int,
    reach: int,
) -> List[Tuple[List[int], List[int], List[int]]]:
    """Slice one oversized shard into an ordered dataflow of sub-shards.

    ``groups`` are the batch's od-cell groups; a shard holds whole groups,
    and these (in first-query order) are the shard's own.  They form a
    *visibility graph*: a truth recorded
    by a query of group ``g`` is observable by a query of group ``h`` only
    when every od-cell axis differs by at most ``reach`` (the same test that
    linked them into one component).  Each linked pair gets directed edges
    following submission-index order (both directions when their index
    ranges interleave), strongly connected pieces collapse into atomic
    *units* — so the condensed graph is a DAG whose every edge points from a
    unit wholly earlier in submission order to one wholly later — and units
    larger than ``max_size`` are sliced into contiguous submission-index
    chunks.  Unlinked units stay parallel branches of the DAG.

    Returns nodes ``(global_indices, predecessor_locals, handoff_locals)``
    in a deterministic topological emission order; ``locals`` are 0-based
    positions within that order.  ``handoff_locals`` (every slice of every
    direct-predecessor unit, plus the unit's own earlier slices) is exactly
    the set whose truths can be visible to the node: a transitive-but-not-
    direct predecessor shares no linked group pair, so all its truths are
    out of radius of every query of this node.
    """
    indices_of_shard = set(shard.indices)
    keys = [key for key, members in groups.items() if members[0] in indices_of_shard]
    members = [groups[key] for key in keys]
    count = len(keys)

    succ: List[List[int]] = [[] for _ in range(count)]
    for g in range(count):
        a0, a1, a2, a3 = keys[g]
        for h in range(g + 1, count):
            b0, b1, b2, b3 = keys[h]
            if (
                abs(a0 - b0) > reach
                or abs(a1 - b1) > reach
                or abs(a2 - b2) > reach
                or abs(a3 - b3) > reach
            ):
                continue
            if members[g][-1] < members[h][0]:
                succ[g].append(h)
            elif members[h][-1] < members[g][0]:
                succ[h].append(g)
            else:
                succ[g].append(h)
                succ[h].append(g)

    comp = _strongly_connected(succ)
    units: Dict[int, List[int]] = {}
    for group, unit in enumerate(comp):
        units.setdefault(unit, []).append(group)
    unit_indices = {
        unit: sorted(index for group in group_list for index in members[group])
        for unit, group_list in units.items()
    }
    pred_units: Dict[int, Set[int]] = {unit: set() for unit in units}
    succ_units: Dict[int, Set[int]] = {unit: set() for unit in units}
    for g in range(count):
        for h in succ[g]:
            if comp[g] != comp[h]:
                succ_units[comp[g]].add(comp[h])
                pred_units[comp[h]].add(comp[g])

    # Kahn's topological order, earliest-query-first for determinism.
    degree = {unit: len(preds) for unit, preds in pred_units.items()}
    heap = [
        (unit_indices[unit][0], unit) for unit, deg in degree.items() if deg == 0
    ]
    heapq.heapify(heap)
    nodes: List[Tuple[List[int], List[int], List[int]]] = []
    unit_slices: Dict[int, List[int]] = {}
    emitted = 0
    while heap:
        _, unit = heapq.heappop(heap)
        emitted += 1
        indices = unit_indices[unit]
        chunks = -(-len(indices) // max_size)
        size = -(-len(indices) // chunks)
        direct = sorted(pred_units[unit], key=lambda p: unit_slices[p][0])
        pred_last = [unit_slices[p][-1] for p in direct]
        upstream = sorted(s for p in direct for s in unit_slices[p])
        slices: List[int] = []
        for chunk_index in range(chunks):
            chunk = indices[chunk_index * size : (chunk_index + 1) * size]
            if not chunk:
                break
            position = len(nodes)
            preds = list(pred_last) if not slices else [slices[-1]]
            nodes.append((chunk, preds, upstream + slices))
            slices.append(position)
        unit_slices[unit] = slices
        for downstream in sorted(succ_units[unit]):
            degree[downstream] -= 1
            if degree[downstream] == 0:
                heapq.heappush(heap, (unit_indices[downstream][0], downstream))
    if emitted != len(units):  # pragma: no cover - DAG guard
        raise ServingError("sub-shard unit graph is not acyclic")
    return nodes


def split_oversized(
    planner: CrowdPlanner,
    plan: ShardPlan,
    queries: Sequence[RouteQuery],
    max_fraction: float,
) -> ShardPlan:
    """Split every shard above ``max_fraction`` of the batch into sub-shards.

    Ordinary component shards stay untouched (the plan's mutual-isolation
    guarantee already covers them); each oversized shard is re-staged as the
    dataflow of :func:`_stage_dataflow`, its sub-shards emitted in
    topological order.  Shard ids are renumbered densely in emission order,
    so ascending shard id is a topological order of the whole plan.  The
    serving layer reports the result and executes ``plan`` itself.
    The od-cell groups come from the plan (``plan.od_cell_groups``); only
    a plan built without them regroups ``queries``.
    """
    if max_fraction >= 1.0 or not plan.shards or plan.num_queries == 0:
        return plan
    max_size = max(1, int(max_fraction * plan.num_queries))
    if all(len(shard) <= max_size for shard in plan.shards):
        return plan
    groups = plan.od_cell_groups
    if groups is None:
        groups = planner.od_cell_groups(queries)
    rebuilt: List[QueryShard] = []
    for shard in sorted(plan.shards, key=lambda item: item.shard_id):
        if len(shard) <= max_size:
            rebuilt.append(dataclasses.replace(shard, shard_id=len(rebuilt)))
            continue
        first = len(rebuilt)
        for indices, pred_locals, handoff_locals in _stage_dataflow(
            shard, groups, max_size, plan.cell_reach
        ):
            rebuilt.append(
                QueryShard(
                    shard_id=len(rebuilt),
                    indices=tuple(indices),
                    destination_cells=shard.destination_cells,
                    components=1,
                    predecessors=tuple(first + p for p in pred_locals),
                    handoff_from=tuple(first + h for h in handoff_locals),
                )
            )
    return dataclasses.replace(plan, shards=tuple(rebuilt))
