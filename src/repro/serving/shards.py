"""Shard execution and merge primitives shared by every pooled path.

A *shard job* is the unit of work the serving layer hands to a worker — a
slice of a batch (whole interaction-closed components, see
:meth:`~repro.core.planner.CrowdPlanner.shard_plan`) plus the destination
cells whose truth slice the shard may observe.  The primitives here are used
identically by the persistent pool workers (:mod:`repro.serving.worker`)
and the pooled backend's in-process tail (:func:`execute_jobs_inline`):

* :func:`build_shard_clone` — a planner over a copy-on-write
  :meth:`~repro.core.truth.TruthDatabase.view_by_cells` slice of the base
  planner's truth store, with isolated evaluator/worker-pool/statistics;
* :func:`execute_shard_job` — run one job on a clone, collecting results,
  the statistics delta and the newly recorded truths;
* :func:`merge_shard_outcomes` — replay every shard's writes onto the parent
  planner in submission order, reproducing the exact state a sequential run
  would have left.

On top of those primitives sits the *intra-component pipeline*: when one
interaction component is too large to split (a city-center hotspot — every
query within reach of one dominant destination), :func:`split_oversized`
re-stages it as an **ordered dataflow of sub-shards**.  The component's
od-cell groups are condensed into atomic units (strongly connected pieces of
the visibility graph), the units form a DAG whose edges follow submission
order, and oversized units are sliced into contiguous submission-index
chunks.  Each sub-shard declares ``predecessors`` (completion gates) and
``handoff_from`` (whose recorded truths it must adopt before running); the
parent relays those hand-off deltas worker→worker with provisional truth
ids from :func:`handoff_id_base`, and :class:`ChainState` tracks the whole
dance per batch.  Merges still replay in strict submission order, so the
serving contract is untouched — the pipeline only changes *where* and *when*
slices of the component execute.

Everything that crosses a process boundary (:class:`ShardJob` down,
:class:`ShardOutcome` up) is plain picklable data; planner substrate never
travels — workers inherit it through ``fork``.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import os
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.planner import CrowdPlanner, QueryShard, RecommendationResult, ShardPlan
from ..core.truth import VerifiedTruth, truth_id_watermark
from ..exceptions import ServingError
from ..routing.base import RouteQuery


@dataclass
class ShardJob:
    """One shard of one batch, ready to be executed anywhere.

    ``predecessors``/``handoff_from`` mirror the sub-shard chain edges of
    :class:`~repro.core.planner.QueryShard` (empty for ordinary component
    shards); ``adopt`` is filled in by the dispatcher just before the job is
    sent — the upstream hand-off truths (a plain list or a columnar
    :class:`~repro.serving.protocol.TruthDeltaBlock`) the executing clone
    adopts before running its slice.  ``tenant`` names the workspace whose
    truth store the job executes against (``""`` is the backend's default,
    single-tenant planner); pool workers use it to select the matching warm
    truth base.
    """

    shard_id: int
    indices: Tuple[int, ...]
    destination_cells: FrozenSet[Tuple[int, int]]
    queries: List[RouteQuery]
    share_candidate_generation: bool = True
    predecessors: Tuple[int, ...] = ()
    handoff_from: Tuple[int, ...] = ()
    adopt: Optional[object] = None
    tenant: str = ""


@dataclass
class ShardOutcome:
    """Everything a shard execution produced, in shard submission order."""

    shard_id: int
    indices: Tuple[int, ...]
    results: List[RecommendationResult]
    statistics_delta: Dict[str, int]
    new_truths: List[VerifiedTruth]
    worker_pid: int
    tenant: str = ""


def build_shard_clone(planner: CrowdPlanner, destination_cells) -> CrowdPlanner:
    """A planner over the shard's truth slice and a private worker pool.

    Road network, catalogue, sources, task generator, crowd backend and the
    fitted familiarity model are shared (read-only during a batch); the truth
    store (a copy-on-write destination-cell view), evaluator, worker pool,
    rewards and statistics are isolated so a shard's writes never leak into
    another shard or the base planner.
    """
    clone = CrowdPlanner(
        network=planner.network,
        catalog=planner.catalog,
        calibrator=planner.calibrator,
        sources=planner.sources,
        worker_pool=copy.deepcopy(planner.worker_pool),
        crowd_backend=planner.crowd_backend,
        config=planner.config,
        familiarity=planner.familiarity,
        task_generator=planner.task_generator,
    )
    clone.truths = planner.truths.view_by_cells(destination_cells)
    # A shallow copy of the base planner's evaluator rebound to the slice:
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
    if config is None:
        config = template.config
    return CrowdPlanner(
        network=template.network,
        catalog=template.catalog,
        calibrator=template.calibrator,
        sources=template.sources,
        worker_pool=copy.deepcopy(template.worker_pool),
        crowd_backend=template.crowd_backend,
        config=config,
        familiarity=template.familiarity,
        task_generator=template.task_generator,
    )


def execute_shard_job(planner: CrowdPlanner, job: ShardJob) -> ShardOutcome:
    """Execute ``job`` on a fresh clone of ``planner``; the base planner's
    truth store is read, never written.

    A sub-shard's hand-off delta (``job.adopt``) lands in the clone's
    copy-on-write overlay *before* the truth cursor is taken, so adopted
    upstream truths are visible to the slice (with ids newer than every base
    truth, matching sequential recording order) but are never re-reported as
    this shard's own writes.
    """
    clone = build_shard_clone(planner, job.destination_cells)
    if job.adopt:
        clone.truths.adopt_all(job.adopt)
    before = len(clone.truths)
    results = clone.recommend_batch(
        job.queries, share_candidate_generation=job.share_candidate_generation
    )
    return ShardOutcome(
        shard_id=job.shard_id,
        indices=job.indices,
        results=results,
        statistics_delta=clone.statistics.as_dict(),
        new_truths=clone.truths.all()[before:],
        worker_pid=os.getpid(),
        tenant=job.tenant,
    )


def tag_outcome_truths(outcome: ShardOutcome) -> List[Tuple[int, VerifiedTruth]]:
    """Pair each newly recorded truth with the submission index that wrote it.

    Every result other than a truth-reuse hit recorded exactly one truth in
    its shard, in shard execution order, so walking results and truths in
    lockstep recovers the (global submission index, truth) pairing the merge
    and the hand-off chain both rely on.
    """
    tagged: List[Tuple[int, VerifiedTruth]] = []
    truth_iter = iter(outcome.new_truths)
    for local, original in enumerate(outcome.indices):
        if outcome.results[local].method != "truth_reuse":
            try:
                tagged.append((original, next(truth_iter)))
            except StopIteration:  # pragma: no cover - defensive
                raise ServingError(
                    "shard recorded fewer truths than its results imply"
                ) from None
    if next(truth_iter, None) is not None:  # pragma: no cover - defensive
        raise ServingError("shard recorded more truths than its results imply")
    return tagged


def merge_shard_outcomes(
    planner: CrowdPlanner,
    num_queries: int,
    outcomes: List[ShardOutcome],
) -> List[RecommendationResult]:
    """Reassemble submission order and replay shard writes onto the parent.

    Truths are paired back to their submission indices
    (:func:`tag_outcome_truths`), sorted, and re-recorded globally in
    submission order — the order the sequential path would have used.  Crowd
    task results replay worker answer histories and rewards (with task ids
    re-issued from the parent's sequence), and statistics counters are
    summed.
    """
    ordered: List[Optional[RecommendationResult]] = [None] * num_queries
    tagged_truths: List[Tuple[int, VerifiedTruth]] = []
    for outcome in outcomes:
        tagged_truths.extend(tag_outcome_truths(outcome))
        for local, original in enumerate(outcome.indices):
            if ordered[original] is not None:
                raise ServingError(f"query {original} served by more than one shard")
            ordered[original] = outcome.results[local]
        planner.statistics.merge(outcome.statistics_delta)
    tagged_truths.sort(key=lambda item: item[0])
    planner.truths.absorb([truth for _, truth in tagged_truths])
    for result in ordered:
        if result is None:  # pragma: no cover - defensive
            raise ServingError("a query was not covered by any shard")
        if result.task_result is not None:
            planner.replay_task_result(result.task_result)
    return ordered  # type: ignore[return-value]


# ------------------------------------------------- intra-component pipeline
#: Provisional hand-off truth ids live in their own high region so they rank
#: strictly newer than every parent-issued id a worker clone can see.  The
#: region advances past the current watermark per window; batches within a
#: window take disjoint ``HANDOFF_BATCH_BITS`` stripes inside it.
HANDOFF_REGION_BITS = 40
HANDOFF_BATCH_BITS = 30


def handoff_id_base(batch_offset: int = 0) -> int:
    """Base for the provisional truth ids of one batch's hand-off chain.

    Retagged hand-off truths carry ``base + submission_index``: unique,
    ordered exactly as a sequential run would have issued them relative to
    each other, and — because the region sits strictly above the current
    :func:`~repro.core.truth.truth_id_watermark` — newer than every truth a
    clone's base view can contain.  The per-batch stripe keeps later
    batches' bases above any ids the parent issues while earlier batches of
    the same window merge (a window never issues anywhere near
    ``2**HANDOFF_BATCH_BITS`` ids).  The provisional ids never reach the
    parent store: the merge re-issues real ids in submission order, exactly
    as for unchained shards.
    """
    watermark = truth_id_watermark()
    region = ((watermark >> HANDOFF_REGION_BITS) + 1) << HANDOFF_REGION_BITS
    return region + (batch_offset << HANDOFF_BATCH_BITS)


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
    planner: CrowdPlanner,
    shard: QueryShard,
    queries: Sequence[RouteQuery],
    max_size: int,
    reach: int,
) -> List[Tuple[List[int], List[int], List[int]]]:
    """Slice one oversized shard into an ordered dataflow of sub-shards.

    The shard's od-cell groups form a *visibility graph*: a truth recorded
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
    local_queries = [queries[index] for index in shard.indices]
    groups = planner.od_cell_groups(local_queries)
    keys = list(groups)
    members = [sorted(shard.indices[local] for local in groups[key]) for key in keys]
    count = len(keys)

    succ: List[List[int]] = [[] for _ in range(count)]
    for g in range(count):
        key_g = keys[g]
        for h in range(g + 1, count):
            key_h = keys[h]
            if any(abs(key_g[axis] - key_h[axis]) > reach for axis in range(4)):
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
        handoff_base = sorted(s for p in direct for s in unit_slices[p])
        slices: List[int] = []
        for chunk_index in range(chunks):
            chunk = indices[chunk_index * size : (chunk_index + 1) * size]
            if not chunk:
                break
            position = len(nodes)
            preds = list(pred_last) if not slices else [slices[-1]]
            nodes.append((chunk, preds, handoff_base + slices))
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
    so ascending shard id remains a valid execution order for the whole
    plan — which is exactly the order the inline/degraded paths use.
    """
    if max_fraction >= 1.0 or not plan.shards or plan.num_queries == 0:
        return plan
    max_size = max(1, int(max_fraction * plan.num_queries))
    if all(len(shard) <= max_size for shard in plan.shards):
        return plan
    rebuilt: List[QueryShard] = []
    for shard in sorted(plan.shards, key=lambda item: item.shard_id):
        if len(shard) <= max_size:
            rebuilt.append(dataclasses.replace(shard, shard_id=len(rebuilt)))
            continue
        first = len(rebuilt)
        for indices, pred_locals, handoff_locals in _stage_dataflow(
            planner, shard, queries, max_size, plan.cell_reach
        ):
            rebuilt.append(
                QueryShard(
                    shard_id=len(rebuilt),
                    indices=tuple(indices),
                    # The parent's reach-expanded closure stays sound for
                    # every slice: the destination-keyed view only widens the
                    # candidate set, and radius filtering prunes it exactly
                    # as the sequential store would.
                    destination_cells=shard.destination_cells,
                    components=1,
                    predecessors=tuple(first + p for p in pred_locals),
                    handoff_from=tuple(first + h for h in handoff_locals),
                )
            )
    return dataclasses.replace(plan, shards=tuple(rebuilt))


class ChainState:
    """Parent-side bookkeeping of one batch's sub-shard hand-off chain.

    Tracks which sub-shards completed, retags every producer's new truths
    with provisional ids (``id_base + submission_index`` — see
    :func:`handoff_id_base`), and builds each downstream job's adopt payload
    — encoded with ``encoder`` (the pooled backend passes the columnar
    codec) or left a plain list.  Payloads are memoised per
    ``handoff_from`` signature, so a resubmitted job rebuilds byte-identical
    state.
    """

    def __init__(
        self,
        jobs: Sequence[ShardJob],
        id_base: int,
        encoder: Optional[Callable[[List[VerifiedTruth]], object]] = None,
    ):
        self.id_base = id_base
        self._encoder = encoder
        self._producers: Set[int] = {
            shard_id for job in jobs for shard_id in job.handoff_from
        }
        self._truths: Dict[int, List[VerifiedTruth]] = {}
        self._completed: Set[int] = set()
        self._payloads: Dict[Tuple[int, ...], object] = {}

    @property
    def active(self) -> bool:
        """Whether any job of this batch waits on another's truths."""
        return bool(self._producers)

    def record(self, outcome: ShardOutcome) -> None:
        """Note a completed sub-shard; retain its truths if consumed later."""
        self._completed.add(outcome.shard_id)
        if outcome.shard_id in self._producers and outcome.shard_id not in self._truths:
            self._truths[outcome.shard_id] = [
                dataclasses.replace(truth, truth_id=self.id_base + original)
                for original, truth in tag_outcome_truths(outcome)
            ]

    def ready(self, job: ShardJob) -> bool:
        """Whether every predecessor sub-shard has completed."""
        return all(pred in self._completed for pred in job.predecessors)

    def payload(self, job: ShardJob) -> Optional[object]:
        """The adopt payload for ``job`` (``None`` when it has no hand-off)."""
        if not job.handoff_from:
            return None
        key = tuple(job.handoff_from)
        cached = self._payloads.get(key)
        if cached is not None:
            return cached
        missing = [sid for sid in key if sid not in self._completed]
        if missing:  # pragma: no cover - dispatch guard
            raise ServingError(
                f"hand-off truths of sub-shards {missing} are not available yet"
            )
        truths = sorted(
            (truth for sid in key for truth in self._truths.get(sid, ())),
            key=lambda truth: truth.truth_id,
        )
        payload: object = truths
        if self._encoder is not None and truths:
            payload = self._encoder(truths)
        self._payloads[key] = payload
        return payload


def execute_jobs_inline(
    planner: CrowdPlanner, jobs: Sequence[ShardJob], chain: ChainState
) -> List[ShardOutcome]:
    """Execute one batch's jobs in-process in shard-id order, driving its
    hand-off ``chain``: the pooled backend's in-process tail, which serves
    every window on a platform without ``fork`` and the rest of a window
    whose pool was lost with the respawn budget spent.

    Shard ids are a topological order of the chain DAG (``split_oversized``
    renumbers them that way), so ascending execution satisfies every
    predecessor before its consumers and reproduces the sequential prefix
    exactly.
    """
    outcomes: List[ShardOutcome] = []
    for job in sorted(jobs, key=lambda item: item.shard_id):
        if not chain.ready(job):  # pragma: no cover - topo-order guard
            raise ServingError(f"sub-shard {job.shard_id} is not executable in shard-id order")
        job.adopt = chain.payload(job)
        outcome = execute_shard_job(planner, job)
        outcomes.append(outcome)
        chain.record(outcome)
    return outcomes
