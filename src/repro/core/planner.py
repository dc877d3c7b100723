"""The CrowdPlanner facade: control logic of the whole system (Section II-B).

:class:`CrowdPlanner` wires together every component into the paper's
workflow:

1. **Truth reuse** — if a verified truth matches the request, return it.
2. **Candidate generation** — collect routes from all configured sources
   (web services and popular-route miners).
3. **Automatic evaluation** — answer immediately when candidates agree or a
   candidate's truth-based confidence clears the threshold.
4. **Crowd task** — otherwise generate a task, select the top-k eligible
   workers, collect their answers through the crowd backend (early-stopping
   when possible), aggregate, reward workers, update their answer history and
   record the verified truth.
"""

from __future__ import annotations

import abc
import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..config import DEFAULT_CONFIG, PlannerConfig
from ..exceptions import (
    CrowdPlannerError,
    RoutingError,
    TaskGenerationError,
    WorkerSelectionError,
)
from ..landmarks.model import LandmarkCatalog
from ..roadnet.graph import RoadNetwork
from ..routing.base import CandidateRoute, RouteQuery, RouteSource
from ..spatial import GridIndex, Point, rank_tolerance
from ..trajectory.calibration import AnchorCalibrator
from .aggregation import AnswerAggregator
from .early_stop import EarlyStopMonitor
from .evaluation import EvaluationDecision, EvaluationOutcome, RouteEvaluator
from .familiarity import FamiliarityModel
from .rewards import RewardLedger
from .task import ResponseBlock, Task, TaskResult, reissue_task_id
from .task_generation import TaskGenerator
from .truth import TruthDatabase, VerifiedTruth
from .worker import WorkerPool
from .worker_selection import WorkerSelector


class CrowdBackend(abc.ABC):
    """Source of worker responses.

    Production deployments would push questions to mobile clients; the
    reproduction uses :class:`repro.crowd.simulator.SimulatedCrowd`.
    """

    @abc.abstractmethod
    def collect_responses_block(self, task: Task, worker_ids: Sequence[int]) -> ResponseBlock:
        """Return the workers' responses, in arrival order, as one columnar block."""


@dataclass
class RecommendationResult:
    """What a route-recommendation request produced."""

    query: RouteQuery
    route: CandidateRoute
    method: str                      # "truth_reuse" | "agreement" | "confident" | "crowd" | "single_candidate"
    confidence: float
    candidates: List[CandidateRoute] = field(default_factory=list)
    evaluation: Optional[EvaluationOutcome] = None
    task_result: Optional[TaskResult] = None

    @property
    def used_crowd(self) -> bool:
        return self.method == "crowd"


@dataclass
class PlannerStatistics:
    """Counters of how requests were resolved (used by the cost experiments)."""

    requests: int = 0
    truth_hits: int = 0
    agreement_answers: int = 0
    confident_answers: int = 0
    crowd_tasks: int = 0
    single_candidate_answers: int = 0
    questions_asked: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "truth_hits": self.truth_hits,
            "agreement_answers": self.agreement_answers,
            "confident_answers": self.confident_answers,
            "crowd_tasks": self.crowd_tasks,
            "single_candidate_answers": self.single_candidate_answers,
            "questions_asked": self.questions_asked,
        }

    def count(self, result: RecommendationResult) -> None:
        """Count one answered request: ``requests``, its method's counter
        and, for a crowd answer, the task and the questions it asked.

        The counters are a function of the results alone, so the serving
        merge counts a batch's merged results exactly as
        :meth:`CrowdPlanner.recommend` counted them where they ran.
        """
        self.requests += 1
        if result.task_result is not None:
            self.crowd_tasks += 1
            self.questions_asked += result.task_result.total_questions_asked
        else:
            name = _METHOD_COUNTERS[result.method]
            setattr(self, name, getattr(self, name) + 1)


#: The :class:`PlannerStatistics` counter of each non-crowd answer method.
_METHOD_COUNTERS = {
    "truth_reuse": "truth_hits",
    "agreement": "agreement_answers",
    "confident": "confident_answers",
    "single_candidate": "single_candidate_answers",
}


@dataclass(frozen=True)
class QueryShard:
    """One worker's slice of a batch: whole interaction-closed components.

    ``indices`` are submission positions into the original query list, in
    ascending (submission) order; ``destination_cells`` is the reach-expanded
    set of destination grid cells the shard's recorded truths can land in or
    be read from.  It is a plan diagnostic: execution never reads it (a
    shard clone reads the whole store through
    :meth:`TruthDatabase.overlay`).

    Sub-shards produced by :func:`repro.serving.shards.split_oversized` (a
    diagnostic of plan shape) additionally carry chain edges:
    ``predecessors`` are the shard ids that must finish before this
    sub-shard could start, and ``handoff_from`` the shard ids whose recorded
    truths it can observe (a superset of ``predecessors`` — the whole
    upstream slice of its dataflow).  Both are empty for ordinary component
    shards, which remain mutually interaction-free.
    """

    shard_id: int
    indices: Tuple[int, ...]
    destination_cells: FrozenSet[Tuple[int, int]]
    components: int
    predecessors: Tuple[int, ...] = ()
    handoff_from: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ShardPlan:
    """How a batch of queries is split across serving workers.

    Shards are unions of *interaction-closed components*: two queries land in
    the same component whenever a truth recorded for one could influence the
    other — their origin cells and destination cells are both within
    ``cell_reach`` grid cells, the quantised form of ``interaction_radius_m``
    (the larger of the truth-reuse radius and the evaluator's neighbourhood
    radius).  Queries in different components can therefore be answered in
    different processes, in any order, without observing each other, which is
    what makes sharded execution bit-identical to sequential execution.

    ``od_cell_groups`` is the batch's :meth:`CrowdPlanner.od_cell_groups`
    map the plan was linked from (``None`` for a plan built by hand), kept
    so :func:`repro.serving.shards.split_oversized` restages oversized
    shards without regrouping the batch.  It is derived data: plans compare
    equal without it.
    """

    shards: Tuple[QueryShard, ...]
    num_queries: int
    interaction_radius_m: float
    cell_size_m: float
    cell_reach: int
    od_cell_groups: Optional[Dict[tuple, List[int]]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def num_components(self) -> int:
        return sum(shard.components for shard in self.shards)

    def largest_shard_fraction(self) -> float:
        """Load skew diagnostic: fraction of the batch in the biggest shard."""
        if not self.shards or self.num_queries == 0:
            return 0.0
        return max(len(shard) for shard in self.shards) / self.num_queries

    def chain_depth(self) -> int:
        """Length of the longest sub-shard hand-off chain in this plan.

        ``1`` for any non-empty plan without sub-shards (every shard is its
        own chain of one), ``0`` for an empty plan.  After
        :func:`repro.serving.shards.split_oversized` this is the critical
        path of the dataflow DAG — how many sub-shards would run strictly
        one after another if the split component were staged.
        """
        if not self.shards:
            return 0
        depth: Dict[int, int] = {}
        # Shard ids are a topological order of the chain DAG (predecessors
        # always carry smaller ids), so one ascending pass suffices.
        for shard in sorted(self.shards, key=lambda s: s.shard_id):
            depth[shard.shard_id] = 1 + max(
                (depth.get(pred, 0) for pred in shard.predecessors), default=0
            )
        return max(depth.values())


#: Radix of :func:`_pack_coarse`: digits (coarse cells, possibly negative)
#: stay far below half of it, so packing is injective and linear.
_COARSE_RADIX = 1 << 32


def _pack_coarse(digits: Sequence[int]) -> int:
    """One int per coarse od-cell; neighbours differ by a packed offset."""
    code = 0
    for digit in digits:
        code = code * _COARSE_RADIX + digit
    return code


#: Packed offsets of the 41 neighbouring coarse cells lexicographically at or
#: after a cell (itself included): visiting only these sees each pair of
#: neighbouring buckets once.
_FORWARD_OFFSETS = tuple(
    sorted(
        code
        for code in {_pack_coarse(delta) for delta in itertools.product((-1, 0, 1), repeat=4)}
        if code >= 0
    )
)


# A reach-7 square is ~20 KB, so the memo stays under ~20 MB however many
# destinations a service sees; hot destinations are far fewer.
@functools.lru_cache(maxsize=1024)
def _reach_square(x: int, y: int, reach: int) -> FrozenSet[Tuple[int, int]]:
    """The cells within ``reach`` of cell ``(x, y)`` on both axes."""
    span = range(-reach, reach + 1)
    return frozenset((x + dx, y + dy) for dx in span for dy in span)


def reach_closure(centres, reach: int) -> FrozenSet[Tuple[int, int]]:
    """Every cell within ``reach`` of a cell in ``centres``.

    A C-level union of per-centre squares; the squares are memoised by
    ``(centre, reach)`` (hot destinations repeat batch after batch).  The
    unions are not: one per distinct centre combination would hold a large
    set per combination ever planned.
    """
    return frozenset().union(*[_reach_square(x, y, reach) for x, y in centres])


def _reuse_result(query: RouteQuery, truth: VerifiedTruth) -> RecommendationResult:
    """The answer to ``query`` served from the stored ``truth``."""
    return RecommendationResult(
        query=query, route=truth.route, method="truth_reuse", confidence=truth.confidence
    )


class CrowdPlanner:
    """End-to-end crowd-based route recommendation system."""

    def __init__(
        self,
        network: RoadNetwork,
        catalog: LandmarkCatalog,
        calibrator: AnchorCalibrator,
        sources: Sequence[RouteSource],
        worker_pool: WorkerPool,
        crowd_backend: Optional[CrowdBackend] = None,
        config: PlannerConfig = DEFAULT_CONFIG,
        familiarity: Optional[FamiliarityModel] = None,
        task_generator: Optional[TaskGenerator] = None,
    ):
        if not sources:
            raise CrowdPlannerError("CrowdPlanner needs at least one candidate-route source")
        self.network = network
        self.catalog = catalog
        self.calibrator = calibrator
        self.sources = list(sources)
        self.worker_pool = worker_pool
        self.crowd_backend = crowd_backend
        self.config = config

        self.truths = TruthDatabase(network, config)
        self.evaluator = RouteEvaluator(network, self.truths, config)
        self.task_generator = task_generator or TaskGenerator(calibrator, catalog)
        self.familiarity = familiarity
        self.worker_selector: Optional[WorkerSelector] = None
        if familiarity is not None:
            self.worker_selector = WorkerSelector(worker_pool, familiarity, config)
        self.aggregator = AnswerAggregator(config, EarlyStopMonitor(config))
        self.rewards = RewardLedger(worker_pool, config)
        self.statistics = PlannerStatistics()

    # -------------------------------------------------------------- plumbing
    def prepare_workers(self, use_pmf: bool = True) -> None:
        """Fit the familiarity model (must run before crowd tasks can be assigned)."""
        if self.familiarity is None:
            self.familiarity = FamiliarityModel(self.worker_pool, self.catalog, self.config)
        self.familiarity.fit(use_pmf=use_pmf)
        self.worker_selector = WorkerSelector(self.worker_pool, self.familiarity, self.config)
        # A familiarity refresh is the population-change boundary: backends
        # that precompute population-level answer accuracies (the simulated
        # crowd's columnar fast path) rebuild their matrix here.
        refresh = getattr(self.crowd_backend, "refresh_population_accuracies", None)
        if refresh is not None:
            refresh()

    def generate_candidates(self, query: RouteQuery) -> List[CandidateRoute]:
        """Collect candidate routes from every source, dropping failures and duplicates.

        Sources that ignore the departure time memoise their answers per od
        pair (:class:`~repro.routing.base.OdMemo`), so a repeated pair
        costs no search.
        """
        candidates: List[CandidateRoute] = []
        seen_paths = set()
        for source in self.sources:
            candidate = source.recommend_or_none(query)
            if candidate is None:
                continue
            if candidate.path in seen_paths:
                continue
            seen_paths.add(candidate.path)
            candidates.append(candidate)
        return candidates

    # ------------------------------------------------------------- interface
    def recommend(self, query: RouteQuery) -> RecommendationResult:
        """Answer one route-recommendation request through the full pipeline."""
        result = self._answer(query)
        self.statistics.count(result)
        return result

    def _answer(self, query: RouteQuery) -> RecommendationResult:
        """:meth:`recommend`'s pipeline, before the answer is counted."""
        # Step 1: truth reuse.
        truth = self.truths.lookup(query)
        if truth is not None:
            return _reuse_result(query, truth)

        # Step 2: candidate generation.
        candidates = self.generate_candidates(query)
        if not candidates:
            raise RoutingError(
                f"no source produced a route between {query.origin} and {query.destination}"
            )
        if len(candidates) == 1:
            self.truths.record(query, candidates[0], verified_by="single_candidate", confidence=0.5)
            return RecommendationResult(
                query=query,
                route=candidates[0],
                method="single_candidate",
                confidence=0.5,
                candidates=candidates,
            )

        # Step 3: automatic evaluation.
        outcome = self.evaluator.evaluate(query, candidates)
        if outcome.decision is EvaluationDecision.AGREEMENT:
            self.truths.record(query, outcome.best_route, verified_by="agreement", confidence=0.9)
            return RecommendationResult(
                query=query,
                route=outcome.best_route,
                method="agreement",
                confidence=0.9,
                candidates=candidates,
                evaluation=outcome,
            )
        if outcome.decision is EvaluationDecision.CONFIDENT:
            confidence = max(outcome.confidences.values())
            self.truths.record(query, outcome.best_route, verified_by="confidence", confidence=confidence)
            return RecommendationResult(
                query=query,
                route=outcome.best_route,
                method="confident",
                confidence=confidence,
                candidates=candidates,
                evaluation=outcome,
            )

        # Step 4: crowd task.
        return self._crowdsource(query, candidates, outcome)

    def od_cell_groups(self, queries: Sequence[RouteQuery]) -> Dict[tuple, List[int]]:
        """Group query indices by their (origin cell, destination cell).

        Cells quantise the endpoints at the truth-reuse radius, so a group
        collects the queries whose answers can plausibly feed each other
        (shared candidate generation for od-identical members, truth reuse
        for near members).  Exposed for batch diagnostics and for sources
        that want spatial batching in :meth:`RouteSource.prepare_batch`.
        """
        cell = self.truths.reuse_cell_size_m
        groups: Dict[tuple, List[int]] = {}
        for index, query in enumerate(queries):
            origin = self.network.node_location(query.origin)
            destination = self.network.node_location(query.destination)
            key = (
                int(origin.x // cell),
                int(origin.y // cell),
                int(destination.x // cell),
                int(destination.y // cell),
            )
            groups.setdefault(key, []).append(index)
        return groups

    def shard_plan(self, queries: Sequence[RouteQuery], shards: int) -> ShardPlan:
        """Partition a batch into at most ``shards`` interaction-closed shards.

        Queries are first grouped by od-cell (:meth:`od_cell_groups`), the
        groups are linked into components whenever both their origin cells and
        their destination cells lie within the *interaction reach* — the
        quantised maximum of the truth-reuse radius and the evaluator's
        neighbourhood radius, i.e. the farthest a truth recorded for one query
        can be seen by another — and whole components are packed onto shards
        largest-first.  Because no truth can cross a component boundary,
        executing each shard's queries in submission order (on an overlay
        over the window-start store) reproduces the sequential batch
        exactly; the serving layer
        (:class:`repro.serving.RecommendationService` and its pooled backend)
        is built on this guarantee — including across batch boundaries: the
        pooled backend plans a whole window of batches as one call, since
        the closure argument never reads batch boundaries.
        """
        if shards < 1:
            raise CrowdPlannerError("shard_plan needs at least one shard")
        cell = self.truths.reuse_cell_size_m
        radius = max(self.config.truth_reuse_radius_m, self.evaluator.neighbourhood_radius_m)
        reach = int(radius // cell) + 1

        # Largest component first, earliest query breaking ties, onto the
        # least-loaded shard — deterministic for a fixed workload.
        groups = self.od_cell_groups(queries)
        built = sorted(
            self._interaction_components(groups, reach),
            key=lambda item: (-len(item[0]), item[0][0]),
        )
        shard_count = max(1, min(shards, len(built)))
        loads = [0] * shard_count
        assigned: List[List[Tuple[List[int], FrozenSet[Tuple[int, int]]]]] = [
            [] for _ in range(shard_count)
        ]
        for component in built:
            target = min(range(shard_count), key=lambda s: (loads[s], s))
            assigned[target].append(component)
            loads[target] += len(component[0])
        shards_built = []
        for shard_id, members in enumerate(assigned):
            if not members:
                continue
            shards_built.append(
                QueryShard(
                    shard_id=shard_id,
                    indices=tuple(sorted(itertools.chain.from_iterable(c[0] for c in members))),
                    destination_cells=reach_closure(
                        frozenset().union(*(c[1] for c in members)), reach
                    ),
                    components=len(members),
                )
            )
        return ShardPlan(
            shards=tuple(shards_built),
            num_queries=len(queries),
            interaction_radius_m=radius,
            cell_size_m=cell,
            cell_reach=reach,
            od_cell_groups=groups,
        )

    def _interaction_components(
        self, groups: Dict[tuple, List[int]], reach: int
    ) -> List[Tuple[List[int], FrozenSet[Tuple[int, int]]]]:
        """The batch's interaction-closed components (see :meth:`shard_plan`)
        over its od-cell ``groups``.

        Each component is ``(sorted submission indices, destination-cell
        centres)``: the destination cells of its od-cell groups, whose
        ``reach`` squares form its shard's ``destination_cells``.
        """
        keys = list(groups)
        parent = list(range(len(keys)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        # Groups within reach in every od-cell axis must share a component.
        # Bucketing by reach-sized coarse cells bounds the pair checks: any
        # two groups within reach differ by at most one coarse cell per axis,
        # so each pair of neighbouring buckets is one forward offset apart.
        buckets: Dict[int, List[int]] = {}
        for index, key in enumerate(keys):
            buckets.setdefault(_pack_coarse([value // reach for value in key]), []).append(index)
        for code, members in buckets.items():
            for offset in _FORWARD_OFFSETS:
                neighbours = buckets.get(code + offset)
                if neighbours is None:
                    continue
                for i in members:
                    a0, a1, a2, a3 = keys[i]
                    for j in neighbours:
                        if offset == 0 and j <= i:
                            continue
                        b0, b1, b2, b3 = keys[j]
                        if (
                            abs(a0 - b0) <= reach
                            and abs(a1 - b1) <= reach
                            and abs(a2 - b2) <= reach
                            and abs(a3 - b3) <= reach
                        ):
                            union(i, j)

        components: Dict[int, List[int]] = {}
        for index in range(len(keys)):
            components.setdefault(find(index), []).append(index)
        built = []
        for group_indices in components.values():
            indices = sorted(
                itertools.chain.from_iterable(groups[keys[gi]] for gi in group_indices)
            )
            centres = frozenset((keys[gi][2], keys[gi][3]) for gi in group_indices)
            built.append((indices, centres))
        return built

    def warm_batch(self, queries: Sequence[RouteQuery]) -> None:
        """One-off warm-ups before a batch: compile the road network's
        flat-array view and run every source's
        :meth:`RouteSource.prepare_batch` hook.  Shared by
        :meth:`recommend_batch` and the sharded serving engine (which warms
        once in the parent so forked workers inherit the state)."""
        self.network.compiled()
        for source in self.sources:
            source.prepare_batch(queries)

    def recommend_batch(self, queries: Sequence[RouteQuery]) -> List[RecommendationResult]:
        """Answer a batch of route-recommendation requests in order.

        Semantically identical to calling :meth:`recommend` per query —
        including the truth store accumulating between requests, so later
        queries in the batch can be served by truths recorded for earlier
        ones.  Two batch-level warm-ups keep per-request latency flat
        without changing any answer:

        * the road network's compiled flat-array view is built up front, so
          the first request does not pay the one-off CSR build;
        * every source's :meth:`RouteSource.prepare_batch` hook runs once
          (e.g. the MPR miner compiles its popularity cost vector before the
          first query instead of inside it).
        """
        queries = list(queries)
        self.warm_batch(queries)
        return [self.recommend(query) for query in queries]

    def settled_hits(
        self, batches: Sequence[Sequence[RouteQuery]]
    ) -> List[Dict[int, RecommendationResult]]:
        """Per batch of a window, ``{index: result}`` for the queries the
        truth store as it is now already answers, whatever the window writes.

        The pass walks the window's queries in submission order and keeps
        the window's *pending writes*.  It rests on three facts: a truth
        reuse writes nothing; every other answer records exactly one truth,
        at its own query's endpoints and slot, with an id larger than any
        stored one; and :meth:`TruthDatabase.lookup` ranks by (origin
        distance, truth id).  So a query is *settled* with its memoised
        match ``T`` when no pending write could rank before ``T``: none in
        its slot within the reuse radius at both ends at an origin distance
        up to ``T``'s.  The distance comparison errs toward not settling by
        the grid index's :func:`~repro.spatial.rank_tolerance`, so a write
        tied with ``T`` blocks it too.  A query some pending write answers
        writes nothing; a query nothing answers is a miss and adds a pending
        write.
        The pending writes are indexed by origin per slot, so a write-heavy
        window costs O(local) per query.
        """
        truths = self.truths
        locate = self.network.node_location
        radius = self.config.truth_reuse_radius_m
        tolerance = rank_tolerance(radius)
        pending: Dict[int, GridIndex[int]] = {}
        destinations: List[Point] = []
        settled: List[Dict[int, RecommendationResult]] = []
        for queries in batches:
            hits: Dict[int, RecommendationResult] = {}
            for index, query in enumerate(queries):
                found = truths.match(query)
                slot = truths.time_slot_of(query.departure_time_s)
                writes = pending.get(slot)
                if writes is None and found is not None:
                    hits[index] = _reuse_result(query, found[1])
                    continue
                origin, destination = locate(query.origin), locate(query.destination)
                rivals = [] if writes is None else [
                    distance
                    for item, distance in writes.within_radius(origin, radius)
                    if destinations[item].distance_to(destination) <= radius
                ]
                if found is None:
                    if not rivals:
                        if writes is None:
                            writes = pending[slot] = GridIndex(truths.reuse_cell_size_m)
                        writes.insert(len(destinations), origin)
                        destinations.append(destination)
                elif not rivals or min(rivals) > found[0] + tolerance:
                    hits[index] = _reuse_result(query, found[1])
            settled.append(hits)
        return settled

    # ----------------------------------------------------------------- crowd
    def _crowdsource(
        self,
        query: RouteQuery,
        candidates: Sequence[CandidateRoute],
        outcome: EvaluationOutcome,
    ) -> RecommendationResult:
        if self.crowd_backend is None:
            raise CrowdPlannerError(
                "the request needs crowdsourcing but no crowd backend is configured"
            )
        if self.worker_selector is None:
            raise CrowdPlannerError(
                "prepare_workers() must be called before crowdsourcing tasks"
            )
        try:
            task = self.task_generator.generate(query, candidates)
        except TaskGenerationError:
            # All candidates pass the same landmarks; pick the best supported
            # one — the crowd could not tell them apart anyway.
            best = sorted(candidates, key=lambda c: (-c.support, c.source))[0]
            self.truths.record(query, best, verified_by="indistinguishable", confidence=0.6)
            return RecommendationResult(
                query=query,
                route=best,
                method="single_candidate",
                confidence=0.6,
                candidates=list(candidates),
                evaluation=outcome,
            )

        worker_ids = self.worker_selector.select(task, self.config.workers_per_task)
        for worker_id in worker_ids:
            self.worker_pool.assign(worker_id)
        try:
            block = self.crowd_backend.collect_responses_block(task, worker_ids)
        finally:
            for worker_id in worker_ids:
                self.worker_pool.release(worker_id)

        if not len(block):
            raise WorkerSelectionError("the crowd backend returned no responses")
        result = self.aggregator.collect_block_with_early_stop(
            task, block, expected_total=len(worker_ids)
        )
        self._update_answer_history(result)
        self.rewards.reward_task(result)
        self.truths.record(query, result.winning_route, verified_by="crowd", confidence=result.confidence)
        return RecommendationResult(
            query=query,
            route=result.winning_route,
            method="crowd",
            confidence=result.confidence,
            candidates=list(candidates),
            evaluation=outcome,
            task_result=result,
        )

    # ------------------------------------------------------- serving hooks
    def truth_cursor(self) -> int:
        """Position marker into the truth store's record order (delta export).

        Capture before handing state to a serving worker; pass to
        :meth:`truth_delta` later to get exactly the truths recorded since.
        """
        return len(self.truths)

    def truth_delta(self, cursor: int, upto: Optional[int] = None) -> List["VerifiedTruth"]:
        """The truths recorded/absorbed since ``cursor`` (see :meth:`truth_cursor`).

        ``upto`` bounds the delta to truths recorded before that cursor
        position — the window executor uses it to journal each batch's own
        span after several batches merged in one call.
        """
        delta = self.truths.truths_since(cursor)
        if upto is not None:
            delta = delta[: max(0, upto - max(cursor, 0))]
        return delta

    def replay_task_result(self, result: TaskResult) -> None:
        """Replay a crowd task executed elsewhere onto this planner's state.

        Re-issues the task id from this process's sequence (shard-local ids
        are process-local serials) and credits worker answer histories and
        rewards exactly as :meth:`_crowdsource` would have — the serving
        layer's merge step for crowd side effects.
        """
        reissue_task_id(result.task)
        self._update_answer_history(result)
        self.rewards.reward_task(result)

    def _update_answer_history(self, result: TaskResult) -> None:
        """Credit each answered question as correct/wrong against the verified
        winner: the live crowd path and :meth:`replay_task_result` both run it."""
        passed = result.task.landmark_routes[result.winning_route_index].landmark_set
        for response in result.responses:
            record = self.worker_pool.get(response.worker_id).record_answer
            for answer in response.answers:
                record(answer.landmark_id, answer.says_yes == (answer.landmark_id in passed))
