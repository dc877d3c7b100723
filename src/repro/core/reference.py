"""Reference implementations of the core models (pre-vectorized era).

The production classes run one code path each: PMF trains on the observed
COO entries only, and the familiarity model builds and accumulates its
matrix with numpy kernels.  The originals they replaced live here as
behavioural oracles, the way :mod:`repro.roadnet.reference` keeps the
original searches:

* :class:`DenseProbabilisticMatrixFactorization` — PMF with the original
  dense ``np.where``-masked objective and gradients (the ``pmf_fit``
  oracle); it overrides only the loss hook, so it runs the same
  step-size backoff and convergence loop as the production class;
* :func:`raw_score`, :func:`build_raw_matrix_reference` and
  :func:`accumulate_reference` — the paper's per-pair familiarity score and
  the scalar loops over it (the ``familiarity_raw`` and ``familiarity``
  oracles);
* :func:`lookup_reference` — the unmemoised truth-reuse scan that
  :meth:`~repro.core.truth.TruthDatabase.lookup` must answer like (the
  ``truth_lookup`` oracle);
* :func:`partition_by_cells` — a materialised destination-cell truth
  partition: shard clones once read the store through such a slice, and it
  stays the oracle that a clone over the whole store answers like (over
  every populated cell it is an independent copy of the store);
* :func:`expand_cells` and :func:`set_shard_plan` — the per-cell reach
  expansion and the shard plan built on it (the ``shard_plan`` oracle):
  :meth:`~repro.core.planner.CrowdPlanner.shard_plan`, with its packed
  neighbour buckets and :func:`~repro.core.planner.reach_closure` cells,
  must return the same plans;
* :func:`collect_with_early_stop` — the original object-path collector,
  which re-tallies the arrival prefix after every response (the
  ``AnswerAggregator.collect_block_with_early_stop`` oracle).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import TaskGenerationError
from ..routing.base import RouteQuery
from .aggregation import AnswerAggregator
from .familiarity import FamiliarityModel, _gaussian_weight
from .planner import CrowdPlanner, QueryShard, ShardPlan
from .pmf import ProbabilisticMatrixFactorization
from .task import Task, TaskResult, WorkerResponse
from .truth import TruthDatabase, VerifiedTruth
from .worker import Worker


class DenseProbabilisticMatrixFactorization(ProbabilisticMatrixFactorization):
    """PMF over dense ``n×m`` masked residuals (the oracle).

    Minimises the same objective as the sparse production path, so the two
    agree within float tolerance.
    """

    def _loss(self, matrix: np.ndarray, mask: np.ndarray) -> Tuple[Callable, Callable]:
        def objective(w: np.ndarray, lm: np.ndarray) -> float:
            residual = np.where(mask, matrix - w.T @ lm, 0.0)
            return float(
                (residual**2).sum()
                + self.regularization_workers * (w**2).sum()
                + self.regularization_landmarks * (lm**2).sum()
            )

        def gradients(w: np.ndarray, lm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            error = np.where(mask, matrix - w.T @ lm, 0.0)
            gradient_w = -2.0 * (lm @ error.T) + 2.0 * self.regularization_workers * w
            gradient_l = -2.0 * (w @ error) + 2.0 * self.regularization_landmarks * lm
            return gradient_w, gradient_l

        return objective, gradients


def raw_score(model: FamiliarityModel, worker: Worker, landmark_id: int) -> float:
    """The paper's ``f_w^l`` for one worker-landmark pair.

    Distances beyond the knowledge radius ``eta_dis`` are treated as
    infinite (their exponential term vanishes).  Distances are expressed in
    units of the knowledge radius so the exponential stays in a useful range
    regardless of city size.
    """
    config = model.config
    anchor = model.catalog.get(landmark_id).anchor
    radius = config.knowledge_radius_m

    def scaled(distance: float) -> float:
        if distance > radius:
            return float("inf")
        return distance / radius

    distance_sum = (
        scaled(anchor.distance_to(worker.home))
        + scaled(anchor.distance_to(worker.workplace))
        + scaled(anchor.distance_to(worker.nearest_familiar_place(anchor)))
    )
    profile_term = 0.0 if math.isinf(distance_sum) else math.exp(-distance_sum)
    history = worker.history_for(landmark_id)
    history_term = history.correct + config.familiarity_beta * history.wrong
    return config.familiarity_alpha * profile_term + (1.0 - config.familiarity_alpha) * history_term


def build_raw_matrix_reference(model: FamiliarityModel) -> np.ndarray:
    """The per-pair double loop — :meth:`FamiliarityModel.build_raw_matrix`'s oracle."""
    worker_ids, landmark_ids = model.worker_ids, model.landmark_ids
    matrix = np.zeros((len(worker_ids), len(landmark_ids)))
    for row, worker_id in enumerate(worker_ids):
        worker = model.pool.get(worker_id)
        for column, landmark_id in enumerate(landmark_ids):
            matrix[row, column] = raw_score(model, worker, landmark_id)
    return matrix


def accumulate_reference(model: FamiliarityModel, completed: np.ndarray) -> np.ndarray:
    """The sequential neighbourhood accumulation — the oracle the vectorized
    :meth:`FamiliarityModel._accumulate` is bit-identical to."""
    radius = model.config.knowledge_radius_m
    sigma = radius / 3.0
    accumulated = np.zeros_like(completed)
    for column, landmark_id in enumerate(model.landmark_ids):
        anchor = model.catalog.get(landmark_id).anchor
        for neighbour in model.catalog.within_radius(anchor, radius):
            distance = anchor.distance_to(neighbour.anchor)
            weight = _gaussian_weight(distance, sigma)
            neighbour_column = model._landmark_index[neighbour.landmark_id]
            accumulated[:, column] += weight * completed[:, neighbour_column]
    return accumulated


def lookup_reference(store: TruthDatabase, query: RouteQuery) -> Optional[VerifiedTruth]:
    """:meth:`TruthDatabase.lookup` as it was before the memo: two radius
    queries, their intersection and a sort, on every call (views included,
    through their match overrides)."""
    network = store.network
    origin = network.node_location(query.origin)
    destination = network.node_location(query.destination)
    slot = store.time_slot_of(query.departure_time_s)
    radius = store.config.truth_reuse_radius_m
    near_destination = {
        truth_id for truth_id, _ in store._destination_matches(destination, radius)
    }
    matches: List[Tuple[float, VerifiedTruth]] = []
    for truth_id, origin_distance in store._origin_matches(origin, radius):
        if truth_id not in near_destination:
            continue
        truth = store._truth_by_id(truth_id)
        if truth.time_slot != slot:
            continue
        matches.append((origin_distance, truth))
    if not matches:
        return None
    matches.sort(key=lambda item: (item[0], item[1].truth_id))
    return matches[0][1]


def partition_by_cells(store: TruthDatabase, cells: Iterable[Tuple[int, int]]) -> TruthDatabase:
    """A new store holding the truths whose *destination* falls in ``cells``.

    Truths keep their ids and relative insertion order, so distance
    tie-breaking inside the partition agrees with ``store``.  The partition
    is an independent store: truths recorded into it do not appear in
    ``store``.
    """
    wanted = frozenset(cells)
    partition = TruthDatabase(store.network, store.config)
    for truth in store.all():
        if store.destination_cell_of(truth.destination) in wanted:
            partition._adopt(truth)
    return partition


def expand_cells(centres: Iterable[Tuple[int, int]], reach: int) -> FrozenSet[Tuple[int, int]]:
    """Every cell within ``reach`` of a centre, added one cell at a time."""
    cells: Set[Tuple[int, int]] = set()
    for x, y in centres:
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                cells.add((x + dx, y + dy))
    return frozenset(cells)


def set_shard_plan(
    planner: CrowdPlanner, queries: Sequence[RouteQuery], shards: int
) -> ShardPlan:
    """:meth:`~repro.core.planner.CrowdPlanner.shard_plan` as it was before
    cell closures: groups linked by probing all 81 neighbouring coarse
    buckets, and each component's destination cells expanded cell by cell
    (:func:`expand_cells`) into a plain frozenset."""
    cell = planner.truths.reuse_cell_size_m
    radius = max(planner.config.truth_reuse_radius_m, planner.evaluator.neighbourhood_radius_m)
    reach = int(radius // cell) + 1

    groups = planner.od_cell_groups(queries)
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

    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for index, key in enumerate(keys):
        coarse = tuple(value // reach for value in key)
        buckets.setdefault(coarse, []).append(index)
    offsets = [-1, 0, 1]
    for coarse, members in buckets.items():
        for da in offsets:
            for db in offsets:
                for dc in offsets:
                    for dd in offsets:
                        other = (coarse[0] + da, coarse[1] + db, coarse[2] + dc, coarse[3] + dd)
                        neighbours = buckets.get(other)
                        if neighbours is None or other < coarse:
                            continue
                        for i in members:
                            for j in neighbours:
                                if i >= j and other == coarse:
                                    continue
                                if all(
                                    abs(keys[i][axis] - keys[j][axis]) <= reach
                                    for axis in range(4)
                                ):
                                    union(i, j)

    components: Dict[int, List[int]] = {}
    for index in range(len(keys)):
        components.setdefault(find(index), []).append(index)
    built = []
    for group_indices in components.values():
        indices: List[int] = []
        for gi in group_indices:
            indices.extend(groups[keys[gi]])
        indices.sort()
        cells = expand_cells([(keys[gi][2], keys[gi][3]) for gi in group_indices], reach)
        built.append((indices, cells))
    built.sort(key=lambda item: (-len(item[0]), item[0][0]))
    shard_count = max(1, min(shards, len(built)))
    loads = [0] * shard_count
    assigned: List[List[Tuple[List[int], FrozenSet[Tuple[int, int]]]]] = [
        [] for _ in range(shard_count)
    ]
    for component in built:
        target = min(range(shard_count), key=lambda s: (loads[s], s))
        assigned[target].append(component)
        loads[target] += len(component[0])
    return ShardPlan(
        shards=tuple(
            QueryShard(
                shard_id=shard_id,
                indices=tuple(sorted(itertools.chain.from_iterable(c[0] for c in members))),
                destination_cells=frozenset().union(*(c[1] for c in members)),
                components=len(members),
            )
            for shard_id, members in enumerate(assigned)
            if members
        ),
        num_queries=len(queries),
        interaction_radius_m=radius,
        cell_size_m=cell,
        cell_reach=reach,
    )


def collect_with_early_stop(
    aggregator: AnswerAggregator,
    task: Task,
    responses: Sequence[WorkerResponse],
    expected_total: Optional[int] = None,
) -> TaskResult:
    """Re-tally the arrival prefix after every response and stop as soon
    as the early-stop rule allows (``expected_total`` defaults to
    ``len(responses)``)."""
    if not responses:
        raise TaskGenerationError("cannot aggregate an empty response set")
    expected = len(responses) if expected_total is None else expected_total
    for count in range(1, len(responses) + 1):
        if aggregator.early_stop.evaluate(aggregator.tally(responses[:count]), expected).should_stop:
            break
    return aggregator.aggregate(task, responses[:count], expected, stopped_early=count < len(responses))
