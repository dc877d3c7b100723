"""The simulated crowd backend.

:class:`SimulatedCrowd` stands in for the mobile clients of real workers: for
every assigned worker it walks the task's question tree, samples each binary
answer from the worker's :class:`~repro.crowd.behavior.AnswerBehaviorModel`
(against the ground-truth driver-preferred route), samples a response time
from the worker's exponential rate, and returns the responses in arrival
order — which is what makes early stopping meaningful.

The simulation is *columnar*: the behaviour model is evaluated once per
crew over the task's full landmark set (a single vectorized accuracy
computation), the question tree is flattened once per task into parallel
index arrays, and every worker's walk appends its answered landmarks,
yes/no answers and times to flat columns — the
:class:`~repro.core.task.ResponseBlock` that
:meth:`SimulatedCrowd.collect_responses_block`, the one
:class:`~repro.core.planner.CrowdBackend` method, returns.  Objects are
materialized only where read: the planner materializes the collected
arrival prefix, and :meth:`SimulatedCrowd.collect_responses` the whole
block for experiments and tests.  The original object-building
simulations are preserved in :mod:`repro.crowd.reference` as the oracles
the columnar path is equivalence-tested and benchmarked against; all paths
consume the task's derived RNG in the identical order (one uniform draw
plus one exponential draw per question, workers in assignment order), so
they return identical responses.

Randomness is *content-keyed*: each task's RNG is derived from the simulator
seed plus a signature of the task itself (query endpoints, departure time,
selected landmarks and candidate paths), never from invocation counters.
Responses are therefore a pure function of ``(seed, task content, worker
crew)`` — the property the sharded serving engine
(:mod:`repro.serving`) relies on to make multi-process execution
bit-identical to sequential execution, where the same tasks are collected in
a different global order (and in different OS processes).
"""

from __future__ import annotations

import math
import random
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.planner import CrowdBackend
from ..core.task import ResponseBlock, Task, WorkerResponse
from ..core.worker import WorkerPool
from ..exceptions import CrowdPlannerError
from ..landmarks.model import LandmarkCatalog
from ..routing.base import RouteQuery
from ..trajectory.calibration import AnchorCalibrator
from ..utils.rng import SeedSequence
from .behavior import AnswerBehaviorModel

GroundTruthProvider = Callable[[RouteQuery], Sequence[int]]
"""Maps a query to the ground-truth driver-preferred node path.

Providers must be pure (the same query always yields the same path): the
batched simulation caches each query's calibrated truth-landmark set, so a
provider whose answer drifts mid-run would desynchronise the batched path
from the sequential oracle.
"""


class _CompiledTree:
    """A task's question tree flattened into parallel index arrays.

    The walk of the object path chases ``QuestionNode`` attributes and a
    landmark-position dict per question; the compiled form replaces every
    step with list indexing: node ``i`` asks about landmark *position*
    ``landmark_pos[i]`` (an index into :attr:`landmark_ids`, ``-1`` for a
    leaf), branches to ``yes_child[i]``/``no_child[i]``, and a leaf resolves
    to candidate-route index ``route_index[i]``.  Anchor coordinate columns
    are resolved once per tree, so repeated collections of the same task
    (benchmark rounds, re-queried tasks) skip the catalogue walk entirely.

    Compiled trees are cached per ``QuestionTree`` *identity* (trees are
    immutable once built) in a :class:`weakref.WeakKeyDictionary`, so the
    cache can never outlive the tasks it serves.  Because a tree belongs to
    exactly one task, per-task derived state that is expensive to recompute
    on repeated collections lives here too: the content-derived RNG seed,
    the per-landmark ground-truth flags, and the behaviour-model accuracy
    rows per worker crew (worker anchors are registration-time profile data
    — the same assumption the familiarity model's raw matrix rests on — so
    the rows are a pure function of ``(tree, crew)``).
    """

    __slots__ = (
        "landmark_ids",
        "xs",
        "ys",
        "landmark_pos",
        "yes_child",
        "no_child",
        "route_index",
        "max_questions",
        "rng_seed",
        "truthful",
        "accuracy_rows",
    )

    def __init__(self, task: Task, catalog: LandmarkCatalog):
        landmark_ids: List[int] = []
        position: Dict[int, int] = {}
        landmark_pos: List[int] = []
        yes_child: List[int] = []
        no_child: List[int] = []
        route_index: List[int] = []

        # Preorder flatten; children are appended after their parent, so the
        # node at index 0 is the root.  Landmark first-seen order matches the
        # reference object path's question order (yes-subtree first).
        stack = [(task.question_tree.root, -1, True)]
        while stack:
            node, parent, is_yes = stack.pop()
            index = len(landmark_pos)
            if parent >= 0:
                if is_yes:
                    yes_child[parent] = index
                else:
                    no_child[parent] = index
            if node.is_leaf:
                landmark_pos.append(-1)
                yes_child.append(-1)
                no_child.append(-1)
                route_index.append(task.route_index(node.decided_route))
                continue
            landmark_id = node.landmark_id
            pos = position.get(landmark_id)
            if pos is None:
                pos = len(landmark_ids)
                position[landmark_id] = pos
                landmark_ids.append(landmark_id)
            landmark_pos.append(pos)
            yes_child.append(-1)
            no_child.append(-1)
            route_index.append(-1)
            # Pop order: yes child is flattened first (first-seen parity
            # with the object path's stack, which pushes no then yes last).
            stack.append((node.no_child, index, False))
            stack.append((node.yes_child, index, True))

        self.landmark_ids = landmark_ids
        self.landmark_pos = landmark_pos
        self.yes_child = yes_child
        self.no_child = no_child
        self.route_index = route_index
        anchors = [catalog.get(lid).anchor for lid in landmark_ids]
        self.xs = np.array([anchor.x for anchor in anchors], dtype=np.float64)
        self.ys = np.array([anchor.y for anchor in anchors], dtype=np.float64)
        self.max_questions = max(1, task.max_questions())
        self.rng_seed: Optional[int] = None
        self.truthful: Optional[List[bool]] = None
        self.accuracy_rows: Dict[Tuple[int, ...], List[List[float]]] = {}


class SimulatedCrowd(CrowdBackend):
    """Simulates workers answering CrowdPlanner tasks.

    Parameters
    ----------
    pool:
        The worker registry (profiles provide anchors and response rates).
    catalog:
        Landmark catalogue (anchors of the questioned landmarks).
    calibrator:
        Used to express the ground-truth route as a landmark set.
    ground_truth:
        Callable mapping a query to the driver-preferred node path the
        simulated workers' knowledge is based on.
    behavior:
        Accuracy model; defaults to :class:`AnswerBehaviorModel`.
    seed:
        Seed for answer sampling and response times.

    Responses are produced columnar: one vectorized behaviour-model
    evaluation per crew, a compiled tree walk, flat columns.  A familiarity
    refresh (:meth:`refresh_population_accuracies`, called from
    :meth:`CrowdPlanner.prepare_workers <repro.core.planner.CrowdPlanner.prepare_workers>`)
    precomputes one population-level ``(worker, landmark)`` accuracy matrix
    over the whole pool and catalogue; per-task crew rows are then plain
    list slices of it, removing the last per-task numpy dispatch from the
    hot path.  Slices are bit-identical to the per-task matrix (the
    computation is elementwise per (worker, landmark) and an ``inf``-padded
    anchor never wins the nearest-anchor minimum).  A crew that was never
    refreshed keeps the per-task evaluation, which is the equivalence
    oracle and the fallback for workers or landmarks registered after the
    refresh.
    """

    def __init__(
        self,
        pool: WorkerPool,
        catalog: LandmarkCatalog,
        calibrator: AnchorCalibrator,
        ground_truth: GroundTruthProvider,
        behavior: Optional[AnswerBehaviorModel] = None,
        seed: int = 37,
    ):
        self.pool = pool
        self.catalog = catalog
        self.calibrator = calibrator
        self.ground_truth = ground_truth
        self.behavior = behavior or AnswerBehaviorModel()
        self.seed = seed
        # Population accuracy matrix, rebuilt by refresh_population_accuracies:
        # (worker_id -> full accuracy row, landmark_id -> column index).
        self._population: Optional[
            Tuple[Dict[int, List[float]], Dict[int, int]]
        ] = None
        # Per-query ground-truth landmark sets (columnar path only).  The
        # ground-truth provider is deterministic per query, so calibrating its
        # route once per od-pair instead of once per task removes the
        # dominant shared cost when the experiment harness re-queries hot
        # od-pairs.
        self._truth_cache: Dict[Tuple[int, int, float], frozenset] = {}
        # Compiled question trees, keyed by tree identity (weak: dies with
        # the task).
        self._compiled_trees: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------- interface
    def collect_responses(self, task: Task, worker_ids: Sequence[int]) -> List[WorkerResponse]:
        """The responses as objects, in arrival order: the materialized
        block, for experiments and tests that read answers one by one."""
        return self.collect_responses_block(task, worker_ids).materialize()

    def collect_responses_block(self, task: Task, worker_ids: Sequence[int]) -> ResponseBlock:
        """Simulate every assigned worker: one :class:`ResponseBlock` per
        task, responses in arrival order."""
        if not worker_ids:
            raise CrowdPlannerError("collect_responses called with no workers")
        tree = self._compiled_tree(task)
        # The RNG seed, truth flags and crew accuracy rows are pure functions
        # of the task content (and static worker profiles): computed on the
        # first collection, reused on repeats.
        if tree.rng_seed is None:
            tree.rng_seed = SeedSequence(self.seed).seed_for(self._task_signature(task))
        rng = random.Random(tree.rng_seed)
        truthful = tree.truthful
        if truthful is None:
            truth_landmarks = self._cached_truth_landmarks(task.query)
            truthful = [lid in truth_landmarks for lid in tree.landmark_ids]
            tree.truthful = truthful
        max_questions = tree.max_questions

        crew = tuple(worker_ids)
        workers = [self.pool.get(worker_id) for worker_id in worker_ids]
        accuracies = tree.accuracy_rows.get(crew)
        if accuracies is None:
            accuracies = self._crew_accuracies(tree, workers)
            if len(tree.accuracy_rows) >= 8:
                tree.accuracy_rows.clear()
            tree.accuracy_rows[crew] = accuracies

        # Flat columns, appended scalar-by-scalar during the walks; the
        # numpy conversion happens once per task after arrival sorting.
        response_workers: List[int] = []
        chosen: List[int] = []
        totals: List[float] = []
        starts: List[int] = []  # each response's first answer row
        ans_landmark: List[int] = []
        ans_yes: List[bool] = []
        ans_time: List[float] = []

        landmark_ids = tree.landmark_ids
        landmark_pos = tree.landmark_pos
        yes_child, no_child = tree.yes_child, tree.no_child
        rng_random = rng.random
        log = math.log
        for worker, row in zip(workers, accuracies):
            starts.append(len(ans_landmark))
            per_question_time = 1.0 / max(worker.response_rate, 1e-9) / max_questions
            # rng.expovariate(lambd) is exactly -log(1 - random()) / lambd;
            # inlining it (with lambd rounded once, like the oracle's
            # argument) keeps the draws bit-identical while skipping the
            # method dispatch per question.
            lambd = 1.0 / per_question_time if per_question_time > 0 else 0.0
            total_time = 0.0
            node = 0
            pos = landmark_pos[0]
            while pos >= 0:
                truthful_answer = truthful[pos]
                says_yes = truthful_answer if rng_random() < row[pos] else not truthful_answer
                elapsed = -log(1.0 - rng_random()) / lambd if lambd else 0.0
                total_time += elapsed
                ans_landmark.append(landmark_ids[pos])
                ans_yes.append(says_yes)
                ans_time.append(elapsed)
                node = yes_child[node] if says_yes else no_child[node]
                pos = landmark_pos[node]
            response_workers.append(worker.worker_id)
            chosen.append(tree.route_index[node])
            totals.append(total_time)
        starts.append(len(ans_landmark))

        # Arrival order: total response time, worker id breaking ties —
        # identical to the object paths' sort.
        order = sorted(range(len(workers)), key=lambda i: (totals[i], response_workers[i]))
        offsets = [0]
        o_landmark: List[int] = []
        o_yes: List[bool] = []
        o_time: List[float] = []
        for i in order:
            begin, end = starts[i], starts[i + 1]
            o_landmark.extend(ans_landmark[begin:end])
            o_yes.extend(ans_yes[begin:end])
            o_time.extend(ans_time[begin:end])
            offsets.append(len(o_landmark))
        return ResponseBlock(
            task=task,
            worker_ids=np.array([response_workers[i] for i in order], dtype=np.int64),
            chosen_route_index=np.array([chosen[i] for i in order], dtype=np.int64),
            total_response_time_s=np.array([totals[i] for i in order], dtype=np.float64),
            answer_offsets=np.array(offsets, dtype=np.int64),
            answer_landmark_ids=np.array(o_landmark, dtype=np.int64),
            answer_says_yes=np.array(o_yes, dtype=bool),
            answer_time_s=np.array(o_time, dtype=np.float64),
        )

    # ------------------------------------------------- population accuracies
    def refresh_population_accuracies(self) -> None:
        """Precompute the population ``(worker, landmark)`` accuracy matrix.

        Called whenever the familiarity model is (re)fitted — worker anchors
        are registration-time profile data, so the matrix is valid until the
        next refresh changes the population.  One vectorized evaluation over
        every pool worker and catalogue landmark replaces all later per-task
        ``answer_accuracies_matrix`` calls with pure-list slicing (see
        :meth:`_crew_accuracies`).  Only clears any stale matrix when the
        pool or catalogue is empty.
        """
        self._population = None
        workers = self.pool.workers()
        landmarks = self.catalog.all()
        if not workers or not landmarks:
            return
        xs = np.array([lm.anchor.x for lm in landmarks], dtype=np.float64)
        ys = np.array([lm.anchor.y for lm in landmarks], dtype=np.float64)
        matrix = self.behavior.answer_accuracies_matrix(workers, xs, ys)
        worker_rows = {
            worker.worker_id: row for worker, row in zip(workers, matrix.tolist())
        }
        landmark_cols = {lm.landmark_id: j for j, lm in enumerate(landmarks)}
        self._population = (worker_rows, landmark_cols)

    def _crew_accuracies(self, tree: _CompiledTree, workers) -> List[List[float]]:
        """The crew's accuracy rows over the tree's landmark set.

        Sliced out of the population matrix when one is current — each
        (worker, landmark) cell of the population matrix is computed by the
        same elementwise arithmetic as the per-task call, and the wider
        ``inf`` anchor padding never wins the nearest-anchor minimum, so
        slices are bit-identical to the per-task evaluation below, which
        remains the equivalence oracle and the fallback for any worker or
        landmark the refresh has not seen.
        """
        population = self._population
        if population is not None:
            worker_rows, landmark_cols = population
            try:
                cols = [landmark_cols[lid] for lid in tree.landmark_ids]
                return [
                    [worker_rows[worker.worker_id][col] for col in cols]
                    for worker in workers
                ]
            except KeyError:
                pass  # late-registered worker or landmark
        return self.behavior.answer_accuracies_matrix(workers, tree.xs, tree.ys).tolist()

    # -------------------------------------------------------------- internal
    def _compiled_tree(self, task: Task) -> _CompiledTree:
        tree = self._compiled_trees.get(task.question_tree)
        if tree is None:
            tree = _CompiledTree(task, self.catalog)
            self._compiled_trees[task.question_tree] = tree
        return tree

    @staticmethod
    def _task_signature(task: Task) -> str:
        """The task-content string the per-task RNG is derived from.

        Covers the query endpoints and departure time, the selected landmark
        set and every candidate path.  ``derive_rng(seed, signature)`` and
        ``random.Random(SeedSequence(seed).seed_for(signature))`` are the
        same RNG by construction — the columnar path caches the derived seed
        integer per task and rebuilds the ``Random`` from it.
        """
        query = task.query
        return "task-{}-{}-{!r}-{}-{}".format(
            query.origin,
            query.destination,
            query.departure_time_s,
            ",".join(str(lid) for lid in task.selected_landmarks),
            ";".join(
                ",".join(map(str, landmark_route.route.path))
                for landmark_route in task.landmark_routes
            ),
        )

    def _ground_truth_landmarks(self, query: RouteQuery) -> frozenset:
        path = list(self.ground_truth(query))
        if len(path) < 2:
            raise CrowdPlannerError("ground-truth provider returned an invalid path")
        return frozenset(self.calibrator.calibrate_path(path))

    def _cached_truth_landmarks(self, query: RouteQuery) -> frozenset:
        key = (query.origin, query.destination, query.departure_time_s)
        cached = self._truth_cache.get(key)
        if cached is None:
            if len(self._truth_cache) >= 4096:
                self._truth_cache.clear()
            cached = self._ground_truth_landmarks(query)
            self._truth_cache[key] = cached
        return cached
