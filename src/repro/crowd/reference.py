"""Reference crowd simulators (pre-columnar era).

:class:`~repro.crowd.simulator.SimulatedCrowd` answers through the columnar
channel: a compiled question tree walked into the flat columns of a
:class:`~repro.core.task.ResponseBlock`.  The crowds here are the original
formulations, kept as behavioural oracles the way
:mod:`repro.routing.reference` keeps the closure-cost route sources.  Each
overrides :meth:`collect_responses` and packs those objects into the block
the planner reads with :func:`block_of`, so a planner fed by one runs its
one crowd path on the original simulation's answers:

* :class:`SequentialCrowd` — the original question-by-question simulation,
  one scalar behaviour-model call per question (the ``crowd_batch`` oracle);
* :class:`EagerObjectCrowd` — one vectorized behaviour-model evaluation per
  crew, then a tree walk building :class:`~repro.core.task.Answer` objects
  eagerly (the ``crowd_columnar`` oracle).

The per-worker behaviour-model formulations :class:`SequentialCrowd` answers
through live here too, as free functions over an
:class:`~repro.crowd.behavior.AnswerBehaviorModel`: the scalar
:func:`knowledge_of` / :func:`answer_accuracy` / :func:`answer` chain and the
one-worker vectorized :func:`answer_accuracies`, which the production
:meth:`~repro.crowd.behavior.AnswerBehaviorModel.answer_accuracies_matrix`
reproduces row for row.

All three consume the task's content-derived RNG in the identical order
(one uniform draw plus one exponential draw per question, workers in
assignment order), so they return identical responses;
``tests/crowd/test_simulator_batched.py`` and
``tests/crowd/test_response_block.py`` assert it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

import numpy as np

from ..core.task import Answer, ResponseBlock, Task, WorkerResponse
from ..core.worker import Worker
from ..exceptions import CrowdPlannerError
from ..spatial import Point
from ..utils.rng import derive_rng
from .behavior import AnswerBehaviorModel
from .simulator import SimulatedCrowd


def knowledge_of(behavior: AnswerBehaviorModel, worker: Worker, landmark_anchor: Point) -> float:
    """The worker's true knowledge of the landmark's area, in [0, 1].

    Knowledge decays linearly with the distance from the nearest anchor
    and reaches zero at twice the knowledge radius.
    """
    radius = behavior.knowledge_radius_m
    nearest = min(anchor.distance_to(landmark_anchor) for anchor in worker.anchors())
    if nearest <= radius:
        return 1.0 - 0.5 * (nearest / radius)
    if nearest >= 2 * radius:
        return 0.0
    return 0.5 * (2.0 - nearest / radius)


def answer_accuracy(behavior: AnswerBehaviorModel, worker: Worker, landmark_anchor: Point) -> float:
    """Probability the worker answers a question about this landmark correctly."""
    knowledge = knowledge_of(behavior, worker, landmark_anchor)
    return behavior.base_accuracy + (behavior.max_accuracy - behavior.base_accuracy) * knowledge


def answer_accuracies(
    behavior: AnswerBehaviorModel, worker: Worker, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Per-landmark answer accuracies for one worker, vectorized.

    ``xs``/``ys`` are the anchor coordinates of the landmarks to evaluate.
    The nearest-anchor distance, the piecewise-linear knowledge decay and
    the accuracy blend are computed for the whole landmark set in numpy
    with the same arithmetic as the scalar functions.  (``np.hypot`` may
    disagree with ``math.hypot`` in the final ulp, so individual accuracies
    can differ from :func:`answer_accuracy` by ~1e-16; a sampled answer only
    changes if a uniform draw lands inside that window, and the
    batched-vs-sequential equivalence tests pin exact response equality on
    seeded scenarios.)
    """
    anchors = worker.anchors()
    ax = np.array([anchor.x for anchor in anchors], dtype=np.float64)
    ay = np.array([anchor.y for anchor in anchors], dtype=np.float64)
    nearest = np.hypot(xs[None, :] - ax[:, None], ys[None, :] - ay[:, None]).min(axis=0)
    return behavior._accuracies_from_nearest(nearest)


def answer(
    behavior: AnswerBehaviorModel,
    worker: Worker,
    landmark_anchor: Point,
    truthful_answer: bool,
    rng: random.Random,
) -> bool:
    """Sample the worker's yes/no answer given the ground-truth answer."""
    if rng.random() < answer_accuracy(behavior, worker, landmark_anchor):
        return truthful_answer
    return not truthful_answer


def _task_rng(crowd: SimulatedCrowd, task: Task) -> random.Random:
    """The task's content-derived RNG: the same stream the columnar path
    rebuilds from its cached seed (see ``SimulatedCrowd._task_signature``)."""
    return derive_rng(crowd.seed, crowd._task_signature(task))


def _arrival_order(responses: List[WorkerResponse]) -> List[WorkerResponse]:
    responses.sort(key=lambda response: (response.total_response_time_s, response.worker_id))
    return responses


def _question_landmarks(task: Task) -> List[int]:
    """Landmark ids questioned anywhere in the task's tree, in first-seen
    preorder (deduplicated)."""
    seen: Dict[int, None] = {}
    stack = [task.question_tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        seen.setdefault(node.landmark_id, None)
        stack.append(node.no_child)
        stack.append(node.yes_child)
    return list(seen)


def block_of(task: Task, responses: Sequence[WorkerResponse]) -> ResponseBlock:
    """Pack object responses, in their order, into a :class:`ResponseBlock`
    that materializes back to them."""
    answers = [answer for response in responses for answer in response.answers]
    return ResponseBlock(
        task=task,
        worker_ids=np.array([r.worker_id for r in responses], dtype=np.int64),
        chosen_route_index=np.array([r.chosen_route_index for r in responses], dtype=np.int64),
        total_response_time_s=np.array([r.total_response_time_s for r in responses], dtype=np.float64),
        answer_offsets=np.cumsum([0] + [len(r.answers) for r in responses], dtype=np.int64),
        answer_landmark_ids=np.array([a.landmark_id for a in answers], dtype=np.int64),
        answer_says_yes=np.array([a.says_yes for a in answers], dtype=bool),
        answer_time_s=np.array([a.response_time_s for a in answers], dtype=np.float64),
    )


class _ObjectCrowd(SimulatedCrowd):
    """A crowd whose simulation builds objects: its block is their packing."""

    def collect_responses_block(self, task: Task, worker_ids: Sequence[int]) -> ResponseBlock:
        return block_of(task, self.collect_responses(task, worker_ids))


class SequentialCrowd(_ObjectCrowd):
    """The original question-by-question simulation (the oracle)."""

    def collect_responses(self, task: Task, worker_ids: Sequence[int]) -> List[WorkerResponse]:
        if not worker_ids:
            raise CrowdPlannerError("collect_responses called with no workers")
        rng = _task_rng(self, task)
        truth_landmarks = self._ground_truth_landmarks(task.query)
        return _arrival_order(
            [self._simulate_worker(task, worker_id, truth_landmarks, rng) for worker_id in worker_ids]
        )

    def _simulate_worker(
        self,
        task: Task,
        worker_id: int,
        truth_landmarks: frozenset,
        rng: random.Random,
    ) -> WorkerResponse:
        worker = self.pool.get(worker_id)
        node = task.question_tree.root
        answers: List[Answer] = []
        per_question_time = 1.0 / max(worker.response_rate, 1e-9) / max(1, task.max_questions())
        total_time = 0.0
        while not node.is_leaf:
            landmark_id = node.landmark_id
            anchor = self.catalog.get(landmark_id).anchor
            truthful = landmark_id in truth_landmarks
            says_yes = answer(self.behavior, worker, anchor, truthful, rng)
            elapsed = rng.expovariate(1.0 / per_question_time) if per_question_time > 0 else 0.0
            total_time += elapsed
            answers.append(
                Answer(
                    worker_id=worker_id,
                    landmark_id=landmark_id,
                    says_yes=says_yes,
                    response_time_s=elapsed,
                )
            )
            node = node.yes_child if says_yes else node.no_child
        return WorkerResponse(
            worker_id=worker_id,
            answers=answers,
            chosen_route_index=task.route_index(node.decided_route),
            total_response_time_s=total_time,
        )


class EagerObjectCrowd(_ObjectCrowd):
    """The batched object path: one vectorized behaviour-model evaluation
    per crew, then answer objects built eagerly (the pre-columnar default)."""

    def collect_responses(self, task: Task, worker_ids: Sequence[int]) -> List[WorkerResponse]:
        if not worker_ids:
            raise CrowdPlannerError("collect_responses called with no workers")
        rng = _task_rng(self, task)
        truth_landmarks = self._cached_truth_landmarks(task.query)

        # One pass over the question tree resolves every questioned landmark's
        # anchor and truth flag for the whole task.
        question_landmarks = _question_landmarks(task)
        anchors = [self.catalog.get(lid).anchor for lid in question_landmarks]
        xs = np.array([anchor.x for anchor in anchors], dtype=np.float64)
        ys = np.array([anchor.y for anchor in anchors], dtype=np.float64)
        position = {lid: i for i, lid in enumerate(question_landmarks)}
        truthful = [lid in truth_landmarks for lid in question_landmarks]
        max_questions = max(1, task.max_questions())

        workers = [self.pool.get(worker_id) for worker_id in worker_ids]
        accuracy_matrix = self.behavior.answer_accuracies_matrix(workers, xs, ys)
        return _arrival_order(
            [
                self._walk_tree(task, worker, rng, position, truthful, row.tolist(), max_questions)
                for worker, row in zip(workers, accuracy_matrix)
            ]
        )

    def _walk_tree(
        self,
        task: Task,
        worker,
        rng: random.Random,
        position: Dict[int, int],
        truthful: List[bool],
        accuracies: List[float],
        max_questions: int,
    ) -> WorkerResponse:
        """Tree walk over precomputed per-landmark accuracy and truth tables.

        Consumes the RNG exactly like :meth:`SequentialCrowd._simulate_worker`:
        one uniform draw (the answer) then one exponential draw (the
        per-question time) per question, in traversal order.
        """
        node = task.question_tree.root
        answers: List[Answer] = []
        per_question_time = 1.0 / max(worker.response_rate, 1e-9) / max_questions
        total_time = 0.0
        while not node.is_leaf:
            landmark_id = node.landmark_id
            index = position[landmark_id]
            truthful_answer = truthful[index]
            if rng.random() < accuracies[index]:
                says_yes = truthful_answer
            else:
                says_yes = not truthful_answer
            elapsed = rng.expovariate(1.0 / per_question_time) if per_question_time > 0 else 0.0
            total_time += elapsed
            answers.append(
                Answer(
                    worker_id=worker.worker_id,
                    landmark_id=landmark_id,
                    says_yes=says_yes,
                    response_time_s=elapsed,
                )
            )
            node = node.yes_child if says_yes else node.no_child
        return WorkerResponse(
            worker_id=worker.worker_id,
            answers=answers,
            chosen_route_index=task.route_index(node.decided_route),
            total_response_time_s=total_time,
        )
