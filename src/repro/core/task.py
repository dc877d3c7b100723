"""Crowdsourcing task objects: questions, answers, task results, and the
columnar :class:`ResponseBlock` in which every crowd backend returns a
task's responses."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import TaskGenerationError
from ..landmarks.model import LandmarkCatalog
from ..routing.base import CandidateRoute, RouteQuery
from .question_ordering import QuestionTree
from .route import LandmarkRoute

_task_ids = itertools.count(1)


@dataclass(frozen=True)
class Question:
    """A single binary question shown to a worker.

    The wording follows the paper's example: "do you prefer the route passing
    <landmark> (around <time>)?".
    """

    landmark_id: int
    text: str


@dataclass(frozen=True)
class Answer:
    """One worker's yes/no answer to one question."""

    worker_id: int
    landmark_id: int
    says_yes: bool
    response_time_s: float = 0.0


@dataclass
class WorkerResponse:
    """A worker's complete pass over a task: the questions asked and the
    route their answers resolved to."""

    worker_id: int
    answers: List[Answer]
    chosen_route_index: int
    total_response_time_s: float

    @property
    def questions_answered(self) -> int:
        return len(self.answers)


@dataclass(eq=False)  # ndarray fields: identity comparison, not elementwise
class ResponseBlock:
    """Columnar form of one task's worker responses, in arrival order.

    The batched crowd simulator produces its responses as flat numpy columns
    instead of :class:`Answer`/:class:`WorkerResponse` object trees: one row
    per response in the per-response columns, one row per answered question
    in the per-answer columns, with ``answer_offsets`` slicing the answer
    columns CSR-style per response.  It is the one form a crowd answer takes
    between a :class:`~repro.core.planner.CrowdBackend` and the planner:
    tallying and early stopping read the columns directly, and
    :class:`WorkerResponse` objects are materialized only for the arrival
    prefix that was actually collected, via :meth:`materialize`.
    """

    task: Task
    #: per-response columns (arrival order)
    worker_ids: np.ndarray            # int64
    chosen_route_index: np.ndarray    # int64
    total_response_time_s: np.ndarray  # float64
    #: CSR offsets into the per-answer columns, length ``len(self) + 1``
    answer_offsets: np.ndarray        # int64
    #: per-answer columns (response order, question order within a response)
    answer_landmark_ids: np.ndarray   # int64
    answer_says_yes: np.ndarray       # bool
    answer_time_s: np.ndarray         # float64

    def __len__(self) -> int:
        return len(self.worker_ids)

    def materialize(self, upto: Optional[int] = None) -> List[WorkerResponse]:
        """Materialize the first ``upto`` responses (all by default) as
        :class:`WorkerResponse` objects, identical to the object path's."""
        count = len(self) if upto is None else min(upto, len(self))
        offsets = self.answer_offsets
        # Convert only what the prefix needs: an early-stopped task
        # materializes nothing of the uncollected tail.
        answers_end = int(offsets[count])
        worker_ids = self.worker_ids[:count].tolist()
        chosen = self.chosen_route_index[:count].tolist()
        totals = self.total_response_time_s[:count].tolist()
        landmarks = self.answer_landmark_ids[:answers_end].tolist()
        says_yes = self.answer_says_yes[:answers_end].tolist()
        times = self.answer_time_s[:answers_end].tolist()
        responses = []
        for row in range(count):
            worker_id = worker_ids[row]
            answers = [
                Answer(
                    worker_id=worker_id,
                    landmark_id=landmarks[position],
                    says_yes=says_yes[position],
                    response_time_s=times[position],
                )
                for position in range(offsets[row], offsets[row + 1])
            ]
            responses.append(
                WorkerResponse(
                    worker_id=worker_id,
                    answers=answers,
                    chosen_route_index=chosen[row],
                    total_response_time_s=totals[row],
                )
            )
        return responses


@dataclass
class Task:
    """A crowdsourcing task for one route-recommendation request.

    A task bundles the original query, the candidate routes in landmark-based
    form, the selected (discriminative) landmark set and the ID3 question
    tree that orders the questions.
    """

    query: RouteQuery
    landmark_routes: List[LandmarkRoute]
    selected_landmarks: Tuple[int, ...]
    question_tree: QuestionTree
    questions: Dict[int, Question]
    task_id: int = field(default_factory=lambda: next(_task_ids))

    @property
    def candidate_routes(self) -> List[CandidateRoute]:
        return [landmark_route.route for landmark_route in self.landmark_routes]

    @property
    def num_candidates(self) -> int:
        return len(self.landmark_routes)

    def question_for(self, landmark_id: int) -> Question:
        try:
            return self.questions[landmark_id]
        except KeyError:
            raise TaskGenerationError(
                f"task {self.task_id} has no question about landmark {landmark_id}"
            ) from None

    def route_index(self, landmark_route: LandmarkRoute) -> int:
        """Index of a landmark route within the task's candidate list."""
        for index, candidate in enumerate(self.landmark_routes):
            if candidate is landmark_route or (
                candidate.route.path == landmark_route.route.path
                and candidate.source == landmark_route.source
            ):
                return index
        raise TaskGenerationError("route does not belong to this task")

    def max_questions(self) -> int:
        """Worst-case number of questions a worker may be asked."""
        return self.question_tree.depth()

    def expected_questions(self) -> float:
        """Expected number of questions under a uniform route prior."""
        return self.question_tree.expected_questions()


def reissue_task_id(task: Task) -> None:
    """Re-number ``task`` from this process's id sequence.

    The sharded serving engine generates tasks inside worker processes, whose
    forked id counters advance independently; re-issuing ids at merge time
    keeps the parent planner's task-id sequence exactly as if the batch had
    been answered sequentially.
    """
    task.task_id = next(_task_ids)


@dataclass
class TaskResult:
    """Aggregated outcome of a task after (a subset of) workers responded."""

    task: Task
    responses: List[WorkerResponse]
    votes: Dict[int, int]
    winning_route_index: int
    confidence: float
    stopped_early: bool

    @property
    def winning_route(self) -> CandidateRoute:
        return self.task.candidate_routes[self.winning_route_index]

    @property
    def total_questions_asked(self) -> int:
        return sum(response.questions_answered for response in self.responses)


def render_question(landmark_id: int, catalog: LandmarkCatalog, departure_time_s: float) -> Question:
    """Produce the human-readable binary question about a landmark."""
    landmark = catalog.get(landmark_id)
    hour = int(departure_time_s // 3600) % 24
    minute = int((departure_time_s % 3600) // 60)
    text = (
        f"Travelling around {hour:02d}:{minute:02d}, would you prefer the route "
        f"passing {landmark.name}?"
    )
    return Question(landmark_id=landmark_id, text=text)
