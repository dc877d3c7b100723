"""Worker profiles and the worker pool (Section IV).

A :class:`Worker` is a registered CrowdPlanner user who can be assigned
evaluation tasks.  The profile captures what the worker-selection math needs:
home / work / familiar-place anchors, answer history per landmark, outstanding
task load and the response-rate parameter of the exponential response-time
model.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from ..exceptions import WorkerSelectionError
from ..spatial import Point


@dataclass
class AnswerRecord:
    """Per-landmark answer history of a worker."""

    correct: int = 0
    wrong: int = 0

    @property
    def total(self) -> int:
        return self.correct + self.wrong


@dataclass
class Worker:
    """A registered crowd worker.

    Attributes
    ----------
    worker_id:
        Unique identifier.
    home, workplace:
        Profile anchor points collected at registration.
    familiar_places:
        Additional places the worker declared familiarity with.
    response_rate:
        ``lambda`` of the exponential response-time distribution (answers per
        second); higher means faster.
    outstanding_tasks:
        Number of currently assigned, unanswered tasks.
    reward_points:
        Accumulated reward balance.
    """

    worker_id: int
    home: Point
    workplace: Point
    familiar_places: List[Point] = field(default_factory=list)
    response_rate: float = 1.0 / 600.0
    outstanding_tasks: int = 0
    reward_points: float = 0.0
    answer_history: Dict[int, AnswerRecord] = field(default_factory=dict)

    def record_answer(self, landmark_id: int, correct: bool) -> None:
        """Update the per-landmark answer history after task verification."""
        record = self.answer_history.setdefault(landmark_id, AnswerRecord())
        if correct:
            record.correct += 1
        else:
            record.wrong += 1

    def history_for(self, landmark_id: int) -> AnswerRecord:
        return self.answer_history.get(landmark_id, AnswerRecord())

    def anchors(self) -> List[Point]:
        """Home, workplace and declared familiar places."""
        return [self.home, self.workplace, *self.familiar_places]

    def nearest_familiar_place(self, target: Point) -> Point:
        """The declared familiar place closest to ``target`` (home if none declared)."""
        if not self.familiar_places:
            return self.home
        return min(self.familiar_places, key=lambda place: place.distance_to(target))


class WorkerPool:
    """The registry of all workers known to the system.

    Every write to a worker goes through :meth:`get` (task assignment and
    release, rewards, answer recording).  That is what lets :meth:`overlay`
    hand out a copy-on-first-touch view of the pool: iteration and
    :meth:`workers` are for reading.
    """

    def __init__(self, workers: Optional[Iterable[Worker]] = None):
        self._workers: Dict[int, Worker] = {}
        # Ids whose entry in ``_workers`` is still another pool's object
        # (see :meth:`overlay`); :meth:`get` copies such a worker first.
        self._borrowed: Set[int] = set()
        if workers:
            for worker in workers:
                self.add(worker)

    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterator[Worker]:
        return iter(self._workers.values())

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._workers

    def add(self, worker: Worker) -> None:
        if worker.worker_id in self._workers:
            raise WorkerSelectionError(f"worker id {worker.worker_id} already registered")
        self._workers[worker.worker_id] = worker

    def get(self, worker_id: int) -> Worker:
        """The worker with ``worker_id``, copied first if still borrowed.

        The copy is structural, not ``copy.deepcopy``: the :class:`Worker`
        is shallow-copied and given its own ``familiar_places`` list and
        ``answer_history`` of fresh :class:`AnswerRecord` objects, while the
        frozen :class:`~repro.spatial.Point` anchors are shared.
        """
        try:
            worker = self._workers[worker_id]
        except KeyError:
            raise WorkerSelectionError(f"unknown worker id {worker_id}") from None
        if worker_id in self._borrowed:
            self._borrowed.discard(worker_id)
            worker = copy.copy(worker)
            worker.familiar_places = list(worker.familiar_places)
            worker.answer_history = {
                landmark_id: AnswerRecord(record.correct, record.wrong)
                for landmark_id, record in worker.answer_history.items()
            }
            self._workers[worker_id] = worker
        return worker

    def overlay(self) -> "WorkerPool":
        """A pool that copies each worker from this one on its first :meth:`get`.

        Building it costs one dict copy; a worker is copied only when the
        overlay first hands it out, so a shard clone whose queries never
        reach the crowd copies none.  Writes through the overlay never reach
        this pool, but the overlay reads the workers it has not copied yet
        live: this pool must not be written while the overlay is in use.
        """
        twin = copy.copy(self)
        twin._workers = dict(self._workers)
        twin._borrowed = set(self._workers)
        return twin

    def copy(self) -> "WorkerPool":
        """An independent copy whose workers can be mutated freely.

        An :meth:`overlay` with every worker copied up front, so neither pool
        sees the other's later writes.
        """
        twin = self.overlay()
        for worker_id in self._workers:
            twin.get(worker_id)
        return twin

    def ids(self) -> List[int]:
        return list(self._workers)

    def workers(self) -> List[Worker]:
        return list(self._workers.values())

    def assign(self, worker_id: int) -> None:
        """Increment a worker's outstanding-task counter."""
        self.get(worker_id).outstanding_tasks += 1

    def release(self, worker_id: int) -> None:
        """Decrement a worker's outstanding-task counter (not below zero)."""
        worker = self.get(worker_id)
        worker.outstanding_tasks = max(0, worker.outstanding_tasks - 1)
