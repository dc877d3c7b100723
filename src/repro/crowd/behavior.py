"""Worker answering behaviour.

When a (simulated) worker is asked "would you prefer the route passing
landmark X?", their answer depends on whether they actually know the area.
The behaviour model turns a worker's *true* spatial knowledge into a
probability of answering the question consistently with the ground-truth best
route:

* a worker whose anchors are close to the landmark answers correctly with
  high probability (up to ``max_accuracy``);
* a worker with no knowledge of the area answers essentially at random
  (``0.5``).

This is the behavioural assumption that makes worker selection matter: tasks
answered by knowledgeable workers yield the right route, tasks answered by
random workers yield noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..spatial import Point
from ..core.worker import Worker


@dataclass(frozen=True)
class AnswerBehaviorModel:
    """Maps true worker knowledge to answer accuracy.

    Attributes
    ----------
    knowledge_radius_m:
        Distance from a worker anchor within which the worker "knows" a
        landmark well.
    max_accuracy:
        Probability of a correct answer for a perfectly knowledgeable worker.
    base_accuracy:
        Probability of a correct answer for a worker with no knowledge
        (random guessing = 0.5).
    """

    knowledge_radius_m: float = 2_500.0
    max_accuracy: float = 0.95
    base_accuracy: float = 0.5

    def __post_init__(self) -> None:
        # ``math.isfinite`` first: NaN fails no ordering comparison.
        if not (math.isfinite(self.knowledge_radius_m) and self.knowledge_radius_m > 0):
            raise ConfigurationError("knowledge_radius_m must be positive and finite")
        if not 0.0 <= self.base_accuracy <= self.max_accuracy <= 1.0:
            raise ConfigurationError("need 0 <= base_accuracy <= max_accuracy <= 1")

    def knowledge_of(self, worker: Worker, landmark_anchor: Point) -> float:
        """The worker's true knowledge of the landmark's area, in [0, 1].

        Knowledge decays linearly with the distance from the nearest anchor
        and reaches zero at twice the knowledge radius.
        """
        nearest = min(anchor.distance_to(landmark_anchor) for anchor in worker.anchors())
        if nearest <= self.knowledge_radius_m:
            return 1.0 - 0.5 * (nearest / self.knowledge_radius_m)
        if nearest >= 2 * self.knowledge_radius_m:
            return 0.0
        return 0.5 * (2.0 - nearest / self.knowledge_radius_m)

    def answer_accuracy(self, worker: Worker, landmark_anchor: Point) -> float:
        """Probability the worker answers a question about this landmark correctly."""
        knowledge = self.knowledge_of(worker, landmark_anchor)
        return self.base_accuracy + (self.max_accuracy - self.base_accuracy) * knowledge

    def answer_accuracies(self, worker: Worker, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Per-landmark answer accuracies for one worker, vectorized.

        ``xs``/``ys`` are the anchor coordinates of the landmarks to evaluate.
        This is the batched crowd simulator's one-evaluation-per-worker path:
        the nearest-anchor distance, the piecewise-linear knowledge decay and
        the accuracy blend are computed for the whole landmark set in numpy
        with the same arithmetic as the scalar methods.  (``np.hypot`` may
        disagree with ``math.hypot`` in the final ulp, so individual
        accuracies can differ from :meth:`answer_accuracy` by ~1e-16; a
        sampled answer only changes if a uniform draw lands inside that
        window, and the batched-vs-sequential equivalence tests pin exact
        response equality on seeded scenarios.)
        """
        anchors = worker.anchors()
        ax = np.array([anchor.x for anchor in anchors], dtype=np.float64)
        ay = np.array([anchor.y for anchor in anchors], dtype=np.float64)
        nearest = np.hypot(xs[None, :] - ax[:, None], ys[None, :] - ay[:, None]).min(axis=0)
        return self._accuracies_from_nearest(nearest)

    def answer_accuracies_matrix(self, workers, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``(worker, landmark)`` answer-accuracy matrix for a whole crew.

        One numpy evaluation covers every (worker, anchor, landmark) triple:
        anchor coordinates are padded to the crew's maximum anchor count with
        ``inf`` (an infinitely far anchor never wins the nearest-anchor
        minimum), so the batched crowd simulator pays numpy dispatch once per
        task rather than once per worker.  Row ``i`` is bit-identical to
        ``answer_accuracies(workers[i], xs, ys)``.
        """
        anchor_lists = [worker.anchors() for worker in workers]
        width = max((len(anchors) for anchors in anchor_lists), default=1)
        ax = np.full((len(anchor_lists), width), np.inf, dtype=np.float64)
        ay = np.full((len(anchor_lists), width), np.inf, dtype=np.float64)
        for i, anchors in enumerate(anchor_lists):
            for j, anchor in enumerate(anchors):
                ax[i, j] = anchor.x
                ay[i, j] = anchor.y
        distances = np.hypot(
            xs[None, None, :] - ax[:, :, None], ys[None, None, :] - ay[:, :, None]
        )
        return self._accuracies_from_nearest(distances.min(axis=1))

    def _accuracies_from_nearest(self, nearest: np.ndarray) -> np.ndarray:
        """Piecewise-linear knowledge decay + accuracy blend, elementwise.

        Mirrors :meth:`knowledge_of` / :meth:`answer_accuracy` operation for
        operation.
        """
        radius = self.knowledge_radius_m
        ratio = nearest / radius
        knowledge = np.where(
            nearest <= radius,
            1.0 - 0.5 * ratio,
            np.where(nearest >= 2.0 * radius, 0.0, 0.5 * (2.0 - ratio)),
        )
        return self.base_accuracy + (self.max_accuracy - self.base_accuracy) * knowledge

    def answer(
        self,
        worker: Worker,
        landmark_anchor: Point,
        truthful_answer: bool,
        rng: random.Random,
    ) -> bool:
        """Sample the worker's yes/no answer given the ground-truth answer."""
        if rng.random() < self.answer_accuracy(worker, landmark_anchor):
            return truthful_answer
        return not truthful_answer
