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
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError


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

    def answer_accuracies_matrix(self, workers, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``(worker, landmark)`` answer-accuracy matrix for a whole crew.

        One numpy evaluation covers every (worker, anchor, landmark) triple:
        anchor coordinates are padded to the crew's maximum anchor count with
        ``inf`` (an infinitely far anchor never wins the nearest-anchor
        minimum), so the batched crowd simulator pays numpy dispatch once per
        task rather than once per worker.  Row ``i`` is bit-identical to
        :func:`repro.crowd.reference.answer_accuracies` for ``workers[i]``.
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

        Mirrors the scalar :func:`repro.crowd.reference.knowledge_of` /
        :func:`repro.crowd.reference.answer_accuracy` operation for operation.
        """
        radius = self.knowledge_radius_m
        ratio = nearest / radius
        knowledge = np.where(
            nearest <= radius,
            1.0 - 0.5 * ratio,
            np.where(nearest >= 2.0 * radius, 0.0, 0.5 * (2.0 - ratio)),
        )
        return self.base_accuracy + (self.max_accuracy - self.base_accuracy) * knowledge
