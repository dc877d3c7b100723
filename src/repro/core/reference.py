"""Reference implementations of the core models (pre-vectorized era).

The production classes run one code path each: PMF trains on the observed
COO entries only, the familiarity model builds and accumulates its matrix
with numpy kernels, and serving shards read the truth store through
copy-on-write views.  The originals they replaced live here as behavioural
oracles, the way :mod:`repro.roadnet.reference` keeps the original searches:

* :class:`DenseProbabilisticMatrixFactorization` — PMF with the original
  dense ``np.where``-masked objective and gradients (the ``pmf_fit``
  oracle); it overrides only the loss hook, so it runs the same
  step-size backoff and convergence loop as the production class;
* :func:`raw_score`, :func:`build_raw_matrix_reference` and
  :func:`accumulate_reference` — the paper's per-pair familiarity score and
  the scalar loops over it (the ``familiarity_raw`` and ``familiarity``
  oracles);
* :func:`partition_by_cells` — the materialised truth partition that
  :meth:`~repro.core.truth.TruthDatabase.view_by_cells` must answer like.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Tuple

import numpy as np

from .familiarity import FamiliarityModel, _gaussian_weight
from .pmf import ProbabilisticMatrixFactorization
from .truth import TruthDatabase
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


def partition_by_cells(store: TruthDatabase, cells: Iterable[Tuple[int, int]]) -> TruthDatabase:
    """A new store holding the truths whose *destination* falls in ``cells``.

    Truths keep their ids and relative insertion order, so distance
    tie-breaking inside the partition agrees with ``store``.  The partition
    is an independent store: truths recorded into it do not appear in
    ``store``.
    """
    partition = TruthDatabase(store.network, store.config)
    for truth_id in store._destination_index.items_in_cells(cells):
        partition._adopt(store._truths[truth_id])
    return partition
