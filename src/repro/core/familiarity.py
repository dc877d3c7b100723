"""Worker familiarity scores (Section IV-B).

The familiarity of worker ``w`` with landmark ``l`` combines two signals:

* profile proximity — how close the landmark is to the worker's home, work
  place and declared familiar places; and
* answer history — how often the worker answered questions about this
  landmark correctly (a wrong answer still indicates partial knowledge, so it
  earns a discounted credit ``beta``).

Raw scores form a very sparse worker x landmark matrix ``M``; PMF completes
it by exploiting latent similarity between workers, and the *accumulated*
familiarity of a landmark is the Gaussian-weighted sum of the completed
scores over all landmarks within the knowledge radius ``eta_dis``.  Both
steps run as vectorized numpy kernels; the per-pair scalar score and the
sequential accumulation loop they replaced are preserved in
:mod:`repro.core.reference` as their oracles.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, PlannerConfig
from ..exceptions import WorkerSelectionError
from ..landmarks.model import LandmarkCatalog
from .pmf import ProbabilisticMatrixFactorization
from .worker import WorkerPool


class FamiliarityModel:
    """Builds, completes and accumulates the worker-landmark familiarity matrix."""

    def __init__(
        self,
        pool: WorkerPool,
        catalog: LandmarkCatalog,
        config: PlannerConfig = DEFAULT_CONFIG,
        pmf: Optional[ProbabilisticMatrixFactorization] = None,
    ):
        self.pool = pool
        self.catalog = catalog
        self.config = config
        self.pmf = pmf or ProbabilisticMatrixFactorization(latent_dim=config.pmf_latent_dim)
        self._worker_ids = sorted(pool.ids())
        self._landmark_ids = sorted(catalog.ids())
        self._worker_index = {wid: i for i, wid in enumerate(self._worker_ids)}
        self._landmark_index = {lid: j for j, lid in enumerate(self._landmark_ids)}
        self._completed: Optional[np.ndarray] = None
        self._accumulated: Optional[np.ndarray] = None
        # Neighbourhood accumulation structure, cached against the catalogue
        # version (see _accumulation_rounds).
        self._rounds_key: Optional[Tuple[int, float]] = None
        self._rounds: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # ---------------------------------------------------------------- scores
    def build_raw_matrix(self) -> np.ndarray:
        """The sparse observed matrix ``M`` (zeros mean "no information").

        Vectorized as an anchor-distance kernel (the same shape as
        :meth:`AnswerBehaviorModel.answer_accuracies_matrix`): the three
        profile distances — home, workplace and nearest declared familiar
        place, the latter via an ``inf``-padded ``(worker, place)`` minimum —
        are computed for every (worker, landmark) pair in one numpy pass, and
        the sparse answer-history term is scattered on top from each worker's
        per-landmark records.  Distances beyond the knowledge radius
        ``eta_dis`` count as infinite (their exponential term vanishes) and
        are expressed in units of that radius, so the exponential stays in a
        useful range regardless of city size.  The former double loop over
        the paper's per-pair ``f_w^l`` is preserved as
        :func:`repro.core.reference.build_raw_matrix_reference`, the oracle
        the equivalence tests and the ``familiarity_raw`` benchmark compare
        against (``np.hypot`` / ``np.exp`` may differ from the scalar
        ``math`` calls in the final ulp, so the comparison is a tight
        ``allclose`` rather than bitwise).
        """
        workers = [self.pool.get(worker_id) for worker_id in self._worker_ids]
        num_workers, num_landmarks = len(workers), len(self._landmark_ids)
        if num_workers == 0 or num_landmarks == 0:
            return np.zeros((num_workers, num_landmarks))
        radius = self.config.knowledge_radius_m

        anchors = [self.catalog.get(landmark_id).anchor for landmark_id in self._landmark_ids]
        lx = np.array([anchor.x for anchor in anchors], dtype=np.float64)
        ly = np.array([anchor.y for anchor in anchors], dtype=np.float64)
        hx = np.array([worker.home.x for worker in workers], dtype=np.float64)
        hy = np.array([worker.home.y for worker in workers], dtype=np.float64)
        wx = np.array([worker.workplace.x for worker in workers], dtype=np.float64)
        wy = np.array([worker.workplace.y for worker in workers], dtype=np.float64)
        # Familiar places padded to the crew maximum with inf (an infinitely
        # far place never wins the minimum); a worker with none declared
        # falls back to home, matching ``nearest_familiar_place``.
        place_lists = [worker.familiar_places or [worker.home] for worker in workers]
        width = max(len(places) for places in place_lists)
        px = np.full((num_workers, width), np.inf, dtype=np.float64)
        py = np.full((num_workers, width), np.inf, dtype=np.float64)
        for i, places in enumerate(place_lists):
            for j, place in enumerate(places):
                px[i, j] = place.x
                py[i, j] = place.y

        home_distance = np.hypot(lx[None, :] - hx[:, None], ly[None, :] - hy[:, None])
        work_distance = np.hypot(lx[None, :] - wx[:, None], ly[None, :] - wy[:, None])
        familiar_distance = np.hypot(
            lx[None, None, :] - px[:, :, None], ly[None, None, :] - py[:, :, None]
        ).min(axis=1)

        def scaled(distance: np.ndarray) -> np.ndarray:
            return np.where(distance > radius, np.inf, distance / radius)

        distance_sum = scaled(home_distance) + scaled(work_distance) + scaled(familiar_distance)
        profile_term = np.where(np.isinf(distance_sum), 0.0, np.exp(-distance_sum))

        history_term = np.zeros((num_workers, num_landmarks))
        beta = self.config.familiarity_beta
        for row, worker in enumerate(workers):
            for landmark_id, record in worker.answer_history.items():
                column = self._landmark_index.get(landmark_id)
                if column is not None:
                    history_term[row, column] = record.correct + beta * record.wrong

        alpha = self.config.familiarity_alpha
        return alpha * profile_term + (1.0 - alpha) * history_term

    # ------------------------------------------------------------ completion
    def fit(self, use_pmf: bool = True) -> np.ndarray:
        """Build the matrix, optionally complete it with PMF, and accumulate.

        Returns the accumulated familiarity matrix ``M*``.  With
        ``use_pmf=False`` the raw matrix is accumulated directly — the
        ablation the PMF experiment (E6) compares against.
        """
        raw = self.build_raw_matrix()
        if use_pmf and raw.any():
            completed = self.pmf.complete(raw)
        else:
            completed = raw
        self._completed = completed
        self._accumulated = self._accumulate(completed)
        return self._accumulated

    def _accumulate(self, completed: np.ndarray) -> np.ndarray:
        """Gaussian-weighted neighbourhood sum: the paper's ``F_w^l``.

        Vectorized as round-sliced gather/scatter over the cached neighbour
        structure: round ``r`` adds every landmark's ``r``-th neighbour
        contribution in one numpy operation, so the Python loop shrinks from
        one iteration per (landmark, neighbour) pair to one per round (the
        maximum neighbour count).  Because each column still receives its
        contributions in the exact neighbour order of the sequential loop —
        and elementwise multiply/add are the same IEEE operations either way
        — the result is bit-identical to
        :func:`repro.core.reference.accumulate_reference`.
        """
        accumulated = np.zeros_like(completed)
        for destinations, sources, weights in self._accumulation_rounds():
            accumulated[:, destinations] += completed[:, sources] * weights
        return accumulated

    def _accumulation_rounds(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-round ``(destination columns, source columns, weights)`` arrays.

        Round ``r`` holds, for every landmark column with at least ``r + 1``
        neighbours, that landmark's ``r``-th neighbour column and Gaussian
        weight, in the exact order the sequential loop visits them (the
        spatial index's distance-sorted ``within_radius`` ranking).  Weights
        are computed with the same scalar arithmetic as the reference
        (``Point.distance_to`` + :func:`_gaussian_weight`).  The structure
        only depends on the catalogue geometry and the knowledge radius, so it
        is cached and invalidated via :attr:`LandmarkCatalog.version`.
        """
        radius = self.config.knowledge_radius_m
        key = (self.catalog.version, radius)
        if self._rounds_key == key:
            return self._rounds
        sigma = radius / 3.0
        per_landmark: List[Tuple[int, List[Tuple[int, float]]]] = []
        for landmark_id in self._landmark_ids:
            column = self._landmark_index[landmark_id]
            anchor = self.catalog.get(landmark_id).anchor
            entries = []
            for neighbour in self.catalog.within_radius(anchor, radius):
                distance = anchor.distance_to(neighbour.anchor)
                entries.append(
                    (self._landmark_index[neighbour.landmark_id], _gaussian_weight(distance, sigma))
                )
            per_landmark.append((column, entries))
        rounds = []
        max_neighbours = max((len(entries) for _, entries in per_landmark), default=0)
        for r in range(max_neighbours):
            slice_r = [
                (column, entries[r][0], entries[r][1])
                for column, entries in per_landmark
                if len(entries) > r
            ]
            destinations = np.array([item[0] for item in slice_r], dtype=np.intp)
            sources = np.array([item[1] for item in slice_r], dtype=np.intp)
            weights = np.array([item[2] for item in slice_r], dtype=np.float64)
            rounds.append((destinations, sources, weights))
        self._rounds = rounds
        self._rounds_key = key
        return rounds

    # ----------------------------------------------------------------- reads
    def completed_matrix(self) -> np.ndarray:
        if self._completed is None:
            raise WorkerSelectionError("FamiliarityModel.fit() has not been called")
        return self._completed

    def accumulated_matrix(self) -> np.ndarray:
        if self._accumulated is None:
            raise WorkerSelectionError("FamiliarityModel.fit() has not been called")
        return self._accumulated

    def accumulated_score(self, worker_id: int, landmark_id: int) -> float:
        """``F_w^l`` for one worker-landmark pair."""
        matrix = self.accumulated_matrix()
        try:
            row = self._worker_index[worker_id]
            column = self._landmark_index[landmark_id]
        except KeyError as error:
            raise WorkerSelectionError(f"unknown worker or landmark: {error}") from None
        return float(matrix[row, column])

    def workers_knowing(self, landmark_id: int, minimum: float = 1e-9) -> List[int]:
        """Worker ids with a non-zero accumulated score for ``landmark_id``."""
        matrix = self.accumulated_matrix()
        column = self._landmark_index[landmark_id]
        return [
            worker_id
            for worker_id in self._worker_ids
            if matrix[self._worker_index[worker_id], column] > minimum
        ]

    @property
    def worker_ids(self) -> List[int]:
        return list(self._worker_ids)

    @property
    def landmark_ids(self) -> List[int]:
        return list(self._landmark_ids)


def _gaussian_weight(distance: float, sigma: float) -> float:
    """Normal-density weight of a neighbouring landmark at ``distance``."""
    if sigma <= 0:
        return 1.0 if distance == 0 else 0.0
    coefficient = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return coefficient * math.exp(-0.5 * (distance / sigma) ** 2)
