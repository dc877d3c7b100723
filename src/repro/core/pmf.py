"""Probabilistic Matrix Factorization (Mnih & Salakhutdinov, NIPS 2007 [15]).

The worker-landmark familiarity matrix ``M`` is extremely sparse: most workers
have never answered a question about most landmarks.  PMF factorizes the
observed entries into latent worker features ``W`` (d x n) and latent landmark
features ``L`` (d x m) so that ``M ≈ WᵀL``, which lets the system predict how
familiar a worker is with a landmark they have never been asked about, from
the behaviour of similar workers.

The implementation minimises

    sum_{ij observed} (M_ij - W_iᵀ L_j)² + λ_W ||W||_F² + λ_L ||L||_F²

by full-batch gradient descent with a simple step-size backoff.  Because the
familiarity matrix is ~95% unobserved, training works on the observed entries
only (COO index arrays): predictions, errors and gradients are computed over
the ``nnz`` observed cells instead of materialising dense ``n×m``
intermediates, with scipy's sparse matmul when available (a pure-numpy
scatter-add fallback otherwise).  The original dense ``np.where``-masked
updates are preserved in :mod:`repro.core.reference` as the verification
oracle; it overrides only :meth:`ProbabilisticMatrixFactorization._loss`,
so both run the same descent loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError

try:  # scipy is optional: only its sparse matmul is used, and only for speed.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only on scipy-less installs
    _scipy_sparse = None


@dataclass
class PMFTrainingReport:
    """Diagnostics of one PMF fit."""

    iterations: int
    final_objective: float
    converged: bool


class ProbabilisticMatrixFactorization:
    """Low-rank completion of a sparse non-negative score matrix.

    Parameters
    ----------
    latent_dim:
        Number of latent factors ``d``.
    regularization_workers, regularization_landmarks:
        ``λ_W`` and ``λ_L``.
    learning_rate:
        Initial gradient-descent step size.
    max_iterations:
        Iteration budget.
    tolerance:
        Relative objective improvement below which training stops.
    seed:
        Seed for the latent-factor initialisation.
    """

    def __init__(
        self,
        latent_dim: int = 8,
        regularization_workers: float = 0.05,
        regularization_landmarks: float = 0.05,
        learning_rate: float = 0.005,
        max_iterations: int = 500,
        tolerance: float = 1e-6,
        seed: int = 23,
    ):
        if latent_dim < 1:
            raise ConfigurationError("latent_dim must be at least 1")
        # ``math.isfinite`` first: NaN fails no ordering comparison.
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise ConfigurationError("learning_rate must be positive and finite")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        for regularization in (regularization_workers, regularization_landmarks):
            if not (math.isfinite(regularization) and regularization >= 0):
                raise ConfigurationError("regularization terms must be non-negative and finite")
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ConfigurationError("tolerance must be non-negative and finite")
        self.latent_dim = latent_dim
        self.regularization_workers = regularization_workers
        self.regularization_landmarks = regularization_landmarks
        self.learning_rate = learning_rate
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.seed = seed
        self.worker_factors: Optional[np.ndarray] = None
        self.landmark_factors: Optional[np.ndarray] = None
        self.report: Optional[PMFTrainingReport] = None

    # -------------------------------------------------------------- training
    def fit(self, matrix: np.ndarray, mask: Optional[np.ndarray] = None) -> PMFTrainingReport:
        """Fit latent factors to the observed entries of ``matrix``.

        ``mask`` marks observed entries (non-zero cells by default, matching
        the paper's indicator ``I_ij``).
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ConfigurationError("matrix must be two-dimensional")
        if mask is None:
            mask = matrix != 0
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != matrix.shape:
            raise ConfigurationError("mask shape must match matrix shape")

        n_workers, n_landmarks = matrix.shape
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / max(1, self.latent_dim)
        workers = rng.normal(0.0, scale, size=(self.latent_dim, n_workers))
        landmarks = rng.normal(0.0, scale, size=(self.latent_dim, n_landmarks))
        objective, gradients = self._loss(matrix, mask)

        learning_rate = self.learning_rate
        previous_objective = objective(workers, landmarks)
        iterations_run = 0
        converged = False
        for iteration in range(1, self.max_iterations + 1):
            iterations_run = iteration
            gradient_workers, gradient_landmarks = gradients(workers, landmarks)

            candidate_workers = workers - learning_rate * gradient_workers
            candidate_landmarks = landmarks - learning_rate * gradient_landmarks
            candidate_objective = objective(candidate_workers, candidate_landmarks)
            if candidate_objective > previous_objective:
                # Overshot: halve the step and retry from the same point.
                learning_rate *= 0.5
                if learning_rate < 1e-9:
                    break
                continue
            workers, landmarks = candidate_workers, candidate_landmarks
            improvement = previous_objective - candidate_objective
            previous_objective = candidate_objective
            if previous_objective > 0 and improvement / max(previous_objective, 1e-12) < self.tolerance:
                converged = True
                break

        self.worker_factors = workers
        self.landmark_factors = landmarks
        self.report = PMFTrainingReport(
            iterations=iterations_run,
            final_objective=float(previous_objective),
            converged=converged,
        )
        return self.report

    def _loss(self, matrix: np.ndarray, mask: np.ndarray) -> Tuple[Callable, Callable]:
        """The objective and its gradients as functions of ``(W, L)``.

        Errors and gradients are computed over the observed COO entries only.
        """
        rows, cols = np.nonzero(mask)
        values = matrix[rows, cols]

        def objective(w: np.ndarray, lm: np.ndarray) -> float:
            errors = values - np.einsum("ij,ij->j", w[:, rows], lm[:, cols])
            return float(
                errors @ errors
                + self.regularization_workers * (w**2).sum()
                + self.regularization_landmarks * (lm**2).sum()
            )

        def gradients(w: np.ndarray, lm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            errors = values - np.einsum("ij,ij->j", w[:, rows], lm[:, cols])
            scattered_w, scattered_l = self._scatter_error_products(
                errors, rows, cols, w, lm, matrix.shape
            )
            gradient_w = -2.0 * scattered_w + 2.0 * self.regularization_workers * w
            gradient_l = -2.0 * scattered_l + 2.0 * self.regularization_landmarks * lm
            return gradient_w, gradient_l

        return objective, gradients

    @staticmethod
    def _scatter_error_products(
        errors: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        workers: np.ndarray,
        landmarks: np.ndarray,
        shape: Tuple[int, int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(L·Errᵀ, W·Err)`` with ``Err`` the sparse observed-error matrix.

        Uses scipy's sparse-dense matmul when available; otherwise falls back
        to an explicit scatter-add over the observed entries, which is still
        O(nnz·d) rather than O(n·m·d).
        """
        if _scipy_sparse is not None:
            error_matrix = _scipy_sparse.csr_matrix((errors, (rows, cols)), shape=shape)
            scattered_w = (error_matrix @ landmarks.T).T
            scattered_l = (error_matrix.T @ workers.T).T
            return scattered_w, scattered_l
        scattered_w = np.zeros_like(workers)
        scattered_l = np.zeros_like(landmarks)
        np.add.at(scattered_w.T, rows, (landmarks[:, cols] * errors).T)
        np.add.at(scattered_l.T, cols, (workers[:, rows] * errors).T)
        return scattered_w, scattered_l

    # ------------------------------------------------------------ prediction
    def predict(self) -> np.ndarray:
        """The completed matrix ``WᵀL`` (clipped at zero, scores are non-negative)."""
        if self.worker_factors is None or self.landmark_factors is None:
            raise ConfigurationError("fit() must be called before predict()")
        return np.clip(self.worker_factors.T @ self.landmark_factors, 0.0, None)

    def complete(self, matrix: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Fit and return ``matrix`` with unobserved cells filled by predictions.

        Observed cells keep their original values.
        """
        matrix = np.asarray(matrix, dtype=float)
        if mask is None:
            mask = matrix != 0
        self.fit(matrix, mask)
        predicted = self.predict()
        return np.where(mask, matrix, predicted)
