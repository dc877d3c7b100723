"""Vectorized familiarity kernels vs their sequential oracles: the
accumulation (bit-identical, neighbour structure cached per catalogue
version) and the raw-matrix anchor-distance kernel (tight allclose — its
``np.hypot``/``np.exp`` may differ from the scalar ``math`` calls by an
ulp)."""

import numpy as np
import pytest

from repro.core.familiarity import FamiliarityModel
from repro.core.reference import accumulate_reference, build_raw_matrix_reference
from repro.landmarks.model import Landmark, LandmarkKind
from repro.spatial import Point


@pytest.fixture()
def model(scenario):
    return FamiliarityModel(scenario.worker_pool, scenario.catalog)


class TestRawMatrixEquivalence:
    def test_matches_double_loop_oracle(self, model):
        fast = model.build_raw_matrix()
        oracle = build_raw_matrix_reference(model)
        assert fast.shape == oracle.shape
        np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=1e-15)
        # "No information" entries must agree exactly: the PMF treats zeros
        # as unobserved, so an ulp of leakage would change the sparsity.
        assert np.array_equal(fast == 0.0, oracle == 0.0)

    def test_history_term_scattered(self, scenario):
        import copy

        pool = copy.deepcopy(scenario.worker_pool)
        model = FamiliarityModel(pool, scenario.catalog)
        worker_id = model.worker_ids[0]
        landmark_id = model.landmark_ids[0]
        worker = pool.get(worker_id)
        worker.record_answer(landmark_id, correct=True)
        worker.record_answer(landmark_id, correct=False)
        fast = model.build_raw_matrix()
        oracle = build_raw_matrix_reference(model)
        np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=1e-15)
        row = model._worker_index[worker_id]
        column = model._landmark_index[landmark_id]
        beta = model.config.familiarity_beta
        alpha = model.config.familiarity_alpha
        assert fast[row, column] >= (1.0 - alpha) * (1.0 + beta * 1.0)

    def test_no_familiar_places_falls_back_to_home(self, scenario):
        import copy

        pool = copy.deepcopy(scenario.worker_pool)
        for worker in pool.workers():
            worker.familiar_places.clear()
        model = FamiliarityModel(pool, scenario.catalog)
        np.testing.assert_allclose(
            model.build_raw_matrix(), build_raw_matrix_reference(model), rtol=1e-12, atol=1e-15
        )

    def test_fit_consumes_vectorized_kernel(self, scenario):
        model = FamiliarityModel(scenario.worker_pool, scenario.catalog)
        accumulated = model.fit(use_pmf=False)
        oracle = accumulate_reference(model, model.build_raw_matrix())
        assert np.array_equal(accumulated, oracle)


class TestAccumulateEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 23, 101])
    def test_bit_identical_on_random_matrices(self, model, seed):
        rng = np.random.default_rng(seed)
        completed = rng.random((len(model.worker_ids), len(model.landmark_ids)))
        vectorized = model._accumulate(completed)
        reference = accumulate_reference(model, completed)
        assert np.array_equal(vectorized, reference)

    @pytest.mark.parametrize("use_pmf", [True, False])
    def test_bit_identical_through_fit(self, scenario, use_pmf):
        model = FamiliarityModel(scenario.worker_pool, scenario.catalog)
        accumulated = model.fit(use_pmf=use_pmf)
        assert np.array_equal(accumulated, accumulate_reference(model, model.completed_matrix()))

    def test_zero_matrix_stays_zero(self, model):
        completed = np.zeros((len(model.worker_ids), len(model.landmark_ids)))
        assert not model._accumulate(completed).any()


class TestStructureCache:
    def test_rounds_cached_between_calls(self, model):
        first = model._accumulation_rounds()
        assert model._accumulation_rounds() is first

    def test_catalog_mutation_invalidates(self, scenario):
        # A private catalogue copy so mutating it cannot leak into the
        # session-scoped scenario.
        from repro.landmarks.model import LandmarkCatalog

        catalog = LandmarkCatalog(scenario.catalog.all())
        model = FamiliarityModel(scenario.worker_pool, catalog)
        rng = np.random.default_rng(3)
        completed = rng.random((len(model.worker_ids), len(model.landmark_ids)))
        stale_rounds = model._accumulation_rounds()

        # Moving an existing landmark changes the neighbourhood geometry
        # without changing the id set the model was built over.
        moved = catalog.get(model.landmark_ids[0])
        catalog.add(
            Landmark(
                landmark_id=moved.landmark_id,
                name=moved.name,
                kind=LandmarkKind.POINT,
                anchor=Point(moved.anchor.x + 5_000.0, moved.anchor.y + 5_000.0),
            )
        )
        assert model._accumulation_rounds() is not stale_rounds
        assert np.array_equal(model._accumulate(completed), accumulate_reference(model, completed))
