"""Tests for the truth database and the automatic route evaluator."""

import math

import pytest

from repro.config import PlannerConfig
from repro.core.evaluation import EvaluationDecision, RouteEvaluator
from repro.core.truth import TruthDatabase
from repro.exceptions import RoutingError, TruthStoreError
from repro.roadnet.shortest_path import dijkstra_path, k_shortest_paths
from repro.routing.base import CandidateRoute, RouteQuery


@pytest.fixture()
def truth_db(small_network):
    return TruthDatabase(small_network, PlannerConfig(truth_reuse_radius_m=250.0, truth_time_slot_minutes=60))


@pytest.fixture(scope="module")
def sample_routes(small_network):
    nodes = small_network.node_ids()
    origin, destination = nodes[0], nodes[-1]
    paths = k_shortest_paths(small_network, origin, destination, 3)
    query = RouteQuery(origin, destination, departure_time_s=9 * 3600.0)
    candidates = [
        CandidateRoute(path=path, source=f"source-{index}", support=index)
        for index, path in enumerate(paths)
    ]
    return query, candidates


class TestTruthDatabase:
    def test_record_and_lookup_same_query(self, truth_db, sample_routes):
        query, candidates = sample_routes
        truth_db.record(query, candidates[0], verified_by="crowd", confidence=0.9)
        hit = truth_db.lookup(query)
        assert hit is not None
        assert hit.route.path == candidates[0].path
        assert len(truth_db) == 1

    def test_lookup_nearby_origin_hits(self, truth_db, sample_routes, small_network):
        query, candidates = sample_routes
        truth_db.record(query, candidates[0], verified_by="crowd", confidence=0.9)
        neighbors = small_network.nodes_within(small_network.node_location(query.origin), 220.0)
        nearby_origin = next((node for node, distance in neighbors if 0 < distance <= 220.0), None)
        if nearby_origin is None:
            pytest.skip("no intersection within the reuse radius")
        nearby_query = RouteQuery(nearby_origin, query.destination, departure_time_s=query.departure_time_s)
        assert truth_db.lookup(nearby_query) is not None

    def test_lookup_misses_for_different_time_slot(self, truth_db, sample_routes):
        query, candidates = sample_routes
        truth_db.record(query, candidates[0], verified_by="crowd", confidence=0.9)
        later = RouteQuery(query.origin, query.destination, departure_time_s=query.departure_time_s + 5 * 3600)
        assert truth_db.lookup(later) is None

    def test_lookup_misses_for_far_destination(self, truth_db, sample_routes, small_network):
        query, candidates = sample_routes
        truth_db.record(query, candidates[0], verified_by="crowd", confidence=0.9)
        other = RouteQuery(query.origin, small_network.node_ids()[5], departure_time_s=query.departure_time_s)
        if small_network.node_location(other.destination).distance_to(
            small_network.node_location(query.destination)
        ) <= 250:
            pytest.skip("chosen destination too close for the miss test")
        assert truth_db.lookup(other) is None

    def test_invalid_confidence_rejected(self, truth_db, sample_routes):
        query, candidates = sample_routes
        with pytest.raises(TruthStoreError):
            truth_db.record(query, candidates[0], verified_by="crowd", confidence=1.5)

    def test_unknown_truth_id(self, truth_db):
        with pytest.raises(TruthStoreError):
            truth_db.get(123456)

    def test_time_slot_of(self, truth_db):
        width = truth_db.config.truth_time_slot_minutes * 60
        assert truth_db.time_slot_of(0.0) == 0
        assert truth_db.time_slot_of(width + 1) == 1

    def test_truths_near_and_hit_rate(self, truth_db, sample_routes, small_network):
        query, candidates = sample_routes
        truth_db.record(query, candidates[0], verified_by="crowd", confidence=0.8)
        origin = small_network.node_location(query.origin)
        destination = small_network.node_location(query.destination)
        assert truth_db.truths_near(origin, destination, 500.0)
        assert truth_db.hit_rate(2, 10) == pytest.approx(0.2)
        assert truth_db.hit_rate(0, 0) == 0.0


class TestRouteEvaluator:
    def test_empty_candidates_rejected(self, truth_db, small_network):
        evaluator = RouteEvaluator(small_network, truth_db)
        with pytest.raises(RoutingError):
            evaluator.evaluate(RouteQuery(0, 1), [])

    def test_identical_candidates_trigger_agreement(self, truth_db, small_network, sample_routes):
        query, candidates = sample_routes
        evaluator = RouteEvaluator(small_network, truth_db, PlannerConfig(agreement_threshold=0.9))
        clones = [
            CandidateRoute(path=candidates[0].path, source="a"),
            CandidateRoute(path=candidates[0].path, source="b"),
        ]
        outcome = evaluator.evaluate(query, clones)
        assert outcome.decision is EvaluationDecision.AGREEMENT
        assert outcome.best_route.path == candidates[0].path
        assert outcome.mean_pairwise_similarity == pytest.approx(1.0)

    def test_disagreeing_candidates_without_truths_need_crowd(self, small_network, sample_routes):
        query, candidates = sample_routes
        config = PlannerConfig(agreement_threshold=0.95, confidence_threshold=0.7)
        evaluator = RouteEvaluator(small_network, TruthDatabase(small_network, config), config)
        if len({c.path for c in candidates}) < 2:
            pytest.skip("alternatives collapsed to a single path")
        outcome = evaluator.evaluate(query, candidates)
        if outcome.mean_pairwise_similarity >= 0.95:
            pytest.skip("candidates agree too much on this network")
        assert outcome.decision is EvaluationDecision.NEEDS_CROWD
        assert outcome.best_route is None

    def test_nearby_truth_makes_candidate_confident(self, small_network, sample_routes):
        query, candidates = sample_routes
        config = PlannerConfig(agreement_threshold=0.99, confidence_threshold=0.5)
        truths = TruthDatabase(small_network, config)
        truths.record(query, candidates[0], verified_by="crowd", confidence=1.0)
        evaluator = RouteEvaluator(small_network, truths, config)
        outcome = evaluator.evaluate(query, candidates)
        assert outcome.decision in (EvaluationDecision.CONFIDENT, EvaluationDecision.AGREEMENT)
        if outcome.decision is EvaluationDecision.CONFIDENT:
            assert outcome.best_route.source == candidates[0].source
            assert outcome.confidences[candidates[0].source] >= 0.5

    def test_confidence_scores_bounded(self, small_network, sample_routes):
        query, candidates = sample_routes
        config = PlannerConfig()
        truths = TruthDatabase(small_network, config)
        truths.record(query, candidates[0], verified_by="crowd", confidence=0.7)
        evaluator = RouteEvaluator(small_network, truths, config)
        scores = evaluator.confidence_scores(query, candidates)
        assert all(0.0 <= score <= 1.0 for score in scores.values())
        best = max(scores.values())
        assert scores[candidates[0].source] == pytest.approx(best)

    def test_invalid_neighbourhood_radius(self, truth_db, small_network):
        with pytest.raises(RoutingError):
            RouteEvaluator(small_network, truth_db, neighbourhood_radius_m=0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_neighbourhood_radius(self, truth_db, small_network, radius):
        """An infinite radius made shard planning's cell reach
        ``int(inf // cell)`` raise a raw ValueError, and a NaN one made
        ``truths_near`` raise SpatialError."""
        with pytest.raises(RoutingError):
            RouteEvaluator(small_network, truth_db, neighbourhood_radius_m=radius)
