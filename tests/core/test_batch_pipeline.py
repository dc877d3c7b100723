"""Batch-level planner plumbing: od-cell grouping, the planner keeping no
candidate memo of its own (sources memoise per od pair), the truth
database's destination index and cached route signatures."""

import pytest

from repro.core.planner import CrowdPlanner
from repro.core.truth import TruthDatabase
from repro.routing.base import CandidateRoute, RouteQuery, RouteSource


class CountingSource(RouteSource):
    """Returns the network's trivial two-node route, counting invocations."""

    name = "counting"

    def __init__(self, network):
        self.network = network
        self.recommend_calls = 0
        self.prepare_calls = 0

    def recommend(self, query):
        self.recommend_calls += 1
        from repro.roadnet.shortest_path import dijkstra_path

        return CandidateRoute(
            path=dijkstra_path(self.network, query.origin, query.destination),
            source=self.name,
        )

    def prepare_batch(self, queries):
        self.prepare_calls += 1


@pytest.fixture()
def counting_planner(scenario):
    source = CountingSource(scenario.network)
    planner = CrowdPlanner(
        network=scenario.network,
        catalog=scenario.catalog,
        calibrator=scenario.calibrator,
        sources=[source],
        worker_pool=scenario.worker_pool,
    )
    return planner, source


class TestBatchSharing:
    def test_prepare_batch_hook_runs_once(self, scenario, counting_planner):
        planner, source = counting_planner
        queries = scenario.sample_queries(3, seed=811)
        planner.recommend_batch(queries)
        assert source.prepare_calls == 1

    def test_memo_disabled_outside_batches(self, scenario, counting_planner):
        planner, source = counting_planner
        query = scenario.sample_queries(1, seed=813)[0]
        planner.generate_candidates(query)
        planner.generate_candidates(query)
        assert source.recommend_calls == 2

    def test_od_cell_groups_cover_all_queries(self, scenario, counting_planner):
        planner, _ = counting_planner
        queries = scenario.sample_queries(8, seed=814)
        groups = planner.od_cell_groups(queries)
        indices = sorted(index for members in groups.values() for index in members)
        assert indices == list(range(len(queries)))
        assert planner.od_cell_groups([queries[0], queries[0]]) and (
            len(planner.od_cell_groups([queries[0], queries[0]])) == 1
        )

    def test_batch_matches_sequential_with_shared_generation(self, scenario):
        queries = scenario.sample_queries(6, seed=815)
        # Duplicate a query mid-batch so the truth store answers it.
        queries = queries + [queries[0]]

        def build():
            return CrowdPlanner(
                network=scenario.network,
                catalog=scenario.catalog,
                calibrator=scenario.calibrator,
                sources=[CountingSource(scenario.network)],
                worker_pool=scenario.worker_pool,
            )

        sequential = build()
        expected = [sequential.recommend(query) for query in queries]
        batched = build().recommend_batch(queries)
        assert [list(r.route.path) for r in batched] == [list(r.route.path) for r in expected]
        assert [r.method for r in batched] == [r.method for r in expected]


class TestTruthDestinationIndex:
    def test_truths_near_matches_naive_filter(self, scenario):
        truths = TruthDatabase(scenario.network, scenario.config.planner_config)
        for query in scenario.sample_queries(12, seed=816):
            route = CandidateRoute(path=scenario.ground_truth_path(query), source="seed")
            truths.record(query, route, verified_by="test", confidence=0.8)
        assert len(truths) > 0
        radius = 2_000.0
        for probe in scenario.sample_queries(5, seed=817):
            origin = scenario.network.node_location(probe.origin)
            destination = scenario.network.node_location(probe.destination)
            indexed = truths.truths_near(origin, destination, radius)
            naive = [
                truth
                for truth, _ in (
                    (truths.get(tid), d)
                    for tid, d in truths._origin_index.within_radius(origin, radius)
                )
                if truth.destination.distance_to(destination) <= radius
            ]
            assert [t.truth_id for t in indexed] == [t.truth_id for t in naive]

    def test_lookup_still_prefers_closest_origin(self, scenario):
        config = scenario.config.planner_config
        database = TruthDatabase(scenario.network, config)
        query = scenario.sample_queries(1, seed=818)[0]
        route = CandidateRoute(path=scenario.ground_truth_path(query), source="x")
        recorded = database.record(query, route, verified_by="test", confidence=0.9)
        assert database.lookup(query).truth_id == recorded.truth_id
        assert database.lookup(query.reversed()) is None


class TestEdgeSignatureCache:
    def test_signature_cached_and_consistent(self):
        route = CandidateRoute(path=[1, 2, 3, 4], source="a")
        signature = route.edge_signature()
        assert route.edge_signature() is signature
        assert signature == frozenset({(1, 2), (2, 3), (3, 4)})
        assert route.edge_set() == set(signature)

    def test_similarity_unchanged(self):
        a = CandidateRoute(path=[1, 2, 3, 4], source="a")
        b = CandidateRoute(path=[1, 2, 5, 4], source="b")
        mine, theirs = a.edge_set(), b.edge_set()
        expected = len(mine & theirs) / len(mine | theirs)
        assert a.similarity_to(b) == expected
        assert a.similarity_to(a) == 1.0
