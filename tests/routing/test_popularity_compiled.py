"""Compiled popularity cost vectors: equivalence with the closure oracle and
cache invalidation when the transfer network or the road graph changes."""

import pytest

from repro.exceptions import RoadNetworkError
from repro.roadnet.graph import RoadClass, RoadEdge, RoadNode
from repro.roadnet.shortest_path import dijkstra_path
from repro.routing.base import RouteQuery
from repro.routing.mpr import MostPopularRouteMiner
from repro.routing.popularity import TransferNetwork
from repro.routing.reference import ClosureMostPopularRouteMiner
from repro.spatial import Point
from repro.trajectory.generator import TrajectoryGenerator, TrajectoryGeneratorConfig
from repro.trajectory.storage import TrajectoryStore


@pytest.fixture(scope="module")
def mining_setup(small_network):
    generator = TrajectoryGenerator(
        small_network,
        TrajectoryGeneratorConfig(
            num_drivers=10, num_hot_pairs=4, trips_per_driver=8, min_od_distance_m=700.0, seed=45
        ),
    )
    drivers = generator.generate_drivers()
    hot_pairs = generator.generate_hot_od_pairs()
    store = TrajectoryStore(small_network)
    store.add_many(generator.generate(drivers, hot_pairs))
    return store, hot_pairs


class TestCompiledCostVector:
    @pytest.mark.parametrize("smoothing", [0.1, 0.5, 1.0])
    def test_vector_bit_identical_to_oracle(self, small_network, mining_setup, smoothing):
        store, _ = mining_setup
        transfer = TransferNetwork(small_network, store)
        compiled = small_network.compiled()
        metric = transfer.compiled_cost_metric(small_network, smoothing)
        vector = compiled.metric_costs(metric)
        oracle = [
            transfer.edge_popularity_cost(edge.source, edge.target, smoothing)
            for edge in compiled.edge_records
        ]
        assert vector == oracle

    def test_metric_reused_until_state_changes(self, small_network, mining_setup):
        store, _ = mining_setup
        transfer = TransferNetwork(small_network, store)
        compiled = small_network.compiled()
        metric = transfer.compiled_cost_metric(small_network)
        first = compiled.metric_costs(metric)
        assert transfer.compiled_cost_metric(small_network) == metric
        # Same state: the exact vector object is served again.
        assert compiled.metric_costs(metric) is first

    def test_ingest_invalidates_vector(self, small_network, mining_setup):
        store, hot_pairs = mining_setup
        transfer = TransferNetwork(small_network, store)
        compiled = small_network.compiled()
        metric = transfer.compiled_cost_metric(small_network)
        stale = list(compiled.metric_costs(metric))
        version = transfer.version

        origin, destination = hot_pairs[0]
        transfer.ingest_path(dijkstra_path(small_network, origin, destination))
        assert transfer.version == version + 1
        assert transfer.compiled_cost_metric(small_network) == metric
        fresh = compiled.metric_costs(metric)
        oracle = [
            transfer.edge_popularity_cost(edge.source, edge.target, 0.1)
            for edge in compiled.edge_records
        ]
        assert fresh == oracle
        assert fresh != stale

    def test_refresh_resyncs_with_store(self, small_network, mining_setup):
        store, _ = mining_setup
        transfer = TransferNetwork(small_network, store)
        total = transfer.total_trajectories
        version = transfer.version
        transfer.refresh()
        assert transfer.version == version + 1
        assert transfer.total_trajectories == total == len(store)

    def test_network_mutation_recompiles(self, mining_setup):
        # A private copy of the grid so mutating it cannot leak into the
        # session-scoped fixture.
        from repro.roadnet.generators import GridCityConfig, generate_grid_city

        network = generate_grid_city(GridCityConfig(rows=8, cols=8, block_size_m=200.0, seed=3))
        store, _ = mining_setup
        transfer = TransferNetwork(network, store)
        metric = transfer.compiled_cost_metric(network)
        before = network.compiled()
        assert before.metric_token(metric) is not None

        new_node = max(network.node_ids()) + 1
        network.add_node(RoadNode(new_node, Point(-500.0, -500.0)))
        network.add_edge(RoadEdge(new_node, network.node_ids()[0], 707.0, RoadClass.LOCAL))
        assert transfer.compiled_cost_metric(network) == metric
        after = network.compiled()
        assert after is not before
        assert len(after.metric_costs(metric)) == after.edge_count


class TestIncrementalIngest:
    """After ``ingest_path`` the next compile serves the fresh vector and lists."""

    def _fresh(self, small_network, store):
        # A private transfer network so metric state cannot leak across tests.
        return TransferNetwork(small_network, store)

    def test_patch_repairs_cached_relaxation_lists(self, small_network, mining_setup):
        store, hot_pairs = mining_setup
        transfer = self._fresh(small_network, store)
        compiled = small_network.compiled()
        metric = transfer.compiled_cost_metric(small_network)
        stale = compiled.relaxation_lists(compiled.metric_costs(metric))

        origin, destination = hot_pairs[0]
        transfer.ingest_path(dijkstra_path(small_network, origin, destination))
        transfer.compiled_cost_metric(small_network)
        vector = compiled.metric_costs(metric)
        cached = compiled.relaxation_lists(vector)
        # A copy is not a registered vector, so its lists are built from scratch.
        fresh = compiled.relaxation_lists(list(vector))
        assert cached == fresh
        assert cached != stale

    def test_routing_stays_equal_to_closure_after_live_ingest(self, small_network, mining_setup):
        store, hot_pairs = mining_setup
        compiled_miner = MostPopularRouteMiner(small_network, store, min_support=2)
        closure_miner = ClosureMostPopularRouteMiner(
            small_network,
            store,
            min_support=2,
            transfer_network=compiled_miner.transfer,
        )
        compiled_miner.prepare_batch([])
        for origin, destination in hot_pairs[:2]:
            compiled_miner.transfer.ingest_path(dijkstra_path(small_network, origin, destination))
            for query_pair in hot_pairs:
                query = RouteQuery(*query_pair)
                fast = compiled_miner.recommend_or_none(query)
                oracle = closure_miner.recommend_or_none(query)
                assert (fast.path if fast else None) == (oracle.path if oracle else None)

    def test_refresh_falls_back_to_full_recompile(self, small_network, mining_setup):
        store, _ = mining_setup
        transfer = self._fresh(small_network, store)
        compiled = small_network.compiled()
        metric = transfer.compiled_cost_metric(small_network)
        vector_before = compiled.metric_costs(metric)
        transfer.refresh()
        assert transfer.compiled_cost_metric(small_network) == metric
        assert compiled.metric_costs(metric) is not vector_before  # re-registered
        oracle = [
            transfer.edge_popularity_cost(edge.source, edge.target, 0.1)
            for edge in compiled.edge_records
        ]
        assert compiled.metric_costs(metric) == oracle

    def test_smoothing_change_recompiles(self, small_network, mining_setup):
        store, hot_pairs = mining_setup
        transfer = self._fresh(small_network, store)
        compiled = small_network.compiled()
        metric = transfer.compiled_cost_metric(small_network, smoothing=0.1)
        transfer.ingest_path(dijkstra_path(small_network, *hot_pairs[0]))
        assert transfer.compiled_cost_metric(small_network, smoothing=0.5) == metric
        oracle = [
            transfer.edge_popularity_cost(edge.source, edge.target, 0.5)
            for edge in compiled.edge_records
        ]
        assert compiled.metric_costs(metric) == oracle


class TestRegisterMetricValidation:
    def test_rejects_wrong_length(self, small_network):
        compiled = small_network.compiled()
        with pytest.raises(RoadNetworkError):
            compiled.register_metric("bad", [1.0])

    def test_rejects_negative_and_nan(self, small_network):
        compiled = small_network.compiled()
        costs = [1.0] * compiled.edge_count
        costs[0] = -1.0
        with pytest.raises(RoadNetworkError):
            compiled.register_metric("bad", costs)
        costs[0] = float("nan")
        with pytest.raises(RoadNetworkError):
            compiled.register_metric("bad", costs)

    def test_rejects_builtin_names(self, small_network):
        compiled = small_network.compiled()
        with pytest.raises(RoadNetworkError):
            compiled.register_metric("length", [1.0] * compiled.edge_count)

    def test_allows_infinite_costs(self, small_network):
        compiled = small_network.compiled()
        costs = [1.0] * compiled.edge_count
        costs[0] = float("inf")
        compiled.register_metric("with-inf", costs)
        assert compiled.metric_costs("with-inf")[0] == float("inf")


class TestMinerEquivalence:
    def test_routes_match_closure_oracle(self, small_network, mining_setup):
        store, hot_pairs = mining_setup
        compiled_miner = MostPopularRouteMiner(small_network, store, min_support=2)
        closure_miner = ClosureMostPopularRouteMiner(
            small_network,
            store,
            min_support=2,
            transfer_network=compiled_miner.transfer,
        )
        queries = [RouteQuery(origin, destination) for origin, destination in hot_pairs]
        queries += [query.reversed() for query in queries]
        for query in queries:
            fast = compiled_miner.recommend_or_none(query)
            oracle = closure_miner.recommend_or_none(query)
            if oracle is None:
                assert fast is None
            else:
                assert fast.path == oracle.path
                assert fast.support == oracle.support
