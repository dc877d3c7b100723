"""Tests for the popular-route miners (MPR, LDR, MFP) and the transfer network."""

from collections import Counter

import pytest

from repro.exceptions import InsufficientSupportError, RoutingError
from repro.routing.base import RouteQuery
from repro.routing.ldr import LocalDriverRouteMiner
from repro.routing.mfp import MostFrequentPathMiner
from repro.routing.mpr import MostPopularRouteMiner
from repro.routing.popularity import TransferNetwork
from repro.trajectory.generator import TrajectoryGenerator, TrajectoryGeneratorConfig
from repro.trajectory.storage import TrajectoryStore


@pytest.fixture(scope="module")
def mining_setup(small_network):
    """A store with concentrated trips on a handful of od-pairs."""
    generator = TrajectoryGenerator(
        small_network,
        TrajectoryGeneratorConfig(
            num_drivers=10, num_hot_pairs=4, trips_per_driver=8, min_od_distance_m=700.0, seed=45
        ),
    )
    drivers = generator.generate_drivers()
    hot_pairs = generator.generate_hot_od_pairs()
    trajectories = generator.generate(drivers, hot_pairs)
    store = TrajectoryStore(small_network)
    store.add_many(trajectories)
    return store, hot_pairs, generator


class TestTransferNetwork:
    def test_counts_match_store(self, small_network, mining_setup):
        store, _, _ = mining_setup
        transfer = TransferNetwork(small_network, store)
        assert transfer.total_trajectories == len(store)
        traversals = Counter()
        for trajectory_id in store.all_ids():
            path = store.matched_path(trajectory_id)
            traversals.update(zip(path, path[1:]))
        for edge in small_network.edges():
            assert transfer.edge_count(*edge.key) == traversals[edge.key]

    def test_transition_probabilities_sum_to_at_most_one(self, small_network, mining_setup):
        store, _, _ = mining_setup
        transfer = TransferNetwork(small_network, store)
        # For a node with observed outgoing transitions, the probabilities
        # over its graph neighbours should sum to ~1 (smoothing included).
        edge, _ = transfer.hottest_edges(1)[0]
        node = edge[0]
        total = sum(
            transfer.transition_probability(node, neighbor)
            for neighbor in small_network.neighbors(node)
        )
        assert total == pytest.approx(1.0, abs=0.05)

    def test_coverage_between_zero_and_one(self, small_network, mining_setup):
        store, _, _ = mining_setup
        transfer = TransferNetwork(small_network, store)
        assert 0.0 < transfer.coverage() <= 1.0

    def test_popularity_cost_decreases_with_support(self, small_network, mining_setup):
        store, _, _ = mining_setup
        transfer = TransferNetwork(small_network, store)
        edge, _ = transfer.hottest_edges(1)[0]
        unused = next(
            e.key for e in small_network.edges() if transfer.edge_count(*e.key) == 0 and e.source == edge[0]
        ) if any(transfer.edge_count(*e.key) == 0 and e.source == edge[0] for e in small_network.edges()) else None
        if unused is None:
            pytest.skip("all outgoing edges of the hottest node are used")
        assert transfer.edge_popularity_cost(*edge) < transfer.edge_popularity_cost(*unused)


class TestMPR:
    def test_recommends_on_supported_pair(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = MostPopularRouteMiner(small_network, store, min_support=2)
        origin, destination = hot_pairs[0]
        route = miner.recommend(RouteQuery(origin, destination))
        small_network.validate_path(list(route.path))
        assert route.source == "MPR"
        assert route.support >= 2

    def test_insufficient_support_raises(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = MostPopularRouteMiner(small_network, store, min_support=10_000)
        origin, destination = hot_pairs[0]
        with pytest.raises(InsufficientSupportError):
            miner.recommend(RouteQuery(origin, destination))

    def test_invalid_min_support(self, small_network, mining_setup):
        store, _, _ = mining_setup
        with pytest.raises(RoutingError):
            MostPopularRouteMiner(small_network, store, min_support=-1)

    def test_prefers_supported_edges(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = MostPopularRouteMiner(small_network, store, min_support=1)
        origin, destination = hot_pairs[0]
        route = miner.recommend(RouteQuery(origin, destination))
        supported_edges = sum(
            1 for e in zip(route.path, route.path[1:]) if miner.transfer.edge_count(*e) > 0
        )
        assert supported_edges / (len(route.path) - 1) > 0.5


class TestMFP:
    def test_returns_an_actually_travelled_path(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = MostFrequentPathMiner(small_network, store, min_support=2)
        origin, destination = hot_pairs[0]
        route = miner.recommend(RouteQuery(origin, destination))
        origin_location = small_network.node_location(route.path[0])
        destination_location = small_network.node_location(route.path[-1])
        historical = store.paths_between(origin_location, destination_location, 300.0)
        assert list(route.path) in historical

    def test_frequency_metadata(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = MostFrequentPathMiner(small_network, store, min_support=2)
        origin, destination = hot_pairs[0]
        route = miner.recommend(RouteQuery(origin, destination))
        assert route.metadata["frequency"] >= 1

    def test_insufficient_support(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = MostFrequentPathMiner(small_network, store, min_support=10_000)
        with pytest.raises(InsufficientSupportError):
            miner.recommend(RouteQuery(*hot_pairs[0]))

    def test_invalid_parameters(self, small_network, mining_setup):
        store, _, _ = mining_setup
        with pytest.raises(RoutingError):
            MostFrequentPathMiner(small_network, store, min_support=-1)
        with pytest.raises(RoutingError):
            MostFrequentPathMiner(small_network, store, time_slot_width_s=0)


class TestLDR:
    def test_returns_a_single_drivers_habitual_route(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = LocalDriverRouteMiner(small_network, store, min_support=2)
        origin, destination = hot_pairs[0]
        route = miner.recommend(RouteQuery(origin, destination))
        driver_id = int(route.metadata["driver_id"])
        # The habitual route must be one of that driver's own trips.
        origin_location = small_network.node_location(route.path[0])
        destination_location = small_network.node_location(route.path[-1])
        driver_paths = [
            store.matched_path(tid)
            for tid in store.find_by_od(origin_location, destination_location, 300.0)
            if store.get(tid).driver_id == driver_id
        ]
        assert list(route.path) in driver_paths

    def test_insufficient_support(self, small_network, mining_setup):
        store, hot_pairs, _ = mining_setup
        miner = LocalDriverRouteMiner(small_network, store, min_support=10_000)
        with pytest.raises(InsufficientSupportError):
            miner.recommend(RouteQuery(*hot_pairs[0]))

    def test_invalid_min_support(self, small_network, mining_setup):
        store, _, _ = mining_setup
        with pytest.raises(RoutingError):
            LocalDriverRouteMiner(small_network, store, min_support=-1)

    def test_unsupported_od_pair_raises(self, small_network, mining_setup):
        store, _, _ = mining_setup
        miner = LocalDriverRouteMiner(small_network, store, min_support=1)
        # Adjacent corner nodes are extremely unlikely to be a hot pair.
        with pytest.raises(InsufficientSupportError):
            miner.recommend(RouteQuery(0, 1))
