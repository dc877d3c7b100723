"""Tests for repro.roadnet.shortest_path."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoPathError, RoadNetworkError
from repro.roadnet import reference
from repro.roadnet.generators import GridCityConfig, generate_grid_city
from repro.roadnet.graph import RoadEdge, RoadNetwork, RoadNode
from repro.roadnet.shortest_path import (
    astar_path,
    dijkstra_path,
    free_flow_time_cost,
    k_shortest_paths,
    length_cost,
    path_cost,
)
from repro.spatial import Point


class TestDijkstra:
    def test_shortest_route_on_tiny_network(self, tiny_network):
        path = dijkstra_path(tiny_network, 0, 3)
        assert path in ([0, 1, 3], [0, 2, 3])
        assert tiny_network.path_length(path) == pytest.approx(200.0)

    def test_unknown_nodes_raise(self, tiny_network):
        with pytest.raises(RoadNetworkError):
            dijkstra_path(tiny_network, 0, 99)
        with pytest.raises(RoadNetworkError):
            dijkstra_path(tiny_network, 99, 0)

    def test_no_path_raises(self):
        network = RoadNetwork()
        network.add_node(RoadNode(0, Point(0, 0)))
        network.add_node(RoadNode(1, Point(100, 0)))
        with pytest.raises(NoPathError):
            dijkstra_path(network, 0, 1)

    def test_forbidden_nodes(self, tiny_network):
        path = dijkstra_path(tiny_network, 0, 3, forbidden_nodes={1, 2})
        assert path == [0, 3]

    def test_forbidden_edges(self, tiny_network):
        path = dijkstra_path(tiny_network, 0, 3, forbidden_edges={(0, 1), (0, 2)})
        assert path == [0, 3]

    def test_negative_cost_rejected(self, tiny_network):
        with pytest.raises(RoadNetworkError):
            dijkstra_path(tiny_network, 0, 3, cost=lambda edge: -1.0)

    @pytest.mark.parametrize("nan_at", ["first", "middle"])
    def test_nan_cost_rejected_wherever_it_sits(self, small_network, nan_at):
        edges = small_network.compiled().edge_records
        poisoned = edges[0] if nan_at == "first" else edges[len(edges) // 2]

        def cost(edge):
            return float("nan") if edge is poisoned else edge.length_m

        origin, destination = small_network.node_ids()[0], small_network.node_ids()[-1]
        with pytest.raises(RoadNetworkError, match="non-negative"):
            dijkstra_path(small_network, origin, destination, cost=cost)
        with pytest.raises(RoadNetworkError, match="non-negative"):
            dijkstra_path(small_network, origin, destination, cost=[cost(e) for e in edges])
        with pytest.raises(RoadNetworkError, match="non-negative"):
            k_shortest_paths(small_network, origin, destination, 2, cost=cost)

    def test_negative_cost_vector_rejected(self, tiny_network):
        costs = [1.0] * tiny_network.compiled().edge_count
        costs[-1] = -1.0
        with pytest.raises(RoadNetworkError, match="non-negative"):
            dijkstra_path(tiny_network, 0, 3, cost=costs)

    def test_cost_vector_length_checked(self, tiny_network):
        with pytest.raises(RoadNetworkError, match="edges"):
            dijkstra_path(tiny_network, 0, 3, cost=[1.0, 1.0])

    def test_cost_vector_matches_callable(self, small_network):
        compiled = small_network.compiled()
        costs = compiled.cost_vector(free_flow_time_cost)
        ids = small_network.node_ids()
        for origin, destination in [(ids[0], ids[-1]), (ids[5], ids[40]), (ids[-3], ids[2])]:
            expected = dijkstra_path(small_network, origin, destination, cost="time")
            assert dijkstra_path(small_network, origin, destination, cost=costs) == expected
            assert path_cost(small_network, expected, costs) == path_cost(
                small_network, expected, free_flow_time_cost
            )
            blocked = {expected[len(expected) // 2]} if len(expected) > 2 else set()
            assert dijkstra_path(
                small_network, origin, destination, cost=costs, forbidden_nodes=blocked
            ) == dijkstra_path(
                small_network, origin, destination, cost="time", forbidden_nodes=blocked
            )

    def test_cost_vector_breaks_exact_ties_like_reference(self):
        # Unjittered blocks of one length: equal-cost routes everywhere, so
        # only the relaxation order and the heap tie-break pick the path.
        network = generate_grid_city(
            GridCityConfig(rows=6, cols=6, seed=2, jitter_m=0.0, drop_edge_probability=0.0)
        )
        costs = network.compiled().cost_vector(length_cost)
        ids = network.node_ids()
        for origin, destination in itertools.permutations(ids[::5], 2):
            assert dijkstra_path(network, origin, destination, cost=costs) == reference.dijkstra_path(
                network, origin, destination
            )

    def test_origin_equals_destination(self, tiny_network):
        assert dijkstra_path(tiny_network, 0, 0) == [0]

    def test_time_cost_prefers_fast_road(self):
        # Two parallel roads: a long highway and a short local street.  The
        # length cost picks the local street, the time cost the highway.
        network = RoadNetwork()
        network.add_node(RoadNode(0, Point(0, 0)))
        network.add_node(RoadNode(1, Point(1000, 0)))
        network.add_node(RoadNode(2, Point(500, 400)))
        from repro.roadnet.graph import RoadClass

        network.add_edge(RoadEdge(0, 1, 1000.0, RoadClass.LOCAL), bidirectional=True)
        network.add_edge(RoadEdge(0, 2, 700.0, RoadClass.HIGHWAY), bidirectional=True)
        network.add_edge(RoadEdge(2, 1, 700.0, RoadClass.HIGHWAY), bidirectional=True)
        assert dijkstra_path(network, 0, 1, cost=length_cost) == [0, 1]
        assert dijkstra_path(network, 0, 1, cost=free_flow_time_cost) == [0, 2, 1]


class TestAStar:
    def test_matches_dijkstra_cost_on_grid(self, small_network):
        nodes = small_network.node_ids()
        for origin, destination in [(nodes[0], nodes[-1]), (nodes[3], nodes[-5])]:
            d_path = dijkstra_path(small_network, origin, destination)
            a_path = astar_path(small_network, origin, destination)
            assert path_cost(small_network, a_path) == pytest.approx(
                path_cost(small_network, d_path)
            )

    def test_time_heuristic(self, small_network):
        nodes = small_network.node_ids()
        path = astar_path(
            small_network,
            nodes[0],
            nodes[-1],
            cost=free_flow_time_cost,
            heuristic_speed_kmh=120.0,
        )
        reference = dijkstra_path(small_network, nodes[0], nodes[-1], cost=free_flow_time_cost)
        assert path_cost(small_network, path, free_flow_time_cost) == pytest.approx(
            path_cost(small_network, reference, free_flow_time_cost)
        )

    def test_invalid_heuristic_speed(self, tiny_network):
        with pytest.raises(RoadNetworkError):
            astar_path(tiny_network, 0, 3, heuristic_speed_kmh=0.0)


class TestKShortestPaths:
    def test_returns_increasing_costs(self, small_network):
        nodes = small_network.node_ids()
        paths = k_shortest_paths(small_network, nodes[0], nodes[-1], 4)
        costs = [path_cost(small_network, path) for path in paths]
        assert costs == sorted(costs)

    def test_paths_are_distinct_and_loopless(self, small_network):
        nodes = small_network.node_ids()
        paths = k_shortest_paths(small_network, nodes[0], nodes[-1], 4)
        assert len({tuple(path) for path in paths}) == len(paths)
        for path in paths:
            assert len(path) == len(set(path))

    def test_first_path_is_shortest(self, tiny_network):
        paths = k_shortest_paths(tiny_network, 0, 3, 3)
        assert path_cost(tiny_network, paths[0]) == pytest.approx(200.0)

    def test_k_zero(self, tiny_network):
        assert k_shortest_paths(tiny_network, 0, 3, 0) == []

    def test_k_larger_than_available(self, tiny_network):
        paths = k_shortest_paths(tiny_network, 0, 3, 50)
        assert 1 <= len(paths) <= 50


class TestAgainstBruteForce:
    pytestmark = [pytest.mark.property]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_dijkstra_optimal_on_small_grid(self, seed):
        network = generate_grid_city(
            GridCityConfig(rows=4, cols=4, seed=seed % 1000, drop_edge_probability=0.0, jitter_m=5.0)
        )
        origin, destination = 0, network.node_count - 1
        best = dijkstra_path(network, origin, destination)
        best_cost = path_cost(network, best)
        # Enumerate all simple paths up to length 8 nodes by DFS and check
        # none beats Dijkstra.
        stack = [(origin, [origin], 0.0)]
        while stack:
            node, path, cost = stack.pop()
            if cost > best_cost + 1e-6:
                continue
            if node == destination:
                assert cost >= best_cost - 1e-6
                continue
            if len(path) >= 8:
                continue
            for neighbor in network.neighbors(node):
                if neighbor in path:
                    continue
                edge = network.edge(node, neighbor)
                stack.append((neighbor, path + [neighbor], cost + edge.length_m))
