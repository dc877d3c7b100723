"""The one-slot relaxation-list cache for per-call cost vectors."""

import pytest

from repro.exceptions import RoadNetworkError
from repro.roadnet.generators import GridCityConfig, generate_grid_city
from repro.roadnet.shortest_path import k_shortest_paths
from repro.trajectory.generator import TrajectoryGenerator, TrajectoryGeneratorConfig


def test_same_vector_reuses_its_lists_and_a_new_one_rebuilds():
    network = generate_grid_city(GridCityConfig(rows=5, cols=5, seed=3))
    compiled = network.compiled()
    costs = [edge.length_m * 1.5 for edge in compiled.edge_records]
    lists = compiled.relaxation_lists(costs)
    assert compiled.relaxation_lists(costs) is lists
    equal = list(costs)
    rebuilt = compiled.relaxation_lists(equal)
    assert rebuilt is not lists and rebuilt == lists
    assert compiled.relaxation_lists(equal) is rebuilt


def test_a_bad_vector_is_rejected_after_a_cached_one():
    network = generate_grid_city(GridCityConfig(rows=5, cols=5, seed=3))
    compiled = network.compiled()
    origin, destination = network.node_ids()[0], network.node_ids()[-1]
    good = [edge.length_m for edge in compiled.edge_records]
    assert k_shortest_paths(network, origin, destination, 2, cost=good)
    bad = list(good)
    bad[3] = float("nan")
    with pytest.raises(RoadNetworkError, match="non-negative"):
        k_shortest_paths(network, origin, destination, 2, cost=bad)
    with pytest.raises(RoadNetworkError, match="non-negative"):
        k_shortest_paths(network, origin, destination, 2, cost=bad)


def test_generate_builds_one_set_of_lists_per_driver(monkeypatch):
    network = generate_grid_city(GridCityConfig(rows=6, cols=6, seed=9))
    config = TrajectoryGeneratorConfig(
        num_drivers=3, num_hot_pairs=3, trips_per_driver=4, min_od_distance_m=400.0, seed=1
    )
    generator = TrajectoryGenerator(network, config)
    compiled = network.compiled()
    cls = type(compiled)
    original = cls._build_relaxation_lists
    built = []

    def counting_build(self, costs):
        built.append(costs)
        return original(self, costs)

    monkeypatch.setattr(cls, "_build_relaxation_lists", counting_build)
    assert generator.generate()
    assert len(built) == config.num_drivers
