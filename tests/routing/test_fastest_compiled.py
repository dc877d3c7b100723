"""Time-dependent fastest routing from a per-road-class cost vector:
equivalence with the per-edge closure oracle, and rebuild of the compiled
class index when the road graph changes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.roadnet import reference
from repro.roadnet.generators import (
    GridCityConfig,
    generate_grid_city,
    generate_radial_city,
    random_od_pairs,
)
from repro.roadnet.graph import RoadClass, RoadEdge
from repro.roadnet.travel_time import SECONDS_PER_DAY, SpeedProfile, TravelTimeModel
from repro.routing.base import RouteQuery
from repro.routing.reference import ClosureFastestRouteService
from repro.routing.web_service import FastestRouteService

HOUR = 3600.0

NETWORKS = {
    "grid": generate_grid_city(
        GridCityConfig(rows=9, cols=9, seed=17, jitter_m=25.0, drop_edge_probability=0.1)
    ),
    "grid_no_highway": generate_grid_city(
        GridCityConfig(rows=8, cols=8, seed=4, highway_ring=False, arterial_every=3)
    ),
    "radial": generate_radial_city(rings=4, spokes=9, seed=5),
}
PAIRS = {
    name: random_od_pairs(network, 10, min_distance_m=500.0, seed=8)
    for name, network in NETWORKS.items()
}
MODELS = {
    "default": TravelTimeModel(),
    # A partial override: arterials congest hard, locals peak just after
    # midnight (so the wrap matters); the other classes keep the defaults.
    "partial": TravelTimeModel(
        profiles={
            RoadClass.ARTERIAL: SpeedProfile(peak_multiplier=3.5, peak_width_hours=0.4),
            RoadClass.LOCAL: SpeedProfile(morning_peak_hour=0.25, evening_peak_hour=23.5),
        }
    ),
    "free_base": TravelTimeModel(
        profiles={RoadClass.COLLECTOR: SpeedProfile(base_multiplier=0.0, peak_multiplier=0.5)}
    ),
}

departure_times = st.one_of(
    # Peaks, the midnight wrap and the day boundary itself.
    st.sampled_from(
        [8 * HOUR, 17.5 * HOUR, 0.0, 0.25 * HOUR, 23.5 * HOUR, SECONDS_PER_DAY - 1e-6]
    ),
    st.floats(min_value=0.0, max_value=SECONDS_PER_DAY, allow_nan=False),
    # Past the end of the day and before its start.
    st.floats(min_value=SECONDS_PER_DAY, max_value=4 * SECONDS_PER_DAY, allow_nan=False),
    st.floats(min_value=-3 * SECONDS_PER_DAY, max_value=-1e-9, allow_nan=False),
)


def _assert_same_route(network, model, query):
    route = FastestRouteService(network, model).recommend(query)
    expected = ClosureFastestRouteService(network, model).recommend(query)
    assert route.path == expected.path
    assert route.metadata["length_m"] == expected.metadata["length_m"]
    assert route.metadata["travel_time_s"] == expected.metadata["travel_time_s"]
    return route


@settings(max_examples=80, deadline=None)
@given(
    network_name=st.sampled_from(sorted(NETWORKS)),
    model_name=st.sampled_from(sorted(MODELS)),
    departure_time_s=departure_times,
    data=st.data(),
)
def test_matches_closure_oracle(network_name, model_name, departure_time_s, data):
    network, model = NETWORKS[network_name], MODELS[model_name]
    compiled = network.compiled()
    vector = model.cost_vector_at(compiled, departure_time_s)
    assert vector == compiled.cost_vector(model.edge_cost_at(departure_time_s))
    origin, destination = data.draw(st.sampled_from(PAIRS[network_name]))
    _assert_same_route(network, model, RouteQuery(origin, destination, departure_time_s))


@pytest.mark.parametrize("network_name", sorted(NETWORKS))
def test_matches_dict_reference_search(network_name):
    """Beyond the closure service: the original dict-per-edge Dijkstra."""
    network, model = NETWORKS[network_name], MODELS["partial"]
    for i, (origin, destination) in enumerate(PAIRS[network_name]):
        departure_time_s = i * 2.5 * HOUR
        route = FastestRouteService(network, model).recommend(
            RouteQuery(origin, destination, departure_time_s)
        )
        expected = reference.dijkstra_path(
            network, origin, destination, cost=model.edge_cost_at(departure_time_s)
        )
        assert list(route.path) == expected


def test_class_index_follows_network_mutation():
    network = generate_grid_city(GridCityConfig(rows=7, cols=7, seed=2, highway_ring=False))
    model = MODELS["default"]
    origin, destination = random_od_pairs(network, 1, min_distance_m=900.0, seed=3)[0]
    query = RouteQuery(origin, destination, 8 * HOUR)
    before = _assert_same_route(network, model, query)
    assert RoadClass.HIGHWAY not in network.compiled().road_classes

    # A highway shortcut of a class the graph did not have: the compiled
    # view (and its class index) must be rebuilt for the answer to use it.
    start, end = network.node_location(origin), network.node_location(destination)
    network.add_edge(RoadEdge(origin, destination, start.distance_to(end), RoadClass.HIGHWAY))
    after = _assert_same_route(network, model, query)
    assert RoadClass.HIGHWAY in network.compiled().road_classes
    assert after.path == (origin, destination) != before.path
