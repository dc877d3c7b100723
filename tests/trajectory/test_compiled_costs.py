"""Ground-truth and driver routes from compiled preference cost vectors:
equivalence with the per-edge closure oracle, and rebuild of the cached
vectors when the road graph changes."""

import random

from hypothesis import given, settings, strategies as st

from repro.exceptions import NoPathError
from repro.roadnet.generators import GridCityConfig, generate_grid_city, random_od_pairs
from repro.roadnet.graph import RoadClass, RoadEdge
from repro.roadnet.travel_time import SpeedProfile, TravelTimeModel
from repro.spatial import Point
from repro.trajectory.generator import DriverProfile, TrajectoryGenerator, TrajectoryGeneratorConfig
from repro.trajectory.reference import ClosureTrajectoryGenerator

MODELS = {
    "default": TravelTimeModel(),
    "partial": TravelTimeModel(
        profiles={
            RoadClass.ARTERIAL: SpeedProfile(peak_multiplier=3.5, peak_width_hours=0.4),
            RoadClass.LOCAL: SpeedProfile(morning_peak_hour=9.25),
        }
    ),
}

weights = st.floats(min_value=0.5, max_value=1.5, allow_nan=False)


def _trajectory_key(trajectory):
    return (
        trajectory.trajectory_id,
        trajectory.driver_id,
        trajectory.source_path,
        trajectory.departure_time_s,
        [(point.location, point.timestamp) for point in trajectory.points],
    )


def _outcome(search, *args):
    """A search's path, or the type of error it raised (an unreachable
    pair must fail the same way on both sides)."""
    try:
        return search(*args)
    except NoPathError as error:
        return type(error)


def _generator_pair(network, config, model):
    return (
        TrajectoryGenerator(network, config, travel_time_model=model),
        ClosureTrajectoryGenerator(network, config, travel_time_model=model),
    )


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=5, max_value=8),
    cols=st.integers(min_value=5, max_value=8),
    city_seed=st.integers(min_value=0, max_value=10_000),
    drop_edge_probability=st.sampled_from([0.0, 0.15]),
    model_name=st.sampled_from(sorted(MODELS)),
    generator_seed=st.integers(min_value=0, max_value=10_000),
    route_alternatives=st.integers(min_value=1, max_value=4),
    extra_driver=st.tuples(weights, weights, weights, weights),
)
def test_matches_closure_oracle(
    rows,
    cols,
    city_seed,
    drop_edge_probability,
    model_name,
    generator_seed,
    route_alternatives,
    extra_driver,
):
    network = generate_grid_city(
        GridCityConfig(
            rows=rows,
            cols=cols,
            block_size_m=200.0,
            seed=city_seed,
            jitter_m=20.0,
            drop_edge_probability=drop_edge_probability,
        )
    )
    config = TrajectoryGeneratorConfig(
        num_drivers=3,
        num_hot_pairs=4,
        trips_per_driver=3,
        min_od_distance_m=400.0,
        route_alternatives=route_alternatives,
        seed=generator_seed,
    )
    model = MODELS[model_name]
    compiled_gen, oracle = _generator_pair(network, config, model)
    edges = network.compiled().edge_records

    w_length, w_time, w_lights, w_comfort = extra_driver
    drivers = compiled_gen.generate_drivers() + [
        DriverProfile(
            driver_id=99,
            home=Point(0.0, 0.0),
            workplace=Point(1.0, 1.0),
            weight_length=w_length,
            weight_time=w_time,
            weight_lights=w_lights,
            weight_comfort=w_comfort,
            exploration=0.5,
        )
    ]

    assert compiled_gen.population_cost_vector() == [oracle.preference_cost(e) for e in edges]
    for driver in drivers:
        assert compiled_gen.driver_cost_vector(driver) == [
            oracle.preference_cost(e, driver) for e in edges
        ]

    pairs = compiled_gen.generate_hot_od_pairs() + random_od_pairs(
        network, 4, min_distance_m=300.0, seed=generator_seed
    )
    for od in pairs:
        assert _outcome(compiled_gen.population_preferred_route, *od) == _outcome(
            oracle.population_preferred_route, *od
        )
        for driver in drivers:
            assert _outcome(
                compiled_gen.driver_route, driver, *od, random.Random(generator_seed)
            ) == _outcome(oracle.driver_route, driver, *od, random.Random(generator_seed))

    # Fresh generators, so both consume their workload RNG from the start.
    compiled_gen, oracle = _generator_pair(network, config, model)
    produced = [_trajectory_key(t) for t in compiled_gen.generate()]
    assert produced == [_trajectory_key(t) for t in oracle.generate()]


def test_network_mutation_rebuilds_the_cached_vectors():
    network = generate_grid_city(GridCityConfig(rows=7, cols=7, seed=2, highway_ring=False))
    config = TrajectoryGeneratorConfig(num_drivers=2, num_hot_pairs=2, seed=5)
    compiled_gen, oracle = _generator_pair(network, config, TravelTimeModel())
    driver = compiled_gen.generate_drivers()[0]
    origin, destination = random_od_pairs(network, 1, min_distance_m=900.0, seed=3)[0]

    before = compiled_gen.population_preferred_route(origin, destination)
    assert before == oracle.population_preferred_route(origin, destination)
    compiled_gen.driver_route(driver, origin, destination, random.Random(0))
    edge_count = network.compiled().edge_count

    # A highway shortcut straight from origin to destination: a stale vector
    # would be one entry short (and the search would reject it), and a stale
    # memo would keep answering the old route.
    start, end = network.node_location(origin), network.node_location(destination)
    network.add_edge(RoadEdge(origin, destination, start.distance_to(end), RoadClass.HIGHWAY))
    assert network.compiled().edge_count == edge_count + 1

    after = compiled_gen.population_preferred_route(origin, destination)
    assert after == oracle.population_preferred_route(origin, destination)
    assert after == [origin, destination] != before
    assert len(compiled_gen.population_cost_vector()) == edge_count + 1
    assert len(compiled_gen.driver_cost_vector(driver)) == edge_count + 1
    assert compiled_gen.driver_route(
        driver, origin, destination, random.Random(0)
    ) == oracle.driver_route(driver, origin, destination, random.Random(0))


def test_driver_vector_is_built_once_per_driver(monkeypatch):
    network = generate_grid_city(GridCityConfig(rows=6, cols=6, seed=9))
    config = TrajectoryGeneratorConfig(
        num_drivers=3, num_hot_pairs=3, trips_per_driver=4, min_od_distance_m=400.0, seed=1
    )
    generator = TrajectoryGenerator(network, config)
    built = []
    compiled = network.compiled()
    original = type(compiled).cost_vector

    def counting_cost_vector(self, cost):
        built.append(cost)
        return original(self, cost)

    monkeypatch.setattr(type(compiled), "cost_vector", counting_cost_vector)
    assert generator.generate()
    assert len(built) == config.num_drivers
