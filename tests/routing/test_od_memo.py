"""The od-keyed route memo: a memoised source answers like a fresh one.

:class:`~repro.routing.base.OdMemo` lets the four sources whose answer
ignores the departure time (shortest, web alternatives, MPR, LDR) search
once per od pair.  The property draws one od pair at many departure
times, interleaved with the three mutations their answers read —
``TrajectoryStore.add``, ``TransferNetwork.ingest_path`` and a new road —
and holds every answer (route, metadata, refusal fields) of the
long-lived memoised sources to a freshly built instance of each, which
has searched nothing before.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InsufficientSupportError, RoutingError
from repro.roadnet.generators import GridCityConfig, generate_grid_city
from repro.roadnet.graph import RoadClass, RoadEdge
from repro.routing.base import OdMemo, RouteQuery
from repro.routing.ldr import LocalDriverRouteMiner
from repro.routing.mpr import MostPopularRouteMiner
from repro.routing.popularity import TransferNetwork
from repro.routing.web_service import AlternativeAwareService, ShortestRouteService
from repro.trajectory.generator import TrajectoryGenerator, TrajectoryGeneratorConfig
from repro.trajectory.model import GPSPoint, Trajectory
from repro.trajectory.storage import TrajectoryStore


def _fresh_sources(world):
    network, store, transfer = world["network"], world["store"], world["transfer"]
    return [
        ShortestRouteService(network),
        AlternativeAwareService(network),
        MostPopularRouteMiner(network, store, min_support=2, transfer_network=transfer),
        LocalDriverRouteMiner(network, store, min_support=2),
    ]


def _answer(source, query):
    """A source's answer as comparable data: the route, or the refusal."""
    try:
        route = source.recommend(query)
    except InsufficientSupportError as exc:
        return ("refused", exc.origin, exc.destination, exc.support, exc.required)
    except RoutingError as exc:
        return ("error", type(exc).__name__)
    return ("route", route.path, route.source, route.support, route.metadata)


@pytest.fixture(scope="module")
def world():
    """A mutable city of its own: a grid, a trajectory store concentrated on
    a few hot od pairs, its transfer network, and long-lived sources."""
    network = generate_grid_city(GridCityConfig(rows=8, cols=8, block_size_m=200.0, seed=5))
    generator = TrajectoryGenerator(
        network,
        TrajectoryGeneratorConfig(
            num_drivers=8, num_hot_pairs=4, trips_per_driver=6, min_od_distance_m=600.0, seed=9
        ),
    )
    hot_pairs = generator.generate_hot_od_pairs()
    store = TrajectoryStore(network)
    store.add_many(generator.generate(generator.generate_drivers(), hot_pairs))
    world = {
        "network": network,
        "store": store,
        "transfer": TransferNetwork(network, store),
        "pairs": hot_pairs + [(network.node_ids()[0], network.node_ids()[-1])],
        "ids": itertools.count(10**6),
    }
    world["memoised"] = _fresh_sources(world)
    return world


def _add_trip(world, origin, destination):
    """Store one more trip along the current shortest path."""
    network = world["network"]
    path = ShortestRouteService(network).recommend(RouteQuery(origin, destination)).path
    points = [GPSPoint(network.node_location(node), float(step)) for step, node in enumerate(path)]
    trip = Trajectory(next(world["ids"]), 1, points, source_path=path)
    world["store"].add(trip)
    return path


def _new_road(world, origin, destination):
    """A straight local road from ``origin`` to a node it is not linked to."""
    network = world["network"]
    for target in sorted(network.node_ids(), key=lambda node: abs(node - destination)):
        if target != origin and target not in network.neighbors(origin):
            length = network.node_location(origin).distance_to(network.node_location(target))
            network.add_edge(RoadEdge(origin, target, length, RoadClass.LOCAL))
            return


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.floats(min_value=0.0, max_value=86_399.0)),
        st.tuples(st.sampled_from(["add", "ingest", "road"]), st.none()),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.property
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.integers(min_value=0, max_value=4), steps=_steps)
def test_memoised_sources_answer_like_fresh_ones(world, pair, steps):
    origin, destination = world["pairs"][pair]
    for kind, departure in steps:
        if kind == "add":
            _add_trip(world, origin, destination)
        elif kind == "ingest":
            world["transfer"].ingest_path(_add_trip(world, destination, origin))
        elif kind == "road":
            _new_road(world, origin, destination)
        query = RouteQuery(origin, destination, departure_time_s=departure or 9 * 3600.0)
        fresh = _fresh_sources(world)
        for memoised, oracle in zip(world["memoised"], fresh):
            assert _answer(memoised, query) == _answer(oracle, query), memoised.name


class TestOdMemo:
    def test_a_new_stamp_clears_the_memo(self):
        memo, calls = OdMemo(), []
        query = RouteQuery(1, 2)
        assert memo.get("a", query, lambda: calls.append(1) or "route") == "route"
        assert memo.get("a", RouteQuery(1, 2, departure_time_s=0.0), lambda: "other") == "route"
        assert memo.get("b", query, lambda: "fresh") == "fresh"
        assert len(calls) == 1 and len(memo._entries) == 1

    def test_refusals_are_stored_as_fields_and_raised_afresh(self):
        memo = OdMemo()
        query = RouteQuery(1, 2)

        def refuse():
            raise InsufficientSupportError(1, 2, 0, 3)

        with pytest.raises(InsufficientSupportError) as first:
            memo.get(0, query, refuse)
        with pytest.raises(InsufficientSupportError) as second:
            memo.get(0, query, lambda: "never")
        assert first.value is not second.value
        assert (second.value.support, second.value.required) == (0, 3)
        assert not any(isinstance(entry, BaseException) for entry in memo._entries.values())

    def test_other_errors_are_not_memoised(self):
        memo = OdMemo()
        with pytest.raises(RoutingError):
            memo.get(0, RouteQuery(1, 2), lambda: (_ for _ in ()).throw(RoutingError("no path")))
        assert not memo._entries

    def test_the_oldest_entry_goes_past_the_limit(self):
        memo = OdMemo(limit=2)
        for destination in (2, 3, 4):
            memo.get(0, RouteQuery(1, destination), lambda: destination)
        assert list(memo._entries) == [(1, 3), (1, 4)]
