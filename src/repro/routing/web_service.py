"""Simulated web map services.

The paper's candidate routes come partly from commercial services (Google
Maps, Bing Maps, TomTom).  Those services fundamentally optimise travelling
distance and/or time, which is exactly why their routes can deviate from what
experienced drivers prefer.  The simulated services below reproduce that
behaviour: a shortest-distance router, a time-dependent fastest router, and an
"alternative aware" service that offers its best few alternatives and picks
the one with the lowest blended cost.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import RoutingError
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import CostSpec, dijkstra_path, k_shortest_paths, length_cost
from ..roadnet.travel_time import TravelTimeModel
from .base import CandidateRoute, OdMemo, RouteQuery, RouteSource


class ShortestRouteService(RouteSource):
    """A map service returning the minimum-distance route.

    Distance ignores the departure time, so routes are memoised per od pair
    (:class:`~repro.routing.base.OdMemo`, stamped with the network version).
    """

    name = "shortest"

    def __init__(self, network: RoadNetwork):
        self.network = network
        self._memo = OdMemo()

    def recommend(self, query: RouteQuery) -> CandidateRoute:
        return self._memo.get(self.network.version, query, lambda: self._search(query))

    def _search(self, query: RouteQuery) -> CandidateRoute:
        path = dijkstra_path(self.network, query.origin, query.destination, cost=length_cost)
        return CandidateRoute(
            path=path,
            source=self.name,
            metadata={"length_m": self.network.path_length(path)},
        )


class FastestRouteService(RouteSource):
    """A map service returning the minimum expected travel-time route.

    Travel times are time-dependent (rush-hour congestion), evaluated at the
    query's departure time: one congestion multiplier per road class, applied
    to the compiled free-flow times
    (:meth:`~repro.roadnet.travel_time.TravelTimeModel.cost_vector_at`) and
    searched as a flat cost vector.
    """

    name = "fastest"

    def __init__(self, network: RoadNetwork, travel_time_model: Optional[TravelTimeModel] = None):
        self.network = network
        self.travel_time_model = travel_time_model or TravelTimeModel()

    def _travel_time_cost_spec(self, departure_time_s: float) -> CostSpec:
        return self.travel_time_model.cost_vector_at(self.network.compiled(), departure_time_s)

    def recommend(self, query: RouteQuery) -> CandidateRoute:
        cost = self._travel_time_cost_spec(query.departure_time_s)
        path = dijkstra_path(self.network, query.origin, query.destination, cost=cost)
        travel_time = self.travel_time_model.path_travel_time(
            self.network, path, query.departure_time_s
        )
        return CandidateRoute(
            path=path,
            source=self.name,
            metadata={
                "length_m": self.network.path_length(path),
                "travel_time_s": travel_time,
            },
        )


class AlternativeAwareService(RouteSource):
    """A map service that surveys a few alternatives and blends distance and time.

    This mimics providers that do not return the strict shortest or strict
    fastest route but a compromise; it gives the candidate-route set a third,
    distinct provider opinion.  The length alternatives and their lengths
    ignore the departure time and are memoised per od pair
    (:class:`~repro.routing.base.OdMemo`); the time-weighted score is
    computed per query.
    """

    name = "web_alternatives"

    def __init__(
        self,
        network: RoadNetwork,
        travel_time_model: Optional[TravelTimeModel] = None,
        alternatives: int = 3,
        time_weight: float = 0.5,
    ):
        if alternatives < 1:
            raise RoutingError("alternatives must be at least 1")
        if not 0.0 <= time_weight <= 1.0:
            raise RoutingError("time_weight must be in [0, 1]")
        self.network = network
        self.travel_time_model = travel_time_model or TravelTimeModel()
        self.alternatives = alternatives
        self.time_weight = time_weight
        self._memo = OdMemo()

    def _length_alternatives(self, query: RouteQuery):
        """The ``alternatives`` shortest paths by length, with their lengths."""
        paths = k_shortest_paths(
            self.network, query.origin, query.destination, self.alternatives, cost=length_cost
        )
        if not paths:
            raise RoutingError("no alternative paths found")
        return tuple((path, self.network.path_length(path)) for path in paths)

    def recommend(self, query: RouteQuery) -> CandidateRoute:
        stamp = (self.network.version, self.alternatives)
        alternatives = self._memo.get(stamp, query, lambda: self._length_alternatives(query))
        scored = []
        for path, length in alternatives:
            time = self.travel_time_model.path_travel_time(
                self.network, path, query.departure_time_s
            )
            # Blend normalised by typical urban speed so metres and seconds
            # are commensurable (36 km/h -> 10 m/s).
            score = (1 - self.time_weight) * length + self.time_weight * time * 10.0
            scored.append((score, length, time, path))
        scored.sort(key=lambda item: item[0])
        _, length, time, best = scored[0]
        return CandidateRoute(
            path=best,
            source=self.name,
            metadata={"length_m": length, "travel_time_s": time},
        )
