"""LDR — Local Driver Route mining (Ceikute & Jensen, MDM 2013 [3]).

Ceikute and Jensen compare routing-service output with *local driver
behaviour*: the route an experienced individual driver habitually takes.  The
LDR miner reproduces that: among drivers with historical trips between the
query's endpoints, it picks the most experienced driver (most trips on this
od-pair) and returns that driver's habitual (most frequent) route.  The
recommendation therefore "reflects certain people's preference" — it can be
excellent when a true local exists and idiosyncratic when it does not.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from ..exceptions import InsufficientSupportError, RoutingError
from ..roadnet.graph import RoadNetwork
from ..trajectory.storage import TrajectoryStore
from .base import CandidateRoute, OdMemo, RouteQuery, RouteSource


class LocalDriverRouteMiner(RouteSource):
    """Recommends the habitual route of the most experienced local driver.

    Habits ignore the departure time, so answers (and refusals) are
    memoised per od pair (:class:`~repro.routing.base.OdMemo`), stamped
    with the network version, the store's size and the miner's parameters.
    """

    name = "LDR"

    def __init__(
        self,
        network: RoadNetwork,
        store: TrajectoryStore,
        min_support: int = 2,
        support_radius_m: float = 300.0,
    ):
        if min_support < 0:
            raise RoutingError("min_support must be non-negative")
        self.network = network
        self.store = store
        self.min_support = min_support
        self.support_radius_m = support_radius_m
        self._memo = OdMemo()

    def recommend(self, query: RouteQuery) -> CandidateRoute:
        stamp = (self.network.version, len(self.store), self.min_support, self.support_radius_m)
        return self._memo.get(stamp, query, lambda: self._mine(query))

    def _mine(self, query: RouteQuery) -> CandidateRoute:
        origin_location = self.network.node_location(query.origin)
        destination_location = self.network.node_location(query.destination)
        trajectory_ids = self.store.find_by_od(
            origin_location, destination_location, self.support_radius_m
        )
        if len(trajectory_ids) < self.min_support:
            raise InsufficientSupportError(
                query.origin, query.destination, len(trajectory_ids), self.min_support
            )

        trips_by_driver: Dict[int, List[Tuple[int, ...]]] = defaultdict(list)
        for trajectory_id in trajectory_ids:
            trajectory = self.store.get(trajectory_id)
            trips_by_driver[trajectory.driver_id].append(
                tuple(self.store.matched_path(trajectory_id))
            )

        # The most experienced driver: most trips on this od-pair (ties broken
        # by driver id for determinism).
        best_driver, trips = max(
            trips_by_driver.items(), key=lambda item: (len(item[1]), -item[0])
        )
        habitual_path, frequency = max(
            Counter(trips).items(), key=lambda item: (item[1], -len(item[0]))
        )
        return CandidateRoute(
            path=list(habitual_path),
            source=self.name,
            support=len(trajectory_ids),
            metadata={
                "driver_id": float(best_driver),
                "driver_trips": float(len(trips)),
                "habit_frequency": float(frequency),
                "length_m": self.network.path_length(list(habitual_path)),
            },
        )
