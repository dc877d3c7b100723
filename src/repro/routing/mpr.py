"""MPR — Most Popular Route mining (Chen, Shen & Zhou, ICDE 2011 [4]).

The original algorithm builds a transfer network from historical trajectories
and defines route popularity through transition probabilities towards the
destination; the most popular route is the one maximising the product of
transition probabilities, found by a shortest-path search over
``-log(probability)`` costs.  As the paper notes, MPR "tends to have fewer
vertices": probability products favour short sequences of well-supported
transitions.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import InsufficientSupportError, RoutingError
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import dijkstra_path
from ..trajectory.storage import TrajectoryStore
from .base import CandidateRoute, OdMemo, RouteQuery, RouteSource
from .popularity import TransferNetwork


class MostPopularRouteMiner(RouteSource):
    """Mines the most popular route between two nodes from historical data.

    Parameters
    ----------
    network, store:
        Road network and historical-trajectory store.
    min_support:
        Minimum number of historical trajectories between the query's origin
        and destination areas for the result to be considered reliable; below
        this an :class:`InsufficientSupportError` is raised (the failure mode
        that motivates crowdsourcing in sparse regions).
    smoothing:
        Additive smoothing of transition probabilities.
    support_radius_m:
        Radius used when counting supporting trajectories around endpoints.

    Popularity costs are compiled into a cached cost vector on the road
    network's :class:`~repro.roadnet.compiled.CompiledGraph` (keyed by the
    transfer network's version), so routing skips a per-relaxation Python
    closure.  The closure path survives as the oracle
    :class:`~repro.routing.reference.ClosureMostPopularRouteMiner`.

    Popularity ignores the departure time, so answers (and refusals) are
    memoised per od pair (:class:`~repro.routing.base.OdMemo`), stamped
    with the network version, the store's size, the transfer network's
    version and the miner's parameters.
    """

    name = "MPR"

    def __init__(
        self,
        network: RoadNetwork,
        store: TrajectoryStore,
        min_support: int = 3,
        smoothing: float = 0.1,
        support_radius_m: float = 300.0,
        transfer_network: Optional[TransferNetwork] = None,
    ):
        if min_support < 0:
            raise RoutingError("min_support must be non-negative")
        self.network = network
        self.store = store
        self.min_support = min_support
        self.smoothing = smoothing
        self.support_radius_m = support_radius_m
        self.transfer = transfer_network or TransferNetwork(network, store)
        self._memo = OdMemo()

    def _popularity_cost_spec(self):
        """The ``cost`` argument for the popularity search: a registered
        metric name (cost vector and relaxation lists cached on the compiled
        graph)."""
        return self.transfer.compiled_cost_metric(self.network, self.smoothing)

    def prepare_batch(self, queries) -> None:
        """Warm the compiled popularity metric before a query batch."""
        self._popularity_cost_spec()

    def recommend(self, query: RouteQuery) -> CandidateRoute:
        stamp = (
            self.network.version,
            len(self.store),
            self.transfer.version,
            self.min_support,
            self.smoothing,
            self.support_radius_m,
        )
        return self._memo.get(stamp, query, lambda: self._mine(query))

    def _mine(self, query: RouteQuery) -> CandidateRoute:
        origin_location = self.network.node_location(query.origin)
        destination_location = self.network.node_location(query.destination)
        support = self.store.support_between(
            origin_location, destination_location, self.support_radius_m
        )
        if support < self.min_support:
            raise InsufficientSupportError(
                query.origin, query.destination, support, self.min_support
            )

        path = dijkstra_path(
            self.network, query.origin, query.destination, cost=self._popularity_cost_spec()
        )
        return CandidateRoute(
            path=path,
            source=self.name,
            support=support,
            metadata={
                "length_m": self.network.path_length(path),
                "coverage": self.transfer.coverage(),
            },
        )
