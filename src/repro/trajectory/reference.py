"""Reference trajectory generator (pre-compiled-cost era).

:class:`~repro.trajectory.generator.TrajectoryGenerator` searches preference
costs compiled into CSR-order vectors: the population's once per network
version, each driver's once per driver.  The generator here is the original
formulation, kept as a behavioural oracle the way
:mod:`repro.routing.reference` keeps the closure-cost route sources: every
search evaluates the ``preference_cost`` closure on every edge.  ``tests/trajectory/test_compiled_costs.py``
asserts the compiled generator returns identical routes and trajectories,
and the ``ground_truth_routing`` hot-path benchmark measures the speedup
against it.
"""

from __future__ import annotations

import random
from typing import List

from ..exceptions import NoPathError
from ..roadnet.graph import RoadEdge
from ..roadnet.shortest_path import dijkstra_path, k_shortest_paths
from .generator import DriverProfile, TrajectoryGenerator


class ClosureTrajectoryGenerator(TrajectoryGenerator):
    """Ground-truth and driver routes searched over the per-edge
    preference closure (the oracle).

    Nothing is cached: every ground-truth query and every trip re-evaluates
    the closure on every edge, so a network mutation can never leave it
    stale.
    """

    def population_preferred_route(self, origin: int, destination: int) -> List[int]:
        return dijkstra_path(self.network, origin, destination, cost=self.preference_cost)

    def driver_route(self, driver: DriverProfile, origin: int, destination: int, rng: random.Random) -> List[int]:
        def personal_cost(edge: RoadEdge) -> float:
            return self.preference_cost(edge, driver)

        alternatives = k_shortest_paths(
            self.network, origin, destination, self.config.route_alternatives, cost=personal_cost
        )
        if not alternatives:
            raise NoPathError(origin, destination)
        if len(alternatives) > 1 and rng.random() < driver.exploration:
            return list(rng.choice(alternatives[1:]))
        return list(alternatives[0])
