"""Reference route sources (pre-compiled-cost era).

:class:`~repro.routing.mpr.MostPopularRouteMiner` routes over popularity
costs compiled into a cached cost vector on the road network's
:class:`~repro.roadnet.compiled.CompiledGraph`, and
:class:`~repro.routing.web_service.FastestRouteService` builds its
time-dependent costs from one congestion multiplier per road class.  The
sources here are the original formulations, kept as behavioural oracles the
way :mod:`repro.roadnet.reference` keeps the original searches: every edge
cost comes from a Python closure.  ``tests/routing/test_popularity_compiled.py``
and ``tests/routing/test_fastest_compiled.py`` assert the compiled sources
return identical routes, and the ``popularity_routing`` and
``fastest_routing`` hot-path benchmarks measure the speedups against them.
"""

from __future__ import annotations

from ..roadnet.graph import RoadEdge
from .base import RouteSource
from .mpr import MostPopularRouteMiner
from .web_service import FastestRouteService


class ClosureMostPopularRouteMiner(MostPopularRouteMiner):
    """MPR routed through the per-edge popularity closure (the oracle)."""

    # Nothing is compiled, so there is nothing to warm before a batch.
    prepare_batch = RouteSource.prepare_batch

    def _popularity_cost_spec(self):
        def popularity_cost(edge: RoadEdge) -> float:
            return self.transfer.edge_popularity_cost(edge.source, edge.target, self.smoothing)

        return popularity_cost


class ClosureFastestRouteService(FastestRouteService):
    """Fastest routing through the per-edge travel-time closure (the oracle).

    Every query evaluates ``TravelTimeModel.edge_cost_at(t)`` on every edge,
    two ``math.exp`` calls per edge.
    """

    def _travel_time_cost_spec(self, departure_time_s: float):
        return self.travel_time_model.edge_cost_at(departure_time_s)
