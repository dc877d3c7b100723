"""Reference MPR popularity routing (pre-compiled-cost era).

:class:`~repro.routing.mpr.MostPopularRouteMiner` routes over popularity
costs compiled into a cached cost vector on the road network's
:class:`~repro.roadnet.compiled.CompiledGraph`.  The miner here is the
original formulation, kept as the behavioural oracle the way
:mod:`repro.roadnet.reference` keeps the original searches: every edge
relaxation calls back into the transfer network through a Python closure.
``tests/routing/test_popularity_compiled.py`` asserts the compiled miner
returns identical routes, and the ``popularity_routing`` hot-path benchmark
measures the speedup against it.
"""

from __future__ import annotations

from ..roadnet.graph import RoadEdge
from .base import RouteSource
from .mpr import MostPopularRouteMiner


class ClosureMostPopularRouteMiner(MostPopularRouteMiner):
    """MPR routed through the per-edge popularity closure (the oracle)."""

    # Nothing is compiled, so there is nothing to warm before a batch.
    prepare_batch = RouteSource.prepare_batch

    def _popularity_cost_spec(self):
        def popularity_cost(edge: RoadEdge) -> float:
            return self.transfer.edge_popularity_cost(edge.source, edge.target, self.smoothing)

        return popularity_cost
