"""CrowdPlanner reproduction.

A full reimplementation of "CrowdPlanner: A Crowd-Based Route Recommendation
System" (ICDE 2014): road-network and trajectory substrates, landmark
significance inference, candidate-route sources (web-service routing and
popular-route mining), and the CrowdPlanner core — truth reuse, automatic
route evaluation, crowd task generation, worker selection, early stopping and
rewarding — together with a simulated crowd and the experiment harness that
regenerates the paper's evaluation.

Quickstart
----------
>>> from repro.datasets import SyntheticCityConfig, build_scenario
>>> scenario = build_scenario(SyntheticCityConfig(rows=12, cols=12))
>>> planner = scenario.build_planner()
>>> query = scenario.sample_queries(1)[0]
>>> result = planner.recommend(query)
>>> result.method in {"truth_reuse", "agreement", "confident", "crowd", "single_candidate"}
True

Batches of requests go through :meth:`CrowdPlanner.recommend_batch`, which
answers queries in order (truths recorded for earlier queries are reusable by
later ones) and warms the road network's compiled flat-array routing view up
front:

>>> results = planner.recommend_batch(scenario.sample_queries(3))
>>> len(results)
3

Serving
-------
Steady request streams scale across OS processes through the session-based
service (``repro.serving``): the planner's ``shard_plan`` splits each batch
into interaction-closed od-cell components (no recorded truth can cross a
shard boundary), a persistent forked worker pool keeps truth stores warm
between batches, and the merged results are bit-identical to the sequential
path — which stays in place as the oracle the serving benchmark suites and
property tests compare against.  ``pool_size=1`` (or platforms without
``fork``) serves in-process; ``pipeline_window > 1`` overlaps consecutive
batches whose closures are disjoint::

    from repro.config import ServiceConfig
    from repro.serving import RecommendationService

    config = ServiceConfig.from_planner_config(planner.config, pool_size=4)
    with RecommendationService(planner, config) as service:
        responses = service.recommend_batch(queries)
        results = [r.result for r in responses]   # == planner.recommend_batch(queries)

See ``examples/sharded_serving.py`` and ``examples/pipelined_stream.py`` for
end-to-end walkthroughs, experiment E8 (``repro.experiments.exp_throughput``)
for the backend sweep, and ``docs/serving-invariants.md`` for the contract.

Performance
-----------
The routing, spatial-index, PMF, familiarity and crowd hot paths run on
flat-array fast paths (see ``repro.roadnet.compiled``); the original
implementations are preserved as behavioural oracles in the ``reference``
modules — ``repro.roadnet.reference``, ``repro.routing.reference``,
``repro.core.reference`` and ``repro.crowd.reference`` — which tests and
benchmarks import and production code never does.  Benchmark them with::

    python scripts/bench_to_json.py       # writes BENCH_hot_paths.json
    scripts/ci.sh                         # tier-1 tests + un-timed benchmarks

``BENCH_hot_paths.json`` records the per-group timings and the
compiled-vs-reference speedups that future performance work is judged
against.
"""

from .config import DEFAULT_CONFIG, PlannerConfig
from .exceptions import CrowdPlannerError
from .core.planner import CrowdPlanner, RecommendationResult, ShardPlan
from .routing.base import CandidateRoute, RouteQuery

__version__ = "1.8.0"

__all__ = [
    "DEFAULT_CONFIG",
    "PlannerConfig",
    "CrowdPlannerError",
    "CrowdPlanner",
    "RecommendationResult",
    "ShardPlan",
    "CandidateRoute",
    "RouteQuery",
    "__version__",
]
