"""Hot-path microbenchmarks: compiled routing core vs. reference, spatial
index queries, sparse vs. dense PMF training, time-dependent fastest routing
and the simulated crowd's ground-truth routing vs. their per-edge closures,
the crowd-evaluation pipeline
(compiled popularity routing, vectorized familiarity kernels, batched crowd
simulation) vs. its preserved sequential oracles, sharded serving vs.
sequential ``recommend_batch``, the cross-batch pipelined
scheduler vs. the per-batch barrier, and the intra-component sub-shard
chain vs. the monolithic hotspot plan, hotspot sub-shard execution on
a copy-on-first-touch worker pool vs. a deep-copied one, hotspot shard
planning with closure-built cell sets vs. per-cell expansion, and the
memoised truth lookup vs. the unmemoised scan.

These benchmarks seed the repo's performance trajectory: run them through
``scripts/bench_to_json.py`` to (re)generate ``BENCH_hot_paths.json`` at the
repo root, which records per-benchmark timings and the compiled-vs-reference
speedups future perf PRs are judged against (``scripts/bench_check.py``
enforces them in CI).

Every paired benchmark first asserts the fast path returns results identical
to the reference implementation on the same seeded inputs, so a timing win
can never hide a behaviour change.  The scenario is the 10×10 seeded grid
city named in the acceptance criteria.
"""

from __future__ import annotations

import copy
import os
import pickle
import random
import shutil
import signal
import threading
import time
from collections import Counter
from functools import partial

import numpy as np
import pytest

from repro.config import ServiceConfig
from repro.core.familiarity import FamiliarityModel
from repro.core.planner import CrowdPlanner, PlannerStatistics
from repro.core.pmf import ProbabilisticMatrixFactorization
from repro.core.reference import (
    DenseProbabilisticMatrixFactorization,
    accumulate_reference,
    build_raw_matrix_reference,
    lookup_reference,
    set_shard_plan,
)
from repro.core.task_generation import TaskGenerator
from repro.crowd.reference import EagerObjectCrowd, SequentialCrowd
from repro.datasets.synthetic_city import SyntheticCityConfig, build_scenario
from repro.datasets.workloads import (
    LargeBatchWorkloadConfig,
    StreamWorkloadConfig,
    generate_large_batch_workload,
    generate_stream_workload,
)
from repro.exceptions import TaskGenerationError
from repro.roadnet import reference
from repro.roadnet import shortest_path as fast
from repro.roadnet.generators import GridCityConfig, generate_grid_city, random_od_pairs
from repro.routing.base import RouteQuery
from repro.routing.mpr import MostPopularRouteMiner
from repro.routing.reference import ClosureFastestRouteService, ClosureMostPopularRouteMiner
from repro.routing.web_service import FastestRouteService
from repro.core.truth import TruthDatabase
from repro.core.worker import WorkerPool
from repro.serving.service import PooledBackend
from repro.serving.shards import ShardJob, execute_shard, split_oversized
from repro.serving import (
    RecommendationService,
    TruthJournal,
    WorkspaceService,
    encode_truth_delta,
    recommendation_fingerprint,
)
from repro.spatial import GridIndex, Point
from repro.trajectory.generator import TrajectoryGenerator
from repro.trajectory.reference import ClosureTrajectoryGenerator

CITY = GridCityConfig(rows=10, cols=10, block_size_m=220.0, seed=23)
K_ALTERNATIVES = 5


@pytest.fixture(scope="module")
def city():
    return generate_grid_city(CITY)


@pytest.fixture(scope="module")
def od_pairs(city):
    return random_od_pairs(city, 30, min_distance_m=800.0, seed=5)


# ------------------------------------------------------------------ dijkstra
def _run_dijkstra(module, network, pairs):
    return [module.dijkstra_path(network, o, d) for o, d in pairs]


@pytest.mark.benchmark(group="dijkstra")
def test_dijkstra_compiled(benchmark, city, od_pairs):
    paths = benchmark(_run_dijkstra, fast, city, od_pairs)
    assert paths == _run_dijkstra(reference, city, od_pairs)


@pytest.mark.benchmark(group="dijkstra")
def test_dijkstra_reference(benchmark, city, od_pairs):
    benchmark(_run_dijkstra, reference, city, od_pairs)


# --------------------------------------------------------------------- astar
@pytest.fixture(scope="module")
def astar_pairs(city, od_pairs):
    """Repeated-goal od pairs: several far-apart origins per destination.

    Production traffic concentrates on hot destinations, which is exactly
    what the per-destination heuristic column amortises — the compiled A*
    pays the column build once per goal and indexes it thereafter.  The
    same minimum od distance as ``od_pairs`` keeps searches non-trivial.
    """
    goals = sorted({destination for _, destination in od_pairs})[:6]
    origins = sorted({origin for origin, _ in od_pairs})
    pairs = []
    for goal in goals:
        goal_location = city.node_location(goal)
        far = [
            origin
            for origin in origins
            if origin != goal
            and city.node_location(origin).distance_to(goal_location) >= 800.0
        ]
        pairs.extend((origin, goal) for origin in far[:5])
    return pairs


def _run_astar(module, network, pairs):
    return [module.astar_path(network, o, d) for o, d in pairs]


@pytest.mark.benchmark(group="astar")
def test_astar_compiled(benchmark, city, astar_pairs):
    paths = benchmark(_run_astar, fast, city, astar_pairs)
    assert paths == _run_astar(reference, city, astar_pairs)


@pytest.mark.benchmark(group="astar")
def test_astar_reference(benchmark, city, astar_pairs):
    benchmark(_run_astar, reference, city, astar_pairs)


# ----------------------------------------------------------------- k-shortest
def _run_yen(module, network, pairs):
    return [
        module.k_shortest_paths(network, o, d, K_ALTERNATIVES) for o, d in pairs[:10]
    ]


@pytest.mark.benchmark(group="k_shortest")
def test_k_shortest_compiled(benchmark, city, od_pairs):
    paths = benchmark(_run_yen, fast, city, od_pairs)
    assert paths == _run_yen(reference, city, od_pairs)


@pytest.mark.benchmark(group="k_shortest")
def test_k_shortest_reference(benchmark, city, od_pairs):
    benchmark(_run_yen, reference, city, od_pairs)


# ---------------------------------------------------------------- grid index
@pytest.fixture(scope="module")
def spatial_setup():
    rng = random.Random(23)
    index = GridIndex(cell_size=500.0)
    points = [
        (i, Point(rng.uniform(0.0, 20_000.0), rng.uniform(0.0, 20_000.0)))
        for i in range(4_000)
    ]
    index.insert_many(points)
    queries = [
        Point(rng.uniform(0.0, 20_000.0), rng.uniform(0.0, 20_000.0))
        for _ in range(200)
    ]
    return index, queries


@pytest.mark.benchmark(group="grid_index")
def test_grid_within_radius(benchmark, spatial_setup):
    index, queries = spatial_setup
    result = benchmark(lambda: [index.within_radius(q, 1_500.0) for q in queries])
    assert any(result)


@pytest.mark.benchmark(group="grid_index")
def test_grid_nearest(benchmark, spatial_setup):
    index, queries = spatial_setup
    result = benchmark(lambda: [index.nearest(q) for q in queries])
    assert all(r is not None for r in result)


# ----------------------------------------------------------------------- pmf
@pytest.fixture(scope="module")
def pmf_problem():
    rng = np.random.default_rng(23)
    latent = 8
    # Sized like a mid-size deployment (workers × landmarks); at the ~95%
    # sparsity of the familiarity matrix the dense path pays for the whole
    # n×m grid per iteration while the sparse path only touches the nnz.
    true_workers = rng.normal(0.0, 0.5, (latent, 400))
    true_landmarks = rng.normal(0.0, 0.5, (latent, 600))
    full = np.clip(true_workers.T @ true_landmarks, 0.0, None)
    mask = rng.random(full.shape) < 0.05  # ~95% unobserved, like familiarity
    return np.where(mask, full, 0.0)


def _fit_pmf(matrix, pmf_class):
    pmf = pmf_class(latent_dim=8, max_iterations=120)
    pmf.fit(matrix)
    return pmf.report.final_objective


@pytest.mark.benchmark(group="pmf_fit")
def test_pmf_fit_sparse(benchmark, pmf_problem):
    objective = benchmark(_fit_pmf, pmf_problem, ProbabilisticMatrixFactorization)
    dense_objective = _fit_pmf(pmf_problem, DenseProbabilisticMatrixFactorization)
    assert objective == pytest.approx(dense_objective, rel=1e-6)


@pytest.mark.benchmark(group="pmf_fit")
def test_pmf_fit_dense(benchmark, pmf_problem):
    benchmark(_fit_pmf, pmf_problem, DenseProbabilisticMatrixFactorization)


# ---------------------------------------------------------------- popularity
@pytest.fixture(scope="module")
def popularity_setup(bench_scenario):
    """Paired MPR miners (compiled cost vector vs. the per-edge closure of
    ``repro.routing.reference``) over one transfer network, plus the
    scenario's hot od-pairs as queries."""
    compiled_miner = MostPopularRouteMiner(bench_scenario.network, bench_scenario.store, min_support=2)
    reference_miner = ClosureMostPopularRouteMiner(
        bench_scenario.network,
        bench_scenario.store,
        min_support=2,
        transfer_network=compiled_miner.transfer,
    )
    queries = [RouteQuery(origin, destination) for origin, destination in bench_scenario.hot_pairs]
    return compiled_miner, reference_miner, queries


def _run_popularity(miner, queries):
    # Every round starts from a cold od memo, so each pair is searched.
    miner._memo.clear()
    return [miner.recommend_or_none(query) for query in queries]


@pytest.mark.benchmark(group="popularity_routing")
def test_popularity_compiled(benchmark, popularity_setup):
    compiled_miner, reference_miner, queries = popularity_setup
    routes = benchmark(_run_popularity, compiled_miner, queries)
    expected = _run_popularity(reference_miner, queries)
    assert [r.path if r else None for r in routes] == [r.path if r else None for r in expected]


@pytest.mark.benchmark(group="popularity_routing")
def test_popularity_reference(benchmark, popularity_setup):
    _, reference_miner, queries = popularity_setup
    benchmark(_run_popularity, reference_miner, queries)


# ----------------------------------------------------------- fastest routing
@pytest.fixture(scope="module")
def fastest_setup(serving_city):
    """Paired fastest-route services (per-road-class cost vector vs. the
    per-edge travel-time closure of ``repro.routing.reference``) over the
    serving city, with od pairs departing at both rush-hour peaks and off
    peak."""
    scenario, _ = serving_city
    network = scenario.network
    compiled_service = FastestRouteService(network)
    reference_service = ClosureFastestRouteService(network, compiled_service.travel_time_model)
    pairs = random_od_pairs(network, 20, min_distance_m=1500.0, seed=13)
    departures = (8.0 * 3600, 17.5 * 3600, 3.0 * 3600, 12.25 * 3600)
    queries = [
        RouteQuery(origin, destination, departure_time_s=departure)
        for departure in departures
        for origin, destination in pairs
    ]
    return compiled_service, reference_service, queries


def _run_fastest(service, queries):
    return [service.recommend(query) for query in queries]


@pytest.mark.benchmark(group="fastest_routing")
def test_fastest_routing_compiled(benchmark, fastest_setup):
    compiled_service, reference_service, queries = fastest_setup
    expected = _run_fastest(reference_service, queries)
    routes = _run_fastest(compiled_service, queries)
    assert [(r.path, r.metadata) for r in routes] == [(r.path, r.metadata) for r in expected]
    benchmark(_run_fastest, compiled_service, queries)


@pytest.mark.benchmark(group="fastest_routing")
def test_fastest_routing_reference(benchmark, fastest_setup):
    _, reference_service, queries = fastest_setup
    benchmark(_run_fastest, reference_service, queries)


# ------------------------------------------------------ ground-truth routing
@pytest.fixture(scope="module")
def ground_truth_setup(serving_city):
    """Paired ground-truth route searches over the serving city: a
    ``TrajectoryGenerator`` (one compiled population preference vector per
    network version) vs. ``ClosureTrajectoryGenerator`` (the per-edge
    preference closure on every search), both configured like the
    scenario's own generator, over 20 distinct od pairs."""
    scenario, _ = serving_city
    generator = scenario.trajectory_generator
    compiled_generator = TrajectoryGenerator(
        scenario.network, generator.config, travel_time_model=generator.travel_time_model
    )
    reference_generator = ClosureTrajectoryGenerator(
        scenario.network, generator.config, travel_time_model=generator.travel_time_model
    )
    pairs = random_od_pairs(scenario.network, 20, min_distance_m=1500.0, seed=17)
    return compiled_generator, reference_generator, pairs


def _run_ground_truth(generator, pairs):
    # Every round starts from a cold route memo, so each pair is searched.
    generator._preferred_routes.clear()
    return [generator.population_preferred_route(origin, destination) for origin, destination in pairs]


@pytest.mark.benchmark(group="ground_truth_routing")
def test_ground_truth_routing_compiled(benchmark, ground_truth_setup):
    compiled_generator, reference_generator, pairs = ground_truth_setup
    expected = _run_ground_truth(reference_generator, pairs)
    assert _run_ground_truth(compiled_generator, pairs) == expected
    benchmark(_run_ground_truth, compiled_generator, pairs)


@pytest.mark.benchmark(group="ground_truth_routing")
def test_ground_truth_routing_reference(benchmark, ground_truth_setup):
    _, reference_generator, pairs = ground_truth_setup
    benchmark(_run_ground_truth, reference_generator, pairs)


# --------------------------------------------------------------- familiarity
@pytest.fixture(scope="module")
def familiarity_setup(bench_scenario):
    """A familiarity model plus a PMF-completed matrix ready to accumulate."""
    model = FamiliarityModel(bench_scenario.worker_pool, bench_scenario.catalog)
    raw = model.build_raw_matrix()
    completed = model.pmf.complete(raw) if raw.any() else raw
    return model, completed


@pytest.mark.benchmark(group="familiarity")
def test_familiarity_compiled(benchmark, familiarity_setup):
    model, completed = familiarity_setup
    accumulated = benchmark(model._accumulate, completed)
    assert np.array_equal(accumulated, accumulate_reference(model, completed))


@pytest.mark.benchmark(group="familiarity")
def test_familiarity_reference(benchmark, familiarity_setup):
    model, completed = familiarity_setup
    benchmark(accumulate_reference, model, completed)


# ----------------------------------------------------------- familiarity raw
@pytest.mark.benchmark(group="familiarity_raw")
def test_familiarity_raw_compiled(benchmark, familiarity_setup):
    model, _ = familiarity_setup
    matrix = benchmark(model.build_raw_matrix)
    oracle = build_raw_matrix_reference(model)
    # The numpy kernel may differ from the scalar loop by an ulp (np.hypot /
    # np.exp); the "no information" zero pattern must agree exactly.
    np.testing.assert_allclose(matrix, oracle, rtol=1e-12, atol=1e-15)
    assert np.array_equal(matrix == 0.0, oracle == 0.0)


@pytest.mark.benchmark(group="familiarity_raw")
def test_familiarity_raw_reference(benchmark, familiarity_setup):
    model, _ = familiarity_setup
    benchmark(build_raw_matrix_reference, model)


# --------------------------------------------------------------- crowd batch
@pytest.fixture(scope="module")
def crowd_setup(bench_scenario):
    """Crowd tasks generated from the scenario plus the full worker crew."""
    generator = TaskGenerator(bench_scenario.calibrator, bench_scenario.catalog)
    tasks = []
    for query in bench_scenario.sample_queries(40, seed=501):
        candidates = []
        seen = set()
        for source in bench_scenario.sources:
            candidate = source.recommend_or_none(query)
            if candidate is None or candidate.path in seen:
                continue
            seen.add(candidate.path)
            candidates.append(candidate)
        if len(candidates) < 2:
            continue
        try:
            tasks.append(generator.generate(query, candidates))
        except TaskGenerationError:
            continue
        if len(tasks) >= 8:
            break
    if not tasks:
        pytest.skip("no crowd task could be generated")
    return bench_scenario.crowd, tasks, bench_scenario.worker_pool.ids()


@pytest.fixture(scope="module")
def reference_crowds(crowd_setup):
    """The ``repro.crowd.reference`` oracles over the scenario crowd's pool,
    catalogue, ground truth, behaviour model and seed: ``(sequential, eager
    object)``.  Module-scoped, so each keeps its caches across the paired
    tests the way the scenario crowd does."""
    crowd = crowd_setup[0]
    return tuple(
        crowd_class(
            pool=crowd.pool,
            catalog=crowd.catalog,
            calibrator=crowd.calibrator,
            ground_truth=crowd.ground_truth,
            behavior=crowd.behavior,
            seed=crowd.seed,
        )
        for crowd_class in (SequentialCrowd, EagerObjectCrowd)
    )


def _run_crowd(collect, crowd, tasks, worker_ids):
    # Task RNG derivation is content-keyed, so every timing round (and the
    # batched/sequential pair) samples identical randomness by construction.
    return [collect(task, worker_ids) for task in tasks]


@pytest.mark.benchmark(group="crowd_batch")
def test_crowd_batch_compiled(benchmark, crowd_setup, reference_crowds):
    crowd, tasks, worker_ids = crowd_setup
    sequential = reference_crowds[0]
    responses = benchmark(_run_crowd, crowd.collect_responses, crowd, tasks, worker_ids)
    assert responses == _run_crowd(sequential.collect_responses, sequential, tasks, worker_ids)


@pytest.mark.benchmark(group="crowd_batch")
def test_crowd_batch_reference(benchmark, crowd_setup, reference_crowds):
    _, tasks, worker_ids = crowd_setup
    sequential = reference_crowds[0]
    benchmark(_run_crowd, sequential.collect_responses, sequential, tasks, worker_ids)


# ------------------------------------------------------------ crowd columnar
@pytest.mark.benchmark(group="crowd_columnar")
def test_crowd_columnar_compiled(benchmark, crowd_setup, reference_crowds):
    """Columnar crowd responses (``ResponseBlock``) vs the object path.

    The columnar path walks a compiled question tree appending scalars to
    flat columns; the object-path oracle builds ``Answer``/``WorkerResponse``
    trees eagerly.  Like the astar/popularity suites, the fast path's
    steady state includes its per-task amortization (compiled tree, RNG
    seed, crew accuracy rows — pure functions of task content) while the
    preserved oracle recomputes everything per call: the timed shape is the
    experiment harness's, which re-collects identical tasks across sweep
    points.  Materializing every timed block must reproduce the oracle's
    objects exactly."""
    crowd, tasks, worker_ids = crowd_setup
    eager = reference_crowds[1]
    blocks = benchmark(_run_crowd, crowd.collect_responses_block, crowd, tasks, worker_ids)
    expected = _run_crowd(eager.collect_responses, eager, tasks, worker_ids)
    assert [block.materialize() for block in blocks] == expected


@pytest.mark.benchmark(group="crowd_columnar")
def test_crowd_columnar_reference(benchmark, crowd_setup, reference_crowds):
    """The preserved object path (eager answer-object construction)."""
    _, tasks, worker_ids = crowd_setup
    eager = reference_crowds[1]
    benchmark(_run_crowd, eager.collect_responses, eager, tasks, worker_ids)


# --------------------------------------------------------------- crowd shard
@pytest.fixture(scope="module")
def serving_city():
    """An 18x18 city with independent od neighbourhoods, one pre-fitted
    familiarity model, and a planner factory — shared by every serving
    benchmark (``crowd_shard``, ``crowd_stream``, ...) and by
    ``fastest_routing`` and ``ground_truth_routing``.

    Answers do not depend on worker answer histories or reward balances
    while the familiarity model is frozen, so planners built by the factory
    start from identical serving behaviour and one sequential oracle per
    workload is valid for every subsequent run.
    """
    scenario = build_scenario(
        SyntheticCityConfig(
            rows=18,
            cols=18,
            block_size_m=320.0,
            num_landmarks=110,
            num_drivers=18,
            trips_per_driver=10,
            num_hot_pairs=14,
            num_workers=28,
            seed=31,
        )
    )
    familiarity = scenario.build_planner().familiarity

    def build_planner():
        return CrowdPlanner(
            network=scenario.network,
            catalog=scenario.catalog,
            calibrator=scenario.calibrator,
            sources=scenario.sources,
            worker_pool=scenario.worker_pool,
            crowd_backend=scenario.crowd,
            config=scenario.config.planner_config,
            familiarity=familiarity,
        )

    return scenario, build_planner


@pytest.fixture(scope="module")
def shard_setup(serving_city):
    """A clustered large-batch workload plus the sequential oracle.

    The sequential oracle runs once here; before any timing, a one-batch
    pooled service is asserted bit-identical to it for pool sizes {1, 2, 4}
    — the acceptance gate of the serving subsystem.
    """
    scenario, build_planner = serving_city
    workload = generate_large_batch_workload(
        scenario.network,
        LargeBatchWorkloadConfig(
            num_queries=240, num_clusters=6, dominant_destination_fraction=0.15, seed=97
        ),
    )
    oracle = [
        recommendation_fingerprint(result)
        for result in build_planner().recommend_batch(workload)
    ]
    # Equivalence before timing: pool sizes {1, 2, 4} must match the oracle.
    for workers in (1, 2, 4):
        sharded = [recommendation_fingerprint(r) for r in _run_sharded(build_planner, workload, workers)]
        assert sharded == oracle, f"sharded serving diverged from sequential at workers={workers}"
    return build_planner, workload, oracle


def _serve_once(planner, batch, pool_size):
    """Serve one batch on a freshly forked pool, then stop the pool."""
    config = ServiceConfig.from_planner_config(planner.config, pool_size=pool_size)
    with RecommendationService(planner, config) as service:
        return [response.result for response in service.recommend_batch(batch)]


def _run_sharded(build_planner, workload, workers):
    return _serve_once(build_planner(), workload, workers)


@pytest.mark.benchmark(group="crowd_shard")
def test_crowd_shard_compiled(benchmark, shard_setup):
    """Sharded serving (2 forked workers; ratios are core-count dependent —
    a single-core container records the sharding overhead, multi-core CI the
    speedup — so the trajectory gate is calibrated by the committed run)."""
    build_planner, workload, oracle = shard_setup
    results = benchmark.pedantic(
        _run_sharded, args=(build_planner, workload, 2), rounds=3, iterations=1, warmup_rounds=0
    )
    assert [recommendation_fingerprint(r) for r in results] == oracle


@pytest.mark.benchmark(group="crowd_shard")
def test_crowd_shard_reference(benchmark, shard_setup):
    """The sequential oracle path on an identically constructed planner."""
    build_planner, workload, oracle = shard_setup
    results = benchmark.pedantic(
        lambda: build_planner().recommend_batch(workload),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert [recommendation_fingerprint(r) for r in results] == oracle


# -------------------------------------------------------------- crowd stream
@pytest.fixture(scope="module")
def stream_setup(serving_city):
    """A steady batch stream plus the sequential oracle's fingerprints.

    Before any timing, both contenders are asserted bit-identical to the
    sequential oracle over the whole stream: the persistent-pool service
    (fork once, stream truth deltas) and a service opened and closed per
    batch (fork every batch) — the amortisation this suite exists to
    measure.
    """
    scenario, build_planner = serving_city
    batches = generate_stream_workload(
        scenario.network,
        StreamWorkloadConfig(
            num_batches=6, batch_size=40, num_clusters=6,
            dominant_destination_fraction=0.15, seed=97,
        ),
    )
    oracle_planner = build_planner()
    oracle = []
    for batch in batches:
        oracle.extend(
            recommendation_fingerprint(result)
            for result in oracle_planner.recommend_batch(batch)
        )
    for runner in (_run_stream_persistent, _run_stream_per_batch):
        fingerprints = [recommendation_fingerprint(r) for r in runner(build_planner, batches)]
        assert fingerprints == oracle, f"{runner.__name__} diverged from the sequential oracle"
    return build_planner, batches, oracle


def _run_stream_persistent(build_planner, batches):
    """One service session: fork the pool once, then stream every batch."""
    planner = build_planner()
    config = ServiceConfig.from_planner_config(planner.config, backend="pooled", pool_size=2)
    results = []
    with RecommendationService(planner, config) as service:
        for batch in batches:
            results.extend(
                response.result for response in service.results(service.submit(batch))
            )
    return results


def _run_stream_per_batch(build_planner, batches):
    """A fresh pool fork + truth clone for every batch."""
    planner = build_planner()
    results = []
    for batch in batches:
        results.extend(_serve_once(planner, batch, 2))
    return results


@pytest.mark.benchmark(group="crowd_stream")
def test_crowd_stream_compiled(benchmark, stream_setup):
    """Persistent pool serving a steady stream (ratios are core-count
    dependent, like ``crowd_shard`` — but the fork-per-batch overhead the
    persistent pool amortises is paid even on a single core, so the ratio
    stays above 1 everywhere)."""
    build_planner, batches, oracle = stream_setup
    results = benchmark.pedantic(
        _run_stream_persistent, args=(build_planner, batches), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    assert [recommendation_fingerprint(r) for r in results] == oracle


@pytest.mark.benchmark(group="crowd_stream")
def test_crowd_stream_reference(benchmark, stream_setup):
    """The per-batch-fork baseline on an identically constructed planner."""
    build_planner, batches, oracle = stream_setup
    results = benchmark.pedantic(
        _run_stream_per_batch, args=(build_planner, batches), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    assert [recommendation_fingerprint(r) for r in results] == oracle


# ------------------------------------------------------------ crowd pipeline
def _run_stream_windowed(build_planner, batches, pipeline_window):
    """One service session, whole stream submitted before collecting, so
    consecutive batches are pending together and the configured window can
    engage (window 1 is the per-batch barrier on the same client shape)."""
    planner = build_planner()
    config = ServiceConfig.from_planner_config(
        planner.config,
        backend="pooled",
        pool_size=2,
        pipeline_window=pipeline_window,
        max_pending_batches=max(16, len(batches)),
    )
    results = []
    with RecommendationService(planner, config) as service:
        tickets = [service.submit(batch) for batch in batches]
        for ticket in tickets:
            results.extend(response.result for response in service.results(ticket))
    return results


@pytest.fixture(scope="module")
def pipeline_setup(serving_city):
    """A steady stream plus the sequential oracle, gated before timing.

    The pipelined scheduler must be fingerprint-identical to the sequential
    oracle for every window size it will be timed at (and one more for
    luck): windows {1, 2, 4} all run the full stream and compare before a
    single round is measured, so a timing win can never hide a scheduling
    divergence.
    """
    scenario, build_planner = serving_city
    batches = generate_stream_workload(
        scenario.network,
        StreamWorkloadConfig(
            num_batches=8, batch_size=30, num_clusters=6,
            dominant_destination_fraction=0.15, seed=101,
        ),
    )
    oracle_planner = build_planner()
    oracle = []
    for batch in batches:
        oracle.extend(
            recommendation_fingerprint(result)
            for result in oracle_planner.recommend_batch(batch)
        )
    for window in (1, 2, 4):
        fingerprints = [
            recommendation_fingerprint(r)
            for r in _run_stream_windowed(build_planner, batches, window)
        ]
        assert fingerprints == oracle, (
            f"pipelined serving diverged from the sequential oracle at window={window}"
        )
    return build_planner, batches, oracle


@pytest.mark.benchmark(group="crowd_pipeline")
def test_crowd_pipeline_compiled(benchmark, pipeline_setup):
    """One plan per window at window 4 over the steady stream.

    Ratios are core-count dependent like the other serving suites: on a
    single core shards of several batches have no idle core to run on, so
    the committed ratio — not 1.0 — is the trajectory gate; on multi-core
    hardware running a window's shards side by side, with fewer messages
    than batch-by-batch plans, is the win this suite exists to measure."""
    build_planner, batches, oracle = pipeline_setup
    results = benchmark.pedantic(
        _run_stream_windowed, args=(build_planner, batches, 4), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    assert [recommendation_fingerprint(r) for r in results] == oracle


@pytest.mark.benchmark(group="crowd_pipeline")
def test_crowd_pipeline_reference(benchmark, pipeline_setup):
    """The per-batch barrier (window 1) on the identical client shape."""
    build_planner, batches, oracle = pipeline_setup
    results = benchmark.pedantic(
        _run_stream_windowed, args=(build_planner, batches, 1), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    assert [recommendation_fingerprint(r) for r in results] == oracle


# -------------------------------------------------------------- crowd tenant
TENANT_NAMES = ("alpha", "beta", "gamma")


def _run_tenants_shared_pool(build_planner, tenant_batches):
    """One shared pool for every tenant: a single ``WorkspaceService`` forks
    its workers once, then the tenants' batches interleave round-robin over
    the warm pool (workers keep per-tenant truth bases between turns)."""
    template = build_planner()
    config = ServiceConfig.from_planner_config(
        template.config, backend="pooled", pool_size=2
    )
    results = {name: [] for name in tenant_batches}
    with WorkspaceService(template, config=config) as service:
        for name in tenant_batches:
            service.create_workspace(name)
        rounds = max(len(batches) for batches in tenant_batches.values())
        for index in range(rounds):
            for name, batches in tenant_batches.items():
                if index >= len(batches):
                    continue
                workspace = service.workspace(name)
                results[name].extend(
                    response.result
                    for response in workspace.results(workspace.submit(batches[index]))
                )
    return results


def _run_tenants_dedicated(build_planner, tenant_batches):
    """The isolation baseline: one dedicated ``RecommendationService`` per
    tenant, each forking (and tearing down) its own two-worker pool."""
    results = {}
    for name, batches in tenant_batches.items():
        planner = build_planner()
        config = ServiceConfig.from_planner_config(
            planner.config, backend="pooled", pool_size=2
        )
        with RecommendationService(planner, config) as service:
            collected = []
            for batch in batches:
                collected.extend(
                    response.result for response in service.results(service.submit(batch))
                )
        results[name] = collected
    return results


@pytest.fixture(scope="module")
def tenant_setup(serving_city):
    """Three tenants' batch streams plus per-tenant sequential oracles.

    Before any timing, both contenders — the interleaved shared-pool
    workspaces and the sequential dedicated services — are asserted
    fingerprint-identical, tenant by tenant, to a sequential oracle run on a
    dedicated planner.  A timing result can therefore never hide a
    cross-tenant truth leak or ordering divergence.
    """
    scenario, build_planner = serving_city
    tenant_batches = {}
    for offset, name in enumerate(TENANT_NAMES):
        tenant_batches[name] = generate_stream_workload(
            scenario.network,
            StreamWorkloadConfig(
                num_batches=2, batch_size=25, num_clusters=5,
                dominant_destination_fraction=0.15, seed=211 + offset,
            ),
        )
    oracles = {}
    for name, batches in tenant_batches.items():
        planner = build_planner()
        oracles[name] = [
            recommendation_fingerprint(result)
            for batch in batches
            for result in planner.recommend_batch(batch)
        ]
    for runner in (_run_tenants_shared_pool, _run_tenants_dedicated):
        results = runner(build_planner, tenant_batches)
        for name in TENANT_NAMES:
            fingerprints = [recommendation_fingerprint(r) for r in results[name]]
            assert fingerprints == oracles[name], (
                f"{runner.__name__} diverged from tenant {name}'s sequential oracle"
            )
    return build_planner, tenant_batches, oracles


def _assert_tenant_oracles(results, oracles):
    for name in TENANT_NAMES:
        assert [recommendation_fingerprint(r) for r in results[name]] == oracles[name]


@pytest.mark.benchmark(group="crowd_tenant")
def test_crowd_tenant_compiled(benchmark, tenant_setup):
    """Interleaved multi-tenant serving over one shared warm pool.

    The shared pool forks two workers once for all three tenants, and the
    workers' per-tenant warm truth bases survive the interleaving — the
    reference pays a full pool fork + teardown per tenant.  Like the other
    serving suites the ratio is core-count dependent, but the fork
    amortisation is paid even on a single core, so the ratio stays above 1
    everywhere."""
    build_planner, tenant_batches, oracles = tenant_setup
    results = benchmark.pedantic(
        _run_tenants_shared_pool, args=(build_planner, tenant_batches),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    benchmark.extra_info["tenants"] = len(TENANT_NAMES)
    benchmark.extra_info["pool_forks"] = 2
    _assert_tenant_oracles(results, oracles)


@pytest.mark.benchmark(group="crowd_tenant")
def test_crowd_tenant_reference(benchmark, tenant_setup):
    """Sequential dedicated per-tenant services on identical workloads."""
    build_planner, tenant_batches, oracles = tenant_setup
    results = benchmark.pedantic(
        _run_tenants_dedicated, args=(build_planner, tenant_batches),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    benchmark.extra_info["tenants"] = len(TENANT_NAMES)
    benchmark.extra_info["pool_forks"] = 2 * len(TENANT_NAMES)
    _assert_tenant_oracles(results, oracles)


# ------------------------------------------------------------- crowd hotspot
HOTSPOT_FRACTION = 0.1


def _run_hotspot(build_planner, workload, max_shard_fraction):
    """One batch through the pooled service, with or without the hotspot
    split diagnostic."""
    planner = build_planner()
    config = ServiceConfig.from_planner_config(
        planner.config,
        backend="pooled",
        pool_size=2,
        max_shard_fraction=max_shard_fraction,
    )
    with RecommendationService(planner, config) as service:
        responses = service.results(service.submit(workload))
        stats = service.statistics()["sharding"]
    return [response.result for response in responses], stats


def _hotspot_workload(scenario):
    """A city-center hotspot batch: 30% of queries share one destination."""
    return generate_large_batch_workload(
        scenario.network,
        LargeBatchWorkloadConfig(
            num_queries=160, num_clusters=5, dominant_destination_fraction=0.3, seed=77
        ),
    )


@pytest.fixture(scope="module")
def hotspot_setup(serving_city):
    """A city-center hotspot batch (30% of queries share one destination)
    plus the sequential oracle and the skew profile of the split plan.

    Before any timing, the service is asserted fingerprint-identical to the
    sequential oracle at fractions {0.25, 0.1}, and the tighter one must
    report a genuine multi-hop hand-off chain, so the suite keeps timing the
    hotspot regime.
    """
    scenario, build_planner = serving_city
    workload = _hotspot_workload(scenario)
    oracle = [
        recommendation_fingerprint(result)
        for result in build_planner().recommend_batch(workload)
    ]
    stats = None
    for fraction in (0.25, HOTSPOT_FRACTION):
        results, stats = _run_hotspot(build_planner, workload, fraction)
        fingerprints = [recommendation_fingerprint(r) for r in results]
        assert fingerprints == oracle, (
            f"hotspot chain diverged from the sequential oracle at fraction={fraction}"
        )
    assert stats is not None and stats["chain_depth"] >= 2, (
        "hotspot workload failed to produce a sub-shard chain — the suite "
        "would be timing plain sharding"
    )
    return build_planner, workload, oracle, stats


@pytest.mark.benchmark(group="crowd_hotspot")
def test_crowd_hotspot_compiled(benchmark, hotspot_setup):
    """The hotspot batch with the split diagnostic at fraction 0.1.

    The split is reported, never executed: both sides dispatch the same
    component plan, one message per shard, so this side pays only the
    staging of the reported split and the ratio sits near 1.  The
    committed ratio, not 1.0, stays the trajectory gate.  The skew profile
    (largest shard fraction before/after, chain depth) rides along in
    ``extra_info`` for the CI delta table."""
    build_planner, workload, oracle, stats = hotspot_setup
    results, _ = benchmark.pedantic(
        _run_hotspot,
        args=(build_planner, workload, HOTSPOT_FRACTION),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["largest_shard_fraction_before"] = round(
        stats["largest_shard_fraction_before"], 4
    )
    benchmark.extra_info["largest_shard_fraction_after"] = round(
        stats["largest_shard_fraction_after"], 4
    )
    benchmark.extra_info["chain_depth"] = stats["chain_depth"]
    assert [recommendation_fingerprint(r) for r in results] == oracle


@pytest.mark.benchmark(group="crowd_hotspot")
def test_crowd_hotspot_reference(benchmark, hotspot_setup):
    """The component plan with no split diagnostic, on the identical
    service shape."""
    build_planner, workload, oracle, _ = hotspot_setup
    results, _ = benchmark.pedantic(
        _run_hotspot,
        args=(build_planner, workload, None),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert [recommendation_fingerprint(r) for r in results] == oracle


# --------------------------------------------------------------- shard clone
class _DeepCopiedPool(WorkerPool):
    """The former shard-clone pool: ``copy.deepcopy`` of the whole pool
    where the clone now takes a copy-on-first-touch overlay."""

    def overlay(self):
        return copy.deepcopy(self)


def _deep_copy_planner(planner):
    """``planner`` as the former shard clones saw it: same substrate and
    truths, but a worker pool that each clone deep-copies."""
    reference = copy.copy(planner)
    reference.worker_pool = _DeepCopiedPool(planner.worker_pool)
    return reference


def _outcome_key(outcome):
    counted = PlannerStatistics()
    for result in outcome.results:
        counted.count(result)
    return (
        [recommendation_fingerprint(result) for result in outcome.results],
        counted.as_dict(),
        [
            (t.origin, t.destination, t.time_slot, t.route.path, t.verified_by, t.confidence)
            for t in outcome.new_truths
        ],
    )


def _chain_head_jobs(planner, batch):
    """The hotspot split of ``batch``: one job per sub-shard that heads a
    chain (no hand-off to adopt), in shard-id order."""
    plan = planner.shard_plan(batch, 2)
    split = split_oversized(planner, plan, batch, HOTSPOT_FRACTION)
    shared = Counter(id(shard.destination_cells) for shard in split.shards)
    return [
        ShardJob(
            shard_id=shard.shard_id,
            indices=shard.indices,
            queries=[batch[i] for i in shard.indices],
        )
        for shard in split.shards
        if shared[id(shard.destination_cells)] > 1 and not shard.handoff_from
    ]


def _run_shard_jobs(planner, jobs):
    return [_outcome_key(execute_shard(planner, job)) for job in jobs]


@pytest.fixture(scope="module")
def shard_clone_setup(serving_city):
    """The chain-head sub-shards of a repeated hotspot batch: the
    ``hotspot_repeat`` regime, where truth reuse answers most queries and
    the clone a worker builds per sub-shard is most of the hop.

    Before timing, the pool overlay and the deep copy are asserted
    to give identical outcomes (answers, statistics, recorded truths) on the
    chain-head sub-shards of the cold batch, which send queries to the crowd
    and so write the copied pool, and on the timed sub-shards.
    """
    scenario, build_planner = serving_city
    workload = _hotspot_workload(scenario)
    planner = build_planner()
    cold = _chain_head_jobs(planner, workload)
    outcomes = [execute_shard(planner, job) for job in cold]
    assert [_outcome_key(outcome) for outcome in outcomes] == _run_shard_jobs(
        _deep_copy_planner(planner), cold
    )
    assert any(r.method == "crowd" for outcome in outcomes for r in outcome.results), (
        "no chain-head sub-shard reached the crowd"
    )
    planner.recommend_batch(workload)
    reference = _deep_copy_planner(planner)
    jobs = _chain_head_jobs(planner, workload)
    expected = _run_shard_jobs(planner, jobs)
    assert expected == _run_shard_jobs(reference, jobs)
    return planner, reference, jobs, expected


@pytest.mark.benchmark(group="shard_clone")
def test_shard_clone_compiled(benchmark, shard_clone_setup):
    """``execute_shard(planner, job)`` on each chain-head sub-shard: the clone's
    worker pool is an overlay that copies a worker on first touch, and its
    truth store an O(1) overlay over the whole base store."""
    planner, _, jobs, expected = shard_clone_setup
    assert benchmark(_run_shard_jobs, planner, jobs) == expected


@pytest.mark.benchmark(group="shard_clone")
def test_shard_clone_reference(benchmark, shard_clone_setup):
    """The same sub-shards with the former per-clone ``copy.deepcopy`` of
    the 28-worker pool (the truth overlay is the same on both sides)."""
    _, reference, jobs, expected = shard_clone_setup
    assert benchmark(_run_shard_jobs, reference, jobs) == expected


# ---------------------------------------------------------------- shard plan
def _plan_batches(planner, batches, plan):
    """Plan and hotspot-split every batch the way the pooled service does."""
    return [
        split_oversized(planner, plan(batch, 2), batch, HOTSPOT_FRACTION) for batch in batches
    ]


@pytest.fixture(scope="module")
def shard_plan_setup(serving_city):
    """The hotspot workload as four 40-query batches (the ``hotspot_repeat``
    batch size), with the closure-based and set-based plans asserted equal
    before timing."""
    scenario, build_planner = serving_city
    workload = _hotspot_workload(scenario)
    batches = [workload[start : start + 40] for start in range(0, len(workload), 40)]
    planner = build_planner()
    expected = _plan_batches(planner, batches, partial(set_shard_plan, planner))
    assert _plan_batches(planner, batches, planner.shard_plan) == expected
    assert all(plan.chain_depth() >= 2 for plan in expected)
    return planner, batches, expected


@pytest.mark.benchmark(group="shard_plan")
def test_shard_plan_compiled(benchmark, shard_plan_setup):
    """``shard_plan`` + ``split_oversized``: each shard's cells are a union
    of memoised per-centre squares (warm after the first round, as they are
    for a service's repeated hot pairs)."""
    planner, batches, expected = shard_plan_setup
    assert benchmark(_plan_batches, planner, batches, planner.shard_plan) == expected


@pytest.mark.benchmark(group="shard_plan")
def test_shard_plan_reference(benchmark, shard_plan_setup):
    """The same plans with every shard's cells added one at a time
    (``repro.core.reference.set_shard_plan``)."""
    planner, batches, expected = shard_plan_setup
    plan = partial(set_shard_plan, planner)
    assert benchmark(_plan_batches, planner, batches, plan) == expected


# -------------------------------------------------------------- truth lookup
def _lookup_all(lookup, queries):
    return [getattr(lookup(query), "truth_id", None) for query in queries]


@pytest.fixture(scope="module")
def truth_lookup_setup(serving_city):
    """The hotspot workload answered once, then its 40-query batches
    repeated five times: ``hotspot_repeat``'s regime, where nearly every
    lookup repeats a key already answered.  The memoised and reference
    answers are asserted identical before timing."""
    scenario, build_planner = serving_city
    workload = _hotspot_workload(scenario)
    planner = build_planner()
    planner.recommend_batch(workload)
    store = planner.truths
    queries = workload * 5
    expected = _lookup_all(partial(lookup_reference, store), queries)
    assert _lookup_all(store.lookup, queries) == expected
    assert sum(truth_id is not None for truth_id in expected) > 0.9 * len(queries)
    return store, queries, expected


@pytest.mark.benchmark(group="truth_lookup")
def test_truth_lookup_compiled(benchmark, truth_lookup_setup):
    """``TruthDatabase.lookup``: one dict hit per repeated (origin,
    destination, slot) key."""
    store, queries, expected = truth_lookup_setup
    assert benchmark(_lookup_all, store.lookup, queries) == expected


@pytest.mark.benchmark(group="truth_lookup")
def test_truth_lookup_reference(benchmark, truth_lookup_setup):
    """The unmemoised scan (``repro.core.reference.lookup_reference``): two
    radius queries, an intersection and a sort per call."""
    store, queries, expected = truth_lookup_setup
    assert benchmark(_lookup_all, partial(lookup_reference, store), queries) == expected


# ------------------------------------------------------------ crowd straggler
STRAGGLER_TOTAL_S = 1.6
STRAGGLER_HEDGE_S = 0.1


class _OneStragglerPool(PooledBackend):
    """A pool whose second dispatch lands on a duty-cycle straggler.

    The chosen worker is SIGSTOPped immediately after the dispatch and then
    run on brief CONT slices (so it keeps heartbeating — the silence
    supervisor never fires) until ``STRAGGLER_TOTAL_S`` has elapsed, ending
    in a permanent SIGCONT.  This is the crawling-but-alive worker hedged
    execution exists to absorb; without hedging the batch stalls until the
    duty cycle ends.
    """

    def __init__(self, config):
        super().__init__(config)
        self._straggler_ordinal = 0
        self._straggler_threads = []

    def _dispatch(self, worker, jobs):
        ordinal = self._straggler_ordinal
        self._straggler_ordinal += 1
        sent = super()._dispatch(worker, jobs)
        if sent and ordinal == 1:
            self._stall(worker.pid)
        return sent

    def _stall(self, pid):
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            return

        def duty_cycle():
            deadline = time.monotonic() + STRAGGLER_TOTAL_S
            try:
                while time.monotonic() < deadline:
                    time.sleep(0.2)
                    os.kill(pid, signal.SIGCONT)
                    time.sleep(0.02)
                    if time.monotonic() >= deadline:
                        return
                    os.kill(pid, signal.SIGSTOP)
            except ProcessLookupError:
                return
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass

        thread = threading.Thread(target=duty_cycle, daemon=True)
        thread.start()
        self._straggler_threads.append(thread)

    def close(self):
        super().close()
        for thread in self._straggler_threads:
            thread.join(timeout=STRAGGLER_TOTAL_S + 1.0)
        self._straggler_threads.clear()


def _straggler_service(build_planner, hedge_after_s):
    backend = _OneStragglerPool(ServiceConfig(pool_size=2, hedge_after_s=hedge_after_s))
    return RecommendationService(build_planner(), backend=backend)


def _serve_batch(service, workload):
    return [response.result for response in service.results(service.submit(workload))]


def _run_straggler(build_planner, workload, hedge_after_s):
    """One batch through a two-worker pool with one injected straggler."""
    service = _straggler_service(build_planner, hedge_after_s)
    try:
        results = _serve_batch(service, workload)
        stats = service.statistics()["resilience"]
    finally:
        service.close()
    return results, stats


def _time_straggler(benchmark, build_planner, workload, hedge_after_s):
    """Time the serving latency only: a fresh service (pool fork + straggler
    injection) is built per round in untimed setup, and teardown — which for
    the hedged contender must SIGKILL a still-stopped lame loser — happens
    untimed afterwards.  Both contenders therefore time exactly the
    submit-to-results path their operators would measure as batch latency."""
    services = []

    def setup():
        service = _straggler_service(build_planner, hedge_after_s)
        services.append(service)
        return (service, workload), {}

    try:
        results = benchmark.pedantic(
            _serve_batch, setup=setup, rounds=3, iterations=1, warmup_rounds=0
        )
        stats = services[-1].statistics()["resilience"]
    finally:
        for service in services:
            service.close()
    return results, stats


@pytest.fixture(scope="module")
def straggler_setup(serving_city):
    """A small batch, its sequential oracle, and the resilience gate.

    Before any timing, both contenders — hedged and stall-until-done — run
    once with the injected straggler and are asserted fingerprint-identical
    to the sequential oracle; the hedged run must actually win at least one
    hedge race (else the suite would be timing plain sharding), and neither
    run may have tripped the hang supervisor (a straggler is slow, not
    silent — killing it would be the wrong mechanism winning).
    """
    scenario, build_planner = serving_city
    workload = generate_large_batch_workload(
        scenario.network,
        LargeBatchWorkloadConfig(
            num_queries=60, num_clusters=6, dominant_destination_fraction=0.15, seed=131
        ),
    )
    oracle = [
        recommendation_fingerprint(result)
        for result in build_planner().recommend_batch(workload)
    ]
    results, hedged_stats = _run_straggler(build_planner, workload, STRAGGLER_HEDGE_S)
    assert [recommendation_fingerprint(r) for r in results] == oracle, (
        "hedged serving diverged from the sequential oracle under a straggler"
    )
    assert hedged_stats["hedges_won"] >= 1, (
        "the straggler resolved before a hedge fired — the suite would be "
        "timing plain sharding"
    )
    results, plain_stats = _run_straggler(build_planner, workload, None)
    assert [recommendation_fingerprint(r) for r in results] == oracle, (
        "unhedged serving diverged from the sequential oracle under a straggler"
    )
    assert plain_stats["hedges_issued"] == 0
    return build_planner, workload, oracle


@pytest.mark.benchmark(group="crowd_straggler")
def test_crowd_straggler_compiled(benchmark, straggler_setup):
    """Hedged execution under one injected straggler.

    The fast worker finishes its shard, the straggler's shard is hedged to
    it after ``STRAGGLER_HEDGE_S``, and the batch completes at roughly the
    cost of re-running that shard — independent of how long the straggler
    crawls.  The reference pays the full duty cycle, so the ratio scales
    with ``STRAGGLER_TOTAL_S`` rather than core count."""
    build_planner, workload, oracle = straggler_setup
    results, stats = _time_straggler(benchmark, build_planner, workload, STRAGGLER_HEDGE_S)
    benchmark.extra_info["hedges_won"] = stats["hedges_won"]
    benchmark.extra_info["straggler_stall_s"] = STRAGGLER_TOTAL_S
    assert [recommendation_fingerprint(r) for r in results] == oracle


@pytest.mark.benchmark(group="crowd_straggler")
def test_crowd_straggler_reference(benchmark, straggler_setup):
    """The stall-until-done baseline: no hedging, the batch rides out the
    straggler's whole duty cycle on the identical service shape."""
    build_planner, workload, oracle = straggler_setup
    results, stats = _time_straggler(benchmark, build_planner, workload, None)
    benchmark.extra_info["hedges_won"] = stats["hedges_won"]
    benchmark.extra_info["straggler_stall_s"] = STRAGGLER_TOTAL_S
    assert [recommendation_fingerprint(r) for r in results] == oracle


# ---------------------------------------------------------------- truth wire
@pytest.fixture(scope="module")
def wire_delta_setup(serving_city, shard_setup):
    """The large-batch truth delta, plus the serving acceptance gate.

    Before any timing: (1) service responses must be fingerprint-identical
    to the sequential oracle on the columnar wire for the inline backend and
    pooled backends with pools {1, 2, 4}; (2) the codec round-trip must be
    exact; (3) the columnar payload must be at least 3x smaller than the
    pickled object delta — the acceptance criterion of the wire format.
    """
    _scenario, build_planner = serving_city
    _, workload, oracle = shard_setup

    def run_service(backend_name, pool_size=None):
        planner = build_planner()
        config = ServiceConfig.from_planner_config(
            planner.config, backend=backend_name, pool_size=pool_size
        )
        with RecommendationService(planner, config) as service:
            return [
                recommendation_fingerprint(response.result)
                for response in service.results(service.submit(workload))
            ]

    assert run_service("inline") == oracle, "inline service diverged from the oracle"
    for pool in (1, 2, 4):
        assert run_service("pooled", pool) == oracle, (
            f"pooled service (columnar wire) diverged from the oracle at pool={pool}"
        )

    delta_planner = build_planner()
    delta_planner.recommend_batch(workload)
    delta = delta_planner.truths.all()
    network = delta_planner.network
    block = encode_truth_delta(delta, network)
    assert block.decode_truths(network) == delta, "codec round trip is not exact"
    pickled_bytes = len(pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL))
    columnar_bytes = block.wire_bytes()
    assert columnar_bytes * 3 <= pickled_bytes, (
        f"columnar payload {columnar_bytes}B is not >= 3x smaller than pickle {pickled_bytes}B"
    )
    return delta, network, columnar_bytes, pickled_bytes


def _wire_roundtrip_columnar(delta, network):
    block = pickle.loads(
        pickle.dumps(encode_truth_delta(delta, network), protocol=pickle.HIGHEST_PROTOCOL)
    )
    return block.decode_truths(network)


def _wire_roundtrip_pickle(delta, _network):
    return pickle.loads(pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.benchmark(group="truth_wire")
def test_truth_wire_compiled(benchmark, wire_delta_setup):
    """Columnar codec: encode + pickle + unpickle + decode of the delta.

    The headline win is bytes on the wire (several times smaller — recorded
    in ``extra_info`` and surfaced by ``bench_check``); the time ratio vs
    raw pickle trades a little codec CPU for that payload cut, so its
    committed value sits near 1x rather than above it."""
    delta, network, columnar_bytes, _ = wire_delta_setup
    decoded = benchmark(_wire_roundtrip_columnar, delta, network)
    assert decoded == delta
    benchmark.extra_info["wire_bytes"] = columnar_bytes
    benchmark.extra_info["truths"] = len(delta)


@pytest.mark.benchmark(group="truth_wire")
def test_truth_wire_reference(benchmark, wire_delta_setup):
    """The pickled object list — the pre-columnar wire format — on the
    same delta."""
    delta, network, _, pickled_bytes = wire_delta_setup
    decoded = benchmark(_wire_roundtrip_pickle, delta, network)
    assert decoded == delta
    benchmark.extra_info["wire_bytes"] = pickled_bytes
    benchmark.extra_info["truths"] = len(delta)


# ------------------------------------------------------------- truth journal
def _dir_bytes(directory):
    return sum(
        entry.stat().st_size for entry in directory.iterdir() if entry.is_file()
    )


def _run_journal_checkpoints(chunks, network, directory):
    """Incremental durability: append each batch's delta to the journal
    (columnar codec, compaction rotating snapshots), then reopen and replay
    — the full crash-recovery read path (snapshot + tail scan + decode)."""
    if directory.exists():
        shutil.rmtree(directory)
    store = TruthDatabase(network)
    with TruthJournal(directory, fsync=False, snapshot_every_truths=128) as journal:
        for chunk in chunks:
            store.adopt_all(chunk)
            journal.append(chunk, store)
    with TruthJournal(directory, fsync=False) as journal:
        return journal.replay(network)


def _run_pickle_checkpoints(chunks, network, directory):
    """The naive durability baseline: after every batch, atomically rewrite
    one pickle of the *entire* accumulated truth list, then reload it."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    path = directory / "truths.pkl"
    accumulated = []
    for chunk in chunks:
        accumulated.extend(chunk)
        tmp = directory / "truths.tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(accumulated, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    with open(path, "rb") as handle:
        return pickle.load(handle)


@pytest.fixture(scope="module")
def journal_setup(wire_delta_setup, tmp_path_factory):
    """The large-batch delta split into per-batch appends, plus the gate.

    Before any timing, both durability strategies must reload exactly the
    source truths, and the journal directory must not be larger on disk than
    the last whole-store pickle alone (it holds the same information as a
    snapshot + columnar deltas).  ``fsync`` is off for both contenders so the
    timing compares codec + I/O volume, not device sync latency.
    """
    delta, network, _, _ = wire_delta_setup
    # Small per-batch deltas (a serving batch verifies a handful of truths):
    # the shape under which incremental appends beat whole-store rewrites.
    chunks = [delta[i : i + 8] for i in range(0, len(delta), 8)]
    root = tmp_path_factory.mktemp("bench_truth_journal")
    assert _run_journal_checkpoints(chunks, network, root / "gate_journal") == delta
    assert _run_pickle_checkpoints(chunks, network, root / "gate_pickle") == delta
    journal_bytes = _dir_bytes(root / "gate_journal")
    pickle_bytes = _dir_bytes(root / "gate_pickle")
    assert journal_bytes <= pickle_bytes, (
        f"journal dir {journal_bytes}B outgrew the single whole-store pickle "
        f"{pickle_bytes}B"
    )
    return chunks, delta, network, root, journal_bytes, pickle_bytes


@pytest.mark.benchmark(group="truth_journal")
def test_truth_journal_compiled(benchmark, journal_setup):
    """Journal a batch stream then recover it (append + compact + replay).

    The reference rewrites the whole store per batch, so its write cost
    grows quadratically with stream length while the journal's stays linear
    — the recorded ratio understates the win on longer streams.  Bytes
    resident on disk at the end ride along as ``wire_bytes``."""
    chunks, delta, network, root, journal_bytes, _ = journal_setup
    replayed = benchmark(_run_journal_checkpoints, chunks, network, root / "timed_journal")
    assert replayed == delta
    benchmark.extra_info["wire_bytes"] = journal_bytes
    benchmark.extra_info["truths"] = len(delta)
    benchmark.extra_info["batches"] = len(chunks)


@pytest.mark.benchmark(group="truth_journal")
def test_truth_journal_reference(benchmark, journal_setup):
    """Pickle-the-world checkpointing of the same stream, then reload."""
    chunks, delta, network, root, _, pickle_bytes = journal_setup
    replayed = benchmark(_run_pickle_checkpoints, chunks, network, root / "timed_pickle")
    assert replayed == delta
    benchmark.extra_info["wire_bytes"] = pickle_bytes
    benchmark.extra_info["truths"] = len(delta)
    benchmark.extra_info["batches"] = len(chunks)
