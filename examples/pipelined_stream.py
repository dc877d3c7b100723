"""Pipelined streaming: plan a window of batches as one component plan.

Run with::

    python examples/pipelined_stream.py

The script builds a city with several independent od neighbourhoods and
turns them into a *skewed* stream: each batch is one neighbourhood's worth
of queries, so consecutive batches often touch disjoint parts of the city
(think district-by-district commute waves).  The stream is then served
twice through the persistent pooled backend:

1. with ``pipeline_window=1`` — the per-batch barrier: each batch is
   planned and dispatched alone, and batch N+1 waits for batch N's
   straggler shard even when the two share no od cell;
2. with ``pipeline_window=4`` — up to four pending batches form a window,
   planned as one batch: one ``shard_plan`` call over the window's queries
   in submission order, at most one shard per worker, a shard holding
   queries of any of the window's batches, all shards dispatched at once.

The window's plan is printed — which batches each shard holds queries of —
and ``service.statistics()["pipeline"]`` counts the ``run`` messages each
run sent; provenance batch and shard ids show where every answer was
produced.  Batches still merge strictly in submission order, so both runs
are bit-identical to the sequential oracle — the serving contract holds
for every window size (see docs/serving-invariants.md).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import ServiceConfig
from repro.core.planner import CrowdPlanner
from repro.datasets import SyntheticCityConfig, build_scenario
from repro.datasets.workloads import (
    LargeBatchWorkloadConfig,
    generate_large_batch_workload,
)
from repro.serving import RecommendationService, recommendation_fingerprint

POOL_SIZE = 4
WINDOW = 4


def build_planner(scenario, familiarity):
    """A planner sharing the pre-fitted familiarity model (identical starts)."""
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


def neighbourhood_stream(planner, network):
    """A stream whose batches are od neighbourhoods, not uniform samples.

    One large clustered workload is planned into interaction-closed shards,
    and each shard's queries become one batch: a skewed arrival order in
    which consecutive batches frequently touch disjoint od cells.
    """
    big = generate_large_batch_workload(
        network, LargeBatchWorkloadConfig(num_queries=240, num_clusters=8, seed=17)
    )
    plan = planner.shard_plan(big, 8)
    return [
        [big[i] for i in shard.indices]
        for shard in plan.shards
        if len(shard.indices) >= 12
    ]


def serve(scenario, familiarity, batches, window):
    """Serve the stream submit-all-then-collect; returns (responses, stats, s)."""
    planner = build_planner(scenario, familiarity)
    config = ServiceConfig.from_planner_config(
        planner.config,
        backend="pooled",
        pool_size=POOL_SIZE,
        pipeline_window=window,
        max_pending_batches=max(16, len(batches)),
    )
    responses = []
    with RecommendationService(planner, config) as service:
        started = time.perf_counter()
        # Submit the whole stream before redeeming anything: consecutive
        # batches are then actually pending together, which is what hands
        # the backend full windows to plan.  (service.stream() does the
        # same prefetch internally when pipeline_window > 1.)
        tickets = [service.submit(batch) for batch in batches]
        for ticket in tickets:
            responses.extend(service.results(ticket))
        elapsed = time.perf_counter() - started
        stats = service.statistics()["pipeline"]
    return responses, stats, elapsed


def main() -> None:
    print("Building an 18x18 synthetic city with independent od neighbourhoods...")
    scenario = build_scenario(
        SyntheticCityConfig(
            rows=18, cols=18, block_size_m=320.0, num_landmarks=110,
            num_drivers=18, trips_per_driver=10, num_hot_pairs=14, num_workers=28, seed=31,
        )
    )

    print("Preparing the planner (familiarity matrix + PMF completion)...")
    sequential_planner = scenario.build_planner()
    familiarity = sequential_planner.familiarity

    batches = neighbourhood_stream(sequential_planner, scenario.network)
    total = sum(len(batch) for batch in batches)
    print(f"Workload: {total} queries in {len(batches)} neighbourhood batches "
          f"of {[len(b) for b in batches]}\n")

    # What the pooled backend dispatches for each window: one component
    # plan over the window's queries (a fresh store settles none of them),
    # its shards' indices lifted to positions in the concatenated batches.
    print(f"Each window's one plan (pipeline_window={WINDOW}, at most {POOL_SIZE} shards):")
    for first in range(0, len(batches), WINDOW):
        window = batches[first : first + WINDOW]
        owner = [first + batch for batch, queries in enumerate(window) for _ in queries]
        plan = sequential_planner.shard_plan([q for queries in window for q in queries], POOL_SIZE)
        print(f"  window of batches {first}..{first + len(window) - 1}:")
        for shard in plan.shards:
            held = {}
            for index in shard.indices:
                held[owner[index]] = held.get(owner[index], 0) + 1
            rendered = ", ".join(f"batch {batch}: {count}" for batch, count in sorted(held.items()))
            print(f"    shard {shard.shard_id} ({shard.components} components): {rendered}")

    print("\nServing sequentially (the oracle)...")
    oracle = []
    for batch in batches:
        oracle.extend(sequential_planner.recommend_batch(batch))
    oracle_fp = [recommendation_fingerprint(r) for r in oracle]

    print(f"Serving with the per-batch barrier (pipeline_window=1, pool of {POOL_SIZE})...")
    barrier_responses, barrier_stats, barrier_s = serve(scenario, familiarity, batches, 1)
    print(f"  {total / barrier_s:7,.0f} queries/s   pipeline stats: {barrier_stats}")

    print(f"Serving one plan per window (pipeline_window={WINDOW}, pool of {POOL_SIZE})...")
    windowed_responses, windowed_stats, windowed_s = serve(scenario, familiarity, batches, WINDOW)
    print(f"  {total / windowed_s:7,.0f} queries/s   pipeline stats: {windowed_stats}")
    print(f"  run messages: {barrier_stats['dispatch_units']} batch by batch, "
          f"{windowed_stats['dispatch_units']} with one plan per window")

    # Provenance shows the plan: responses carry the batch and the shard
    # that produced them, a shard serves several batches, and batches still
    # merged strictly in submission order.
    by_batch = {}
    for response in windowed_responses:
        prov = response.provenance
        by_batch.setdefault(prov.batch_id, set()).add((prov.shard_id, prov.worker_pid))
    print("\nPer-batch shard placement under the window "
          "(batch id -> {(shard id, worker pid)}):")
    for batch_id in sorted(by_batch):
        print(f"  batch {batch_id}: {sorted(by_batch[batch_id])}")

    barrier_fp = [recommendation_fingerprint(r.result) for r in barrier_responses]
    windowed_fp = [recommendation_fingerprint(r.result) for r in windowed_responses]
    print(f"\nBarrier answers identical to sequential:  {barrier_fp == oracle_fp}")
    print(f"Windowed answers identical to sequential: {windowed_fp == oracle_fp}")


if __name__ == "__main__":
    main()
