"""Session-based serving: a steady query stream through a persistent pool.

Run with::

    python examples/sharded_serving.py

The script builds a city large enough to hold several independent od
neighbourhoods, generates a steady stream of query batches, and serves it
three ways:

1. sequentially (`CrowdPlanner.recommend_batch` per batch — the oracle);
2. through a session-based :class:`RecommendationService` with the
   persistent ``pooled`` backend — the pool is forked once, workers keep
   their truth stores warm between batches and the parent streams
   merged truth deltas back, so per-batch wall time drops once the pool is
   warm;
3. through a service opened and closed around every batch, which forks a
   fresh pool for every batch — the amortisation baseline.

All three produce bit-identical answers — the serving layer's contract.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import ServiceConfig
from repro.core.planner import CrowdPlanner
from repro.datasets import SyntheticCityConfig, build_scenario
from repro.datasets.workloads import StreamWorkloadConfig, generate_stream_workload
from repro.serving import RecommendationService, recommendation_fingerprint

POOL_SIZE = 4


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


def main() -> None:
    print("Building an 18x18 synthetic city (5.4 km extent)...")
    scenario = build_scenario(
        SyntheticCityConfig(
            rows=18, cols=18, block_size_m=320.0, num_landmarks=110,
            num_drivers=18, trips_per_driver=10, num_hot_pairs=14, num_workers=28, seed=31,
        )
    )
    batches = generate_stream_workload(
        scenario.network,
        StreamWorkloadConfig(num_batches=6, batch_size=50, num_clusters=6,
                             dominant_destination_fraction=0.1),
    )
    total = sum(len(batch) for batch in batches)
    print(f"Workload: {total} queries in {len(batches)} steady batches of ~50\n")

    print("Preparing the planner (familiarity matrix + PMF completion)...")
    sequential_planner = scenario.build_planner()
    familiarity = sequential_planner.familiarity

    print("\nServing sequentially (the oracle)...")
    oracle = []
    started = time.perf_counter()
    for batch in batches:
        oracle.extend(sequential_planner.recommend_batch(batch))
    sequential_s = time.perf_counter() - started
    print(f"  {total / sequential_s:,.0f} queries/s")

    print(f"\nServing through RecommendationService (persistent pool of {POOL_SIZE})...")
    service_planner = build_planner(scenario, familiarity)
    config = ServiceConfig.from_planner_config(
        service_planner.config, backend="pooled", pool_size=POOL_SIZE
    )
    responses = []
    with RecommendationService(service_planner, config) as service:
        plan = service.plan(batches[0])
        print(f"  first batch shard plan: {len(plan.shards)} shard(s), "
              f"{plan.num_components} component(s)")
        service_s = 0.0
        for number, batch in enumerate(batches, start=1):
            started = time.perf_counter()
            ticket = service.submit(batch)
            batch_responses = service.results(ticket)
            elapsed = time.perf_counter() - started
            service_s += elapsed
            responses.extend(batch_responses)
            warm = batch_responses[0].provenance.warm_pool
            print(f"  batch {number}: {len(batch) / elapsed:7,.0f} queries/s  "
                  f"({'warm pool' if warm else 'cold pool (forked here)'})")
        pids = sorted({r.provenance.worker_pid for r in responses if r.provenance.worker_pid})
        print(f"  {total / service_s:,.0f} queries/s overall; "
              f"worker pids {pids} stayed constant across all {len(batches)} batches")

    print("\nServing through a service per batch (forks a fresh pool every batch)...")
    per_batch_planner = build_planner(scenario, familiarity)
    per_batch_responses = []
    started = time.perf_counter()
    for batch in batches:
        with RecommendationService(per_batch_planner, config) as one_shot:
            per_batch_responses.extend(one_shot.recommend_batch(batch))
    per_batch_s = time.perf_counter() - started
    print(f"  {total / per_batch_s:,.0f} queries/s "
          f"(persistent pool amortised {per_batch_s / service_s:.2f}x of this)")

    oracle_fp = [recommendation_fingerprint(r) for r in oracle]
    service_fp = [recommendation_fingerprint(r.result) for r in responses]
    per_batch_fp = [recommendation_fingerprint(r.result) for r in per_batch_responses]
    print(f"\nService answers identical to sequential:   {service_fp == oracle_fp}")
    print(f"Per-batch answers identical to sequential: {per_batch_fp == oracle_fp}")

    methods = {}
    truth_hits = 0
    for response in responses:
        methods[response.method] = methods.get(response.method, 0) + 1
        truth_hits += response.provenance.truth_reused
    print("Resolution methods:", dict(sorted(methods.items())))
    print(f"Warm truth-store hits: {truth_hits}/{total} "
          f"(later batches reuse truths recorded by earlier ones)")


if __name__ == "__main__":
    main()
