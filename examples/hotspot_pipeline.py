"""Hotspot split: report an oversized component as a sub-shard chain.

Run with::

    python examples/hotspot_pipeline.py

The script builds a city-center hotspot workload — 30% of all queries share
one dominant destination — so interaction-closed sharding puts half the
batch into a single component that one worker serves alone.  The batch is
then served twice through the pooled backend:

1. with ``max_shard_fraction=None`` — the component plan is reported as
   is: the hotspot component is one shard, however large;
2. with ``max_shard_fraction=0.1`` — ``split_oversized`` reports the
   component's od-cell groups as an ordered dataflow of sub-shards, each at
   most 10% of the batch, linked by hand-off edges.

The split is a diagnostic: the sub-shard chain (ids, sizes, hand-off
edges) is printed and ``service.statistics()["sharding"]`` reports the
largest shard fraction before/after splitting plus the chain depth, but
both runs dispatch the same component plan, one message per shard, as
provenance shows.  Every hand-off the split names lies inside one
component shard, which its worker answers in submission order.  Merges
happen in strict submission order with truth ids issued by the parent, so
both runs are bit-identical to the sequential oracle (see
docs/serving-invariants.md).
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

POOL_SIZE = 2
FRACTION = 0.1


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


def serve(scenario, familiarity, workload, fraction):
    """Serve the batch once; returns (responses, sharding stats, seconds)."""
    planner = build_planner(scenario, familiarity)
    config = ServiceConfig.from_planner_config(
        planner.config,
        backend="pooled",
        pool_size=POOL_SIZE,
        max_shard_fraction=fraction,
    )
    with RecommendationService(planner, config) as service:
        started = time.perf_counter()
        responses = service.results(service.submit(workload))
        elapsed = time.perf_counter() - started
        stats = service.statistics()["sharding"]
    return responses, stats, elapsed


def main() -> None:
    print("Building an 18x18 synthetic city...")
    scenario = build_scenario(
        SyntheticCityConfig(
            rows=18, cols=18, block_size_m=320.0, num_landmarks=110,
            num_drivers=18, trips_per_driver=10, num_hot_pairs=14, num_workers=28, seed=31,
        )
    )

    print("Preparing the planner (familiarity matrix + PMF completion)...")
    sequential_planner = scenario.build_planner()
    familiarity = sequential_planner.familiarity

    workload = generate_large_batch_workload(
        scenario.network,
        LargeBatchWorkloadConfig(
            num_queries=160, num_clusters=5, dominant_destination_fraction=0.3, seed=77
        ),
    )
    print(f"Workload: {len(workload)} queries, 30% sharing one city-center destination\n")

    # What the split reports: the component plan's largest shard against
    # the sub-shard chain.  "s3 <- Δ{1, 2}" reads "sub-shard 3
    # can see the truths recorded by sub-shards 1 and 2".
    monolithic = sequential_planner.shard_plan(workload, POOL_SIZE)
    planner = build_planner(scenario, familiarity)
    backend_config = ServiceConfig.from_planner_config(
        planner.config, backend="pooled", pool_size=POOL_SIZE, max_shard_fraction=FRACTION
    )
    with RecommendationService(planner, config=backend_config) as service:
        split = service.plan(workload)
    print(f"Component plan: {len(monolithic.shards)} shards, largest "
          f"{monolithic.largest_shard_fraction():.0%} of the batch")
    print(f"Split plan (max_shard_fraction={FRACTION}): {len(split.shards)} sub-shards, "
          f"largest {split.largest_shard_fraction():.0%}, chain depth {split.chain_depth()}")
    for shard in split.shards:
        handoff = (
            f" <- Δ{{{', '.join(str(s) for s in shard.handoff_from)}}}"
            if shard.handoff_from
            else ""
        )
        print(f"  s{shard.shard_id}: {len(shard.indices)} queries{handoff}")

    print("\nServing sequentially (the oracle)...")
    oracle = sequential_planner.recommend_batch(workload)
    oracle_fp = [recommendation_fingerprint(r) for r in oracle]

    print(f"Serving with no split reported (pool of {POOL_SIZE})...")
    mono_responses, mono_stats, mono_s = serve(scenario, familiarity, workload, None)
    print(f"  {len(workload) / mono_s:7,.0f} queries/s   sharding stats: {mono_stats}")

    print(f"Serving with the split reported (max_shard_fraction={FRACTION})...")
    chain_responses, chain_stats, chain_s = serve(scenario, familiarity, workload, FRACTION)
    print(f"  {len(workload) / chain_s:7,.0f} queries/s   sharding stats: {chain_stats}")

    # Provenance names the dispatched shards: the component plan's, one
    # message each, whatever the split reported.
    by_shard = {}
    for response in chain_responses:
        prov = response.provenance
        by_shard.setdefault(prov.shard_id, set()).add(prov.worker_pid)
    print("\nDispatched shards (shard id -> worker pids):")
    for shard_id in sorted(by_shard):
        print(f"  s{shard_id}: {sorted(by_shard[shard_id])}")

    mono_fp = [recommendation_fingerprint(r.result) for r in mono_responses]
    chain_fp = [recommendation_fingerprint(r.result) for r in chain_responses]
    print(f"\nNo-split answers identical to sequential:   {mono_fp == oracle_fp}")
    print(f"Split-run answers identical to sequential:  {chain_fp == oracle_fp}")


if __name__ == "__main__":
    main()
