"""E8 — Serving throughput: the session-based service over a steady stream.

The serving layer (:mod:`repro.serving`) answers a stream of query batches
through a :class:`~repro.serving.RecommendationService`.  This experiment
replays the same steady stream (clustered neighbourhoods with a dominant
destination cell mixed in — the skew case) through every configured backend:
the ``inline`` sequential oracle, the ``pooled`` persistent worker pool at
several pool sizes, ``pipelined`` — the same pool with
``pipeline_window`` batches planned and dispatched as one window —
plus ``per_batch``, a service opened and closed around every batch (a fresh
pool fork per batch), as the amortisation baseline.  The
pipelined runs submit the whole stream before collecting, so consecutive
batches are actually pending together and the window can engage.  Per run
it reports wall time, throughput, speedup
over the sequential oracle, how many batches ran on a warm (already-forked)
pool, whether workers were reused without re-forking — and, crucially,
whether every answer was identical to the sequential run, which is the
service's correctness contract.

Wall-clock numbers are machine-dependent (a single-core container shows the
pooling *overhead* rather than a speedup; the fork-amortisation delta of
``pooled`` vs ``per_batch`` survives even there); the identical-answers
column must hold everywhere.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config import ServiceConfig
from ..datasets.synthetic_city import Scenario
from ..datasets.workloads import StreamWorkloadConfig, generate_stream_workload
from ..serving import RecommendationService, recommendation_fingerprint
from .metrics import ExperimentResult


@dataclass(frozen=True)
class ThroughputExperimentConfig:
    """Workload and sweep parameters for E8."""

    pool_sizes: Tuple[int, ...] = (1, 2, 4)
    backends: Tuple[str, ...] = ("inline", "pooled", "pipelined", "per_batch")
    num_batches: int = 4
    batch_size: int = 60
    num_clusters: int = 6
    dominant_destination_fraction: float = 0.15
    #: Overlap depth of the ``pipelined`` runs (1 would be the barrier).
    pipeline_window: int = 4
    seed: int = 131


def _serve_stream(service: RecommendationService, batches: List[list]):
    """Run the stream through a service; returns (responses, wall seconds)."""
    responses = []
    started = time.perf_counter()
    for batch in batches:
        responses.extend(service.results(service.submit(batch)))
    return responses, time.perf_counter() - started


def _serve_stream_pipelined(service: RecommendationService, batches: List[list]):
    """Submit every batch up front, then collect in submission order — the
    client shape that hands the backend full windows to overlap."""
    responses = []
    started = time.perf_counter()
    tickets = [service.submit(batch) for batch in batches]
    for ticket in tickets:
        responses.extend(service.results(ticket))
    return responses, time.perf_counter() - started


def run(scenario: Scenario, config: Optional[ThroughputExperimentConfig] = None) -> ExperimentResult:
    """Run E8 on a built scenario."""
    config = config or ThroughputExperimentConfig()
    batches = generate_stream_workload(
        scenario.network,
        StreamWorkloadConfig(
            num_batches=config.num_batches,
            batch_size=config.batch_size,
            num_clusters=config.num_clusters,
            dominant_destination_fraction=config.dominant_destination_fraction,
            seed=config.seed,
        ),
    )
    num_queries = sum(len(batch) for batch in batches)

    # Every run must start from the same planner state; the familiarity fit
    # reads the (shared) worker pool's answer histories, so all planners are
    # built before any batch runs.
    sequential_planner = scenario.build_planner()
    runs = []
    for backend in config.backends:
        pool_sizes = (1,) if backend == "inline" else config.pool_sizes
        for pool_size in pool_sizes:
            runs.append((backend, pool_size, scenario.build_planner()))

    started = time.perf_counter()
    oracle: List[tuple] = []
    for batch in batches:
        oracle.extend(
            recommendation_fingerprint(result)
            for result in sequential_planner.recommend_batch(batch)
        )
    sequential_time = time.perf_counter() - started

    result = ExperimentResult(
        experiment_id="E8",
        title="Session-based serving throughput vs the sequential oracle",
        notes={
            "num_queries": num_queries,
            "num_batches": len(batches),
            "batch_size": config.batch_size,
            "num_clusters": config.num_clusters,
            "dominant_destination_fraction": config.dominant_destination_fraction,
            "pipeline_window": config.pipeline_window,
        },
    )

    all_identical = True
    for backend_name, pool_size, planner in runs:
        pipelined = backend_name == "pipelined"
        service_config = ServiceConfig.from_planner_config(
            planner.config,
            backend="inline" if backend_name == "inline" else "pooled",
            pool_size=pool_size,
            pipeline_window=config.pipeline_window if pipelined else 1,
            max_pending_batches=max(16, len(batches)),
        )
        if backend_name == "per_batch":
            # The baseline: a fresh service (and pool fork) for every batch.
            started = time.perf_counter()
            responses = []
            for batch in batches:
                with RecommendationService(planner, service_config) as service:
                    responses.extend(service.recommend_batch(batch))
            elapsed = time.perf_counter() - started
            warm_batches = 0
            worker_reuse = False
        else:
            with RecommendationService(planner, service_config) as service:
                serve = _serve_stream_pipelined if pipelined else _serve_stream
                responses, elapsed = serve(service, batches)
                # A settled truth reuse is answered in the parent outside any
                # shard (shard_id None): only shard-served pids show reuse.
                pids_per_batch = {}
                for response in responses:
                    if response.provenance.shard_id is not None:
                        pids_per_batch.setdefault(response.provenance.batch_id, set()).add(
                            response.provenance.worker_pid
                        )
            warm_batches = len({r.provenance.batch_id for r in responses if r.provenance.warm_pool})
            if backend_name == "pooled" and len(pids_per_batch) > 1:
                all_pids = set().union(*pids_per_batch.values())
                # Real reuse means actual pool workers (not the parent, which
                # is the pid the inline fallback stamps) served every batch.
                worker_reuse = (
                    len(all_pids) <= max(pool_size, 1) and os.getpid() not in all_pids
                )
            else:
                worker_reuse = False

        fingerprints = [recommendation_fingerprint(r.result) for r in responses]
        identical = fingerprints == oracle
        all_identical = all_identical and identical
        result.add_row(
            backend=backend_name,
            pool_size=pool_size,
            wall_time_s=elapsed,
            queries_per_s=num_queries / elapsed if elapsed > 0 else float("inf"),
            speedup_vs_sequential=sequential_time / elapsed if elapsed > 0 else float("inf"),
            warm_batches=warm_batches,
            workers_reused=worker_reuse,
            identical_to_sequential=identical,
        )

    result.summary.update(
        {
            "sequential_wall_time_s": sequential_time,
            "sequential_queries_per_s": (
                num_queries / sequential_time if sequential_time > 0 else float("inf")
            ),
            "all_runs_identical_to_sequential": all_identical,
            "best_speedup": max((row["speedup_vs_sequential"] for row in result.rows), default=0.0),
        }
    )
    return result
