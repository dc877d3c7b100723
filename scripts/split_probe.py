"""Closed-loop split probe: pooled hotspot serving at two split fractions vs inline.

Run with::

    python scripts/split_probe.py [--runs 5] [--seed 1]

Serves the closed-loop batches of servebench's ``hotspot_repeat`` workload
(one pass: 108 batches of 40 queries at seed 1) through a fresh
``RecommendationService`` in three configurations:

* pooled, 2 workers, window 4, ``max_shard_fraction`` 0.1 (the workload's
  own knobs);
* the same at ``max_shard_fraction`` 1.0 (no split);
* inline (the sequential oracle as a backend).

Each run is a forked child of this process, taken after servebench's
inline warm-up pass, so every run starts from the same warm state.  A
pooled run forks its workers before the clock starts.  Each of the
``--runs`` rounds runs every configuration once, in an order rotated from
round to round, so a slow spell on a shared machine and the position in a
round hit each configuration alike.  The probe prints each
configuration's q1 / median / q3 over the rounds in ms per batch, its
``pipeline.dispatch_units``, ``pipeline.settled_queries`` and
``pipeline.cross_batch_edges`` counters and its ``shard_plan`` calls (all
deterministic for the closed loop; all read 0 inline).  It fails unless
every run's answer digest is the same (and, at the default seed, equal to
the committed closed-loop digest), unless both pooled fractions settle the
same queries and send the same number of dispatches (settling happens
before planning, and a window dispatches the component plan, one message
per shard, so neither reads the split), and when a pooled configuration
reports a cross-batch edge (a window is planned as one batch, so none of
its shards waits on another batch).  Counters a checkout does not have
read 0, so the probe also runs in an older checkout (whose
``cross_batch_edges`` then fail the last check).  It only reads
``servebench``; it changes nothing there.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serving import RecommendationService  # noqa: E402
from servebench.driver import closed_loop  # noqa: E402
from servebench.workloads import (  # noqa: E402
    DEFAULT_DIGESTS,
    DEFAULT_SECONDS,
    DEFAULT_SEED,
    WORKLOADS,
    build_substrate_timed,
    digest_results,
    forked,
)

WORKLOAD = WORKLOADS["hotspot_repeat"]

#: Label -> service overrides of the workload's own configuration.
CONFIGURATIONS = {
    "pooled, fraction 0.1": {"max_shard_fraction": 0.1},
    "pooled, fraction 1.0": {"max_shard_fraction": 1.0},
    "inline": {"backend": "inline"},
}


def warm_up(substrate, seed: int) -> None:
    """servebench's warm-up: another seed's traffic through a throwaway
    inline service, so the shared routing state is warm before any fork."""
    planner = substrate.planner()
    config = WORKLOAD.service_config(planner, backend="inline")
    with RecommendationService(planner, config) as service:
        for batch in WORKLOAD.warmup_batches(substrate.scenario.network, seed):
            service.results(service.submit(batch))


#: The counters :func:`serve_once` reports, in print order.
COUNTERS = ("dispatch_units", "settled_queries", "cross_batch_edges", "shard_plan calls")


def serve_once(substrate, batches, overrides):
    """(ms per batch, answer digest, counters in :data:`COUNTERS` order) of
    one closed-loop pass, in a forked child."""

    def task():
        planner = substrate.planner()
        plans = []
        shard_plan = planner.shard_plan

        def counting(queries, shards):
            plans.append(len(queries))
            return shard_plan(queries, shards)

        planner.shard_plan = counting
        config = WORKLOAD.service_config(planner, **overrides)
        with RecommendationService(planner, config) as service:
            ensure_pool = getattr(service.backend, "_ensure_pool", None)
            if ensure_pool is not None:
                ensure_pool()
            phase = closed_loop(service, batches, config.pipeline_window)
            pipeline = service.statistics()["pipeline"]
        if any(not record.ok for record in phase.records):
            raise RuntimeError("a batch failed")
        results = [response.result for record in phase.records for response in record.responses]
        counts = tuple(pipeline.get(name, 0) for name in COUNTERS[:3]) + (len(plans),)
        return 1000.0 * phase.elapsed_s / len(batches), digest_results(results), counts

    return forked(task)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="rounds; each runs every configuration once")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    substrate, _, _ = build_substrate_timed(time.perf_counter)
    warm_up(substrate, args.seed)
    batches, _ = WORKLOAD.inputs(substrate.scenario.network, args.seed, DEFAULT_SECONDS)
    print(f"set-up {time.perf_counter() - started:.1f} s; {len(batches)} closed-loop batches")

    samples = {label: [] for label in CONFIGURATIONS}
    counts = {}
    digests = set()
    labels = list(CONFIGURATIONS)
    for round_index in range(args.runs):
        # Rotate the order, so a slow spell on a shared machine, and the
        # position within a round, hit every configuration alike.
        shift = round_index % len(labels)
        for label in labels[shift:] + labels[:shift]:
            ms, digest, counts[label] = serve_once(substrate, batches, CONFIGURATIONS[label])
            samples[label].append(ms)
            digests.add(digest)
            print(f"  {label}: {ms:.2f} ms per batch ({digest[:8]})")
    print(f"ms per batch over {args.runs} rounds (q1 / median / q3); " + "; ".join(COUNTERS) + ":")
    for label in CONFIGURATIONS:
        values = samples[label]
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        )
        columns = " ".join(f"{count:6d}" for count in counts[label])
        print(f"  {label:22s} {q1:6.2f} / {median:6.2f} / {q3:6.2f} {columns}")
    if len(digests) != 1:
        raise SystemExit(f"answer digests differ: {sorted(digests)}")
    split, whole = (counts[f"pooled, fraction {fraction}"] for fraction in ("0.1", "1.0"))
    if split[1] != whole[1]:
        raise SystemExit(f"settled queries depend on the split: {split[1]} vs {whole[1]}")
    if split[0] != whole[0]:
        raise SystemExit(f"dispatches depend on the split: {split[0]} vs {whole[0]}")
    for label in CONFIGURATIONS:
        if label.startswith("pooled") and counts[label][2] > 0:
            raise SystemExit(f"{label}: {counts[label][2]} cross-batch edges; a window is one plan")
    (digest,) = digests
    if args.seed == DEFAULT_SEED and digest != DEFAULT_DIGESTS[WORKLOAD.name].closed:
        raise SystemExit(f"answer digest {digest[:12]} != committed closed-loop digest")
    print(f"all digests equal: {digest[:12]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
