"""End-to-end serving benchmark of the CrowdPlanner recommendation service.

Run one workload from the repository root::

    python3 servebench/run.py --workload cold_city --seed 3 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``servebench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".servebench"

#: (name, unit) of every metric a ``--trace 0`` run prints.
END_TO_END = (
    ("throughput_qps", "queries/s"),
    ("success_rate", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

ROUTE_SOURCES = ("shortest", "fastest", "web_alternatives", "mpr", "ldr", "mfp")

#: (name, unit) of every metric a ``--trace 1`` run prints.
PER_LAYER = (
    ("serving.service.submit.count", "count"),
    ("serving.service.submit.busy_s", "s"),
    ("serving.service.results.count", "count"),
    ("serving.service.results.busy_s", "s"),
    ("serving.service.open_loop.latency_p50_ms", "ms"),
    ("serving.service.open_loop.latency_tail_ms", "ms"),
    ("serving.service.queue_wait.p50_ms", "ms"),
    ("serving.service.queue_wait.max_ms", "ms"),
    ("serving.service.batch.plan_ms", "ms"),
    ("serving.service.batch.execute_ms", "ms"),
    ("serving.service.batch.merge_ms", "ms"),
    ("serving.service.pool.overhead_ms_per_batch", "ms"),
    ("serving.service.generator.lateness_max_ms", "ms"),
    ("serving.service.stats.sheds", "count"),
    ("serving.service.stats.resubmits", "count"),
    ("serving.service.stats.respawns", "count"),
    ("serving.shards.shard_plan.count", "count"),
    ("serving.shards.shard_plan.busy_s", "s"),
    ("serving.shards.split_oversized.count", "count"),
    ("serving.shards.split_oversized.busy_s", "s"),
    ("serving.shards.split.sub_shards", "count"),
    ("serving.shards.split.chain_depth", "count"),
    ("serving.shards.split.largest_fraction", "fraction"),
    ("serving.pipeline.batch_dependencies.count", "count"),
    ("serving.pipeline.batch_dependencies.busy_s", "s"),
    ("serving.pipeline.window.windows", "count"),
    ("serving.pipeline.window.independent_shards", "count"),
    ("serving.pipeline.window.cross_batch_edges", "count"),
    ("serving.pipeline.window.overlapped_dispatches", "count"),
    ("serving.protocol.encode_truth_delta.count", "count"),
    ("serving.protocol.encode_truth_delta.busy_s", "s"),
    ("serving.protocol.encode_truth_delta.wire_bytes", "bytes"),
    ("serving.journal.append.count", "count"),
    ("serving.journal.append.busy_s", "s"),
    ("serving.journal.append.disk_bytes", "bytes"),
    ("serving.journal.append.snapshots", "count"),
    ("core.truth.lookup.count", "count"),
    ("core.truth.lookup.busy_s", "s"),
    ("core.truth.lookup.hit_ratio", "fraction"),
    ("core.truth.record.count", "count"),
    ("core.truth.record.busy_s", "s"),
    ("routing.generate_candidates.count", "count"),
    ("routing.generate_candidates.busy_s", "s"),
    ("routing.generate_candidates.memo_hit_ratio", "fraction"),
    *(
        (f"routing.{source}.recommend_or_none.{stat}", unit)
        for source in ROUTE_SOURCES
        for stat, unit in (("count", "count"), ("busy_s", "s"))
    ),
    ("core.evaluation.evaluate.count", "count"),
    ("core.evaluation.evaluate.busy_s", "s"),
    ("core.evaluation.evaluate.agreement", "count"),
    ("core.evaluation.evaluate.confident", "count"),
    ("core.evaluation.evaluate.needs_crowd", "count"),
    ("core.task_generation.generate.count", "count"),
    ("core.task_generation.generate.busy_s", "s"),
    ("core.task_generation.generate.fallback_ratio", "fraction"),
    ("core.worker_selection.select.count", "count"),
    ("core.worker_selection.select.busy_s", "s"),
    ("crowd.simulator.collect_responses_block.count", "count"),
    ("crowd.simulator.collect_responses_block.busy_s", "s"),
    ("crowd.simulator.collect_responses_block.responses", "count"),
    ("core.aggregation.collect_block_with_early_stop.count", "count"),
    ("core.aggregation.collect_block_with_early_stop.busy_s", "s"),
    ("core.aggregation.collect_block_with_early_stop.used_ratio", "fraction"),
    ("core.aggregation.collect_block_with_early_stop.mean_questions", "count"),
    ("setup.scenario_s", "s"),
    ("setup.familiarity_s", "s"),
    ("setup.fork_s", "s"),
    ("setup.warmup_s", "s"),
    ("mix.truth_reuse", "count"),
    ("mix.single_candidate", "count"),
    ("mix.agreement", "count"),
    ("mix.confident", "count"),
    ("mix.crowd", "count"),
    ("trace.overhead_pct", "%"),
)

#: Span-timed layers whose ``count``/``busy_s`` the traced run reports,
#: and the tracer (service tier or planner stages) that sees them.
SERVICE_SPANS = (
    "serving.service.submit",
    "serving.service.results",
    "serving.shards.shard_plan",
    "serving.shards.split_oversized",
    "serving.pipeline.batch_dependencies",
    "serving.protocol.encode_truth_delta",
    "serving.journal.append",
)
PLANNER_SPANS = (
    "core.truth.lookup",
    "core.truth.record",
    "routing.generate_candidates",
    *(f"routing.{source}.recommend_or_none" for source in ROUTE_SOURCES),
    "core.evaluation.evaluate",
    "core.task_generation.generate",
    "core.worker_selection.select",
    "crowd.simulator.collect_responses_block",
    "core.aggregation.collect_block_with_early_stop",
)


def _import_program():
    """Import the program from ``src``; exit non-zero when it is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"servebench: no program sources under {ROOT / 'src'}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


_import_program()

from repro.serving import RecommendationService  # noqa: E402

from driver import (  # noqa: E402
    best_of_passes_qps,
    clock,
    closed_loop,
    open_loop,
    percentile,
    phase_qps,
    poisson_schedule,
    tail_percentile,
)
from tracing import Tracer, install_planner_layer, install_service_layer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_DIGESTS,
    DEFAULT_SECONDS,
    DEFAULT_SEED,
    PASSES,
    WORKLOADS,
    Digests,
    build_substrate_timed,
    digest_results,
    forked,
    oracle_digests,
)


# -------------------------------------------------------------------- setup
#: How many times a run builds and warms the substrate, each time from the
#: same post-import state; ``setup_s`` takes the median.
SETUPS = 3


class Setup:
    """What a run builds before it serves.

    The substrate is built and warmed ``SETUPS - 1`` times in forked
    children that only time it, then once more in this process, which keeps
    it.  ``ready_s`` is the import time plus the median set-up; each part is
    also kept as its median over the set-ups.
    """

    def __init__(self, workload, seed: int):
        self.import_s = clock() - PROCESS_START
        parts = [forked(lambda: build_and_warm(workload, seed)[1]) for _ in range(SETUPS - 1)]
        self.substrate, own = build_and_warm(workload, seed)
        parts.append(own)
        self.ready_s = self.import_s + statistics.median(sum(part) for part in parts)
        self.scenario_s, self.familiarity_s, self.warmup_s = (statistics.median(column) for column in zip(*parts))


def build_and_warm(workload, seed: int):
    """(substrate, (scenario_s, familiarity_s, warmup_s)): one set-up."""
    substrate, scenario_s, familiarity_s = build_substrate_timed(clock)
    started = clock()
    warm_up(workload, substrate, seed)
    return substrate, (scenario_s, familiarity_s, clock() - started)


def warm_up(workload, substrate, seed: int) -> None:
    """A pass over another seed's traffic through a throwaway inline service.

    It fills the state the routing sources share across planners (the
    compiled graph, metric relaxation lists, heuristic columns) in this
    process, so pool workers forked later inherit it warm.
    """
    planner = substrate.planner()
    with RecommendationService(planner, workload.service_config(planner, backend="inline")) as service:
        for batch in workload.warmup_batches(substrate.scenario.network, seed):
            service.results(service.submit(batch))


def fork_pool(service) -> float:
    """Fork the pooled backend's workers now, so no timed batch pays for it.

    The pool otherwise forks lazily inside the first batch, and the service
    offers no public call that forks without serving queries.
    """
    started = clock()
    ensure_pool = getattr(service.backend, "_ensure_pool", None)
    if ensure_pool is not None:
        ensure_pool()
    return clock() - started


def peak_rss_mb(pids) -> float:
    """Peak resident set (VmHWM) of this process plus the given workers."""
    total_kb = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Session:
    """A service over a fresh planner; ``replay`` serves the same knobs inline."""

    def __init__(self, workload, substrate, replay: bool = False):
        self.planner = substrate.planner()
        overrides = {"backend": "inline"} if replay else {}
        self.journal_dir = None
        if workload.journaled and not replay:
            WORKDIR.mkdir(exist_ok=True)
            self.journal_dir = WORKDIR / f"journal-{os.getpid()}-{id(self)}"
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            overrides["journal_path"] = str(self.journal_dir)
        config = workload.service_config(self.planner, **overrides)
        self.pooled = config.backend == "pooled"
        self.window = 1 if replay else config.pipeline_window
        self.service = RecommendationService(self.planner, config)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.service.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def served_responses(*phases) -> list:
    return [
        response
        for phase in phases
        for record in phase.records
        if record.ok
        for response in record.responses
    ]


def served_results(*phases) -> list:
    return [response.result for response in served_responses(*phases)]


def failed_batches(*phases) -> int:
    return sum(not record.ok for phase in phases for record in phase.records)


# ------------------------------------------------------------- correctness
@dataclass
class Verdict:
    """The digest gate and regime guards applied to one service's batches."""

    label: str
    batches: int
    failed: int
    digest: str
    problems: List[str]


def judge(label: str, phases, expected: str, stats=None, guard=None) -> Verdict:
    batches = sum(len(phase.records) for phase in phases)
    failed = failed_batches(*phases)
    digest = digest_results(served_results(*phases))
    problems = []
    if digest != expected:
        # Any wrong answer poisons every later one (truths feed truths), so
        # a mismatch fails the whole sequence.
        problems.append(f"answer digest {digest[:12]} != oracle {expected[:12]}")
    if guard is not None:
        problems.extend(f"regime guard: {text}" for text in guard(stats, served_responses(*phases)))
    if problems:
        failed = batches
    return Verdict(label, batches, failed, digest, [f"{label}: {text}" for text in problems])


class Outcome:
    """Correctness of a whole run: every judged service must pass."""

    def __init__(self):
        self.verdicts: List[Verdict] = []

    def add(self, verdict: Verdict) -> None:
        self.verdicts.append(verdict)

    @property
    def attempted(self) -> int:
        return sum(verdict.batches for verdict in self.verdicts)

    @property
    def failed(self) -> int:
        return sum(verdict.failed for verdict in self.verdicts)

    @property
    def problems(self) -> List[str]:
        return [problem for verdict in self.verdicts for problem in verdict.problems]

    @property
    def correct(self) -> bool:
        return bool(self.verdicts) and not self.problems and self.failed == 0


def expected_digests(workload, setup: Setup, seed: int, seconds: float, inputs: Inputs) -> Digests:
    committed = DEFAULT_DIGESTS.get(workload.name)
    if committed is not None and seed == DEFAULT_SEED and seconds == DEFAULT_SECONDS:
        return committed
    return oracle_digests(setup.substrate, inputs.head, inputs.opened)


# ---------------------------------------------------------------- sessions
@dataclass
class Inputs:
    """A run's batches in serving order, and the open-loop arrival times."""

    head: list
    opened: list
    due: List[float]


@dataclass
class Report:
    """One service's run.  Answers are judged, then dropped, so it pickles."""

    phases: list
    window: int
    verdict: Verdict
    stats: Dict[str, Any]
    service_s: float
    fork_s: float
    rss_mb: float
    tracer: Optional[Tracer]


def serve_session(
    workload,
    substrate,
    label: str,
    expected: str,
    head,
    opened=(),
    due=None,
    replay: bool = False,
    tracer: Optional[Tracer] = None,
    guard=None,
) -> Report:
    """A new service: ``head`` in a closed loop, then ``opened`` on the
    ``due`` schedule (back to back when ``due`` is None)."""
    started = clock()
    with Session(workload, substrate, replay=replay) as session:
        fork_s = fork_pool(session.service)
        if tracer is not None:
            # Wrap after the fork, so pool workers do not carry the wrappers.
            install_service_layer(tracer, session.service)
            if not session.pooled:
                install_planner_layer(tracer, session.planner)
        first_batch_at = clock()
        try:
            phases = [closed_loop(session.service, head, session.window)]
            if due is not None:
                phases.append(open_loop(session.service, opened, due))
            elif opened:
                phases.append(closed_loop(session.service, opened, session.window))
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_mb = peak_rss_mb(session.service.worker_pids())
        stats = session.service.statistics()
    verdict = judge(label, phases, expected, stats, guard)
    for phase in phases:
        for record in phase.records:
            record.responses = None
    service_s = first_batch_at - started - fork_s
    return Report(phases, session.window, verdict, stats, service_s, fork_s, rss_mb, tracer)


def open_loop_latency(open_phase):
    """p50 and tail latency (ms) of the open-loop batches, and the tail used."""
    latencies = [record.latency_s for record in open_phase.records]
    tail = tail_percentile(len(latencies))
    return {
        "p50_ms": 1000.0 * percentile(latencies, 50),
        "tail_ms": 1000.0 * percentile(latencies, tail),
        "tail_percentile": tail,
        "batches": len(latencies),
    }


# ----------------------------------------------------------------- the runs
def run_untraced(workload, setup: Setup, inputs: Inputs, expected: Digests, outcome: Outcome):
    """The timed run: ``PASSES`` services, each in a forked child that starts
    from the same post-setup state, serve the same closed loop; the last one
    goes on to serve the open loop."""
    passes = []
    for number in range(1, PASSES + 1):
        last = number == PASSES
        passes.append(
            forked(
                lambda: serve_session(
                    workload,
                    setup.substrate,
                    "timed" if last else f"closed pass {number}",
                    expected.all if last else expected.closed,
                    inputs.head,
                    inputs.opened if last else (),
                    inputs.due if last else None,
                    guard=workload.guard,
                )
            )
        )
        outcome.add(passes[-1].verdict)
    # A pass's set-up: imports, the median substrate set-up, then building
    # its service and forking its pool.  Input generation and the oracle,
    # which a serving process would not pay, are left out.
    setups = [setup.ready_s + report.service_s + report.fork_s for report in passes]
    timed = passes[-1]
    return {
        "throughput_qps": best_of_passes_qps([report.phases[0] for report in passes], timed.window),
        "success_rate": 1.0 - outcome.failed / outcome.attempted,
        "peak_rss_mb": timed.rss_mb,
        "setup_s": statistics.median(setups),
    }, {
        "open_loop": open_loop_latency(timed.phases[1]),
        "passes_qps": [phase_qps(report.phases[0]) for report in passes],
        "closed_batches": len(inputs.head),
        "setup": {
            "import_s": setup.import_s,
            "scenario_s": setup.scenario_s,
            "familiarity_s": setup.familiarity_s,
            "warmup_s": setup.warmup_s,
            "service_s": [report.service_s for report in passes],
            "fork_s": [report.fork_s for report in passes],
        },
    }


def _span_metrics(metrics, summary, names) -> None:
    for name in names:
        entry = summary.get(name, {"count": 0, "busy_s": 0.0})
        metrics[f"{name}.count"] = entry["count"]
        metrics[f"{name}.busy_s"] = entry["busy_s"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_traced(workload, setup: Setup, inputs: Inputs, expected: Digests, outcome: Outcome, seed: int):
    """Per-layer metrics from a traced service and the services it is compared with.

    Each service runs in its own forked child, so all start from the same
    post-setup state and none is warmed by another.  The comparisons serve
    the closed loop only.
    """
    substrate, head = setup.substrate, inputs.head
    untraced = forked(lambda: serve_session(workload, substrate, "untraced closed loop", expected.closed, head))
    traced = forked(
        lambda: serve_session(
            workload,
            substrate,
            "traced",
            expected.all,
            head,
            inputs.opened,
            inputs.due,
            tracer=Tracer("pooled" if workload.pooled else "inline"),
            guard=workload.guard,
        )
    )
    reports = [untraced, traced]
    service_tracer = planner_tracer = traced.tracer
    pool_overhead_ms = 0.0
    if workload.pooled:
        # Planner stages run inside forked workers, out of the wrappers'
        # reach: take them from an inline replay of the same batches.
        inline = forked(
            lambda: serve_session(workload, substrate, "inline replay", expected.closed, head, replay=True)
        )
        replay = forked(
            lambda: serve_session(
                workload,
                substrate,
                "traced inline replay",
                expected.all,
                head,
                inputs.opened,
                replay=True,
                tracer=Tracer("inline_replay"),
            )
        )
        reports += [inline, replay]
        planner_tracer = replay.tracer
        pool_overhead_ms = 1000.0 * (untraced.phases[0].elapsed_s - inline.phases[0].elapsed_s) / len(head)
    for report in reports:
        outcome.add(report.verdict)

    WORKDIR.mkdir(exist_ok=True)
    trace_path = WORKDIR / f"trace-{workload.name}-seed{seed}.jsonl"
    trace_path.unlink(missing_ok=True)
    service_tracer.write(trace_path)
    if planner_tracer is not service_tracer:
        planner_tracer.write(trace_path)

    metrics = {}
    service_summary = service_tracer.summary()
    planner_summary = planner_tracer.summary()
    _span_metrics(metrics, service_summary, SERVICE_SPANS)
    _span_metrics(metrics, planner_summary, PLANNER_SPANS)

    stats = traced.stats
    open_phase = traced.phases[1]
    timings = [record.timings for phase in traced.phases for record in phase.records if record.timings]
    waits = [
        max(0.0, (record.done - record.submitted) - record.timings.total_s)
        for record in open_phase.records
        if record.timings
    ] or [0.0]
    latency = open_loop_latency(open_phase)
    metrics["serving.service.open_loop.latency_p50_ms"] = latency["p50_ms"]
    metrics["serving.service.open_loop.latency_tail_ms"] = latency["tail_ms"]
    metrics["serving.service.queue_wait.p50_ms"] = 1000.0 * percentile(waits, 50)
    metrics["serving.service.queue_wait.max_ms"] = 1000.0 * max(waits)
    for stage in ("plan", "execute", "merge"):
        values = [getattr(timing, f"{stage}_s") for timing in timings] or [0.0]
        metrics[f"serving.service.batch.{stage}_ms"] = 1000.0 * statistics.mean(values)
    metrics["serving.service.pool.overhead_ms_per_batch"] = pool_overhead_ms
    metrics["serving.service.generator.lateness_max_ms"] = 1000.0 * max(
        (record.submitted - record.due for record in open_phase.records), default=0.0
    )
    metrics["serving.service.stats.sheds"] = stats["resilience"]["sheds"]
    metrics["serving.service.stats.resubmits"] = stats["supervision"]["resubmitted_shards"]
    metrics["serving.service.stats.respawns"] = stats["supervision"]["respawns"]

    counters = service_tracer.counters
    metrics["serving.shards.split.sub_shards"] = stats["sharding"]["sub_shards_total"]
    metrics["serving.shards.split.chain_depth"] = stats["sharding"]["max_chain_depth"]
    metrics["serving.shards.split.largest_fraction"] = counters["serving.shards.split.largest_fraction"]
    metrics["serving.pipeline.window.windows"] = stats["pipeline"]["windows"]
    for key in ("independent_shards", "cross_batch_edges", "overlapped_dispatches"):
        metrics[f"serving.pipeline.window.{key}"] = stats["pipeline"][key]
    metrics["serving.protocol.encode_truth_delta.wire_bytes"] = counters["serving.protocol.wire_bytes"]
    journal = stats.get("journal", {})
    metrics["serving.journal.append.disk_bytes"] = journal.get("disk_bytes", 0)
    metrics["serving.journal.append.snapshots"] = journal.get("snapshots_written", 0)

    stages = planner_tracer.counters
    lookups = planner_summary.get("core.truth.lookup", {}).get("count", 0)
    metrics["core.truth.lookup.hit_ratio"] = _ratio(stages["core.truth.lookup.hits"], lookups)
    generate = planner_summary.get("routing.generate_candidates", {"count": 0, "childless": 0})
    metrics["routing.generate_candidates.memo_hit_ratio"] = _ratio(generate["childless"], generate["count"])
    for decision in ("agreement", "confident", "needs_crowd"):
        metrics[f"core.evaluation.evaluate.{decision}"] = stages[f"core.evaluation.evaluate.{decision}"]
    metrics["core.task_generation.generate.fallback_ratio"] = _ratio(
        stages["core.task_generation.generate.errors"],
        metrics["core.task_generation.generate.count"],
    )
    metrics["crowd.simulator.collect_responses_block.responses"] = stages["crowd.simulator.responses"]
    metrics["core.aggregation.collect_block_with_early_stop.used_ratio"] = _ratio(
        stages["core.aggregation.used"], stages["core.aggregation.simulated"]
    )
    metrics["core.aggregation.collect_block_with_early_stop.mean_questions"] = _ratio(
        stages["core.aggregation.questions"],
        metrics["core.aggregation.collect_block_with_early_stop.count"],
    )

    metrics["setup.scenario_s"] = setup.scenario_s
    metrics["setup.familiarity_s"] = setup.familiarity_s
    metrics["setup.fork_s"] = traced.fork_s
    metrics["setup.warmup_s"] = setup.warmup_s
    mix = stats["planner"]
    metrics["mix.truth_reuse"] = mix["truth_hits"]
    metrics["mix.single_candidate"] = mix["single_candidate_answers"]
    metrics["mix.agreement"] = mix["agreement_answers"]
    metrics["mix.confident"] = mix["confident_answers"]
    metrics["mix.crowd"] = mix["crowd_tasks"]
    metrics["trace.overhead_pct"] = 100.0 * (
        phase_qps(untraced.phases[0]) / phase_qps(traced.phases[0]) - 1.0
    )

    skipped = sorted(
        name
        for name in (*SERVICE_SPANS, *PLANNER_SPANS)
        if metrics[f"{name}.count"] == 0
    )
    return metrics, {
        "tail_percentile": latency["tail_percentile"],
        "planner_stages_from": planner_tracer.label,
        "not_applicable": skipped,
        "spans": str(trace_path.relative_to(ROOT)),
    }


# --------------------------------------------------------------------- main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--oracle-digest",
        action="store_true",
        help="print the sequential oracle's answer digests for this seed and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    setup = Setup(workload, args.seed)

    head, opened = workload.inputs(setup.substrate.scenario.network, args.seed, args.seconds)
    mean_batch = sum(len(batch) for batch in opened) / len(opened)
    # The arrival trace is fixed per workload; the seed varies the queries.
    due = poisson_schedule(len(opened), workload.rate_qps / mean_batch, f"{workload.name}-arrivals")
    inputs = Inputs(head, opened, due)
    if args.oracle_digest:
        print(json.dumps(dataclasses.asdict(oracle_digests(setup.substrate, head, opened))))
        return 0
    expected = expected_digests(workload, setup, args.seed, args.seconds, inputs)

    outcome = Outcome()
    if args.trace:
        values, notes = run_traced(workload, setup, inputs, expected, outcome, args.seed)
        units = PER_LAYER
    else:
        values, notes = run_untraced(workload, setup, inputs, expected, outcome)
        units = END_TO_END
    notes["digests"] = {verdict.label: verdict.digest for verdict in outcome.verdicts}
    for problem in outcome.problems:
        sys.stderr.write(f"servebench: {problem}\n")
    sys.stderr.write(f"servebench: {json.dumps(notes)}\n")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
