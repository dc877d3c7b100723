"""Spans around each layer's public calls, recorded from outside the program.

The traced run wraps calls at runtime: instance attributes shadow a bound
method (``planner.truths.lookup``), and helpers that
``repro.serving.service`` imports by name are swapped in that module's
namespace.  Spans (name, start, end, parent, batch) stay in memory and are
written out at exit.  A span's *self* time is its duration minus the time
its direct child spans cover, so per-layer ``busy_s`` figures add up without
double counting.

Wrapping from the parent process cannot see into forked pool workers, so
planner-stage wrappers are installed only on in-process planners (the inline
backend, or the inline replay of a pooled workload).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import repro.serving.journal as journal_module
import repro.serving.service as service_module

clock = time.perf_counter


class Tracer:
    """In-memory span recorder with per-span-name counters."""

    def __init__(self, label: str):
        self.label = label
        # [name, start, end, parent index or -1, batch id]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.batch: Optional[int] = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------- wrapping
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        batch_of: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if batch_of is not None:
                self.batch = batch_of(args)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.batch])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        self._undo.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------- summaries
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``busy_s`` (self time), ``childless``."""
        child_time = [0.0] * len(self.spans)
        child_count = [0] * len(self.spans)
        for _name, start, end, parent, _batch in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_count[parent] += 1
        stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "busy_s": 0.0, "childless": 0}
        )
        for index, (name, start, end, _parent, _batch) in enumerate(self.spans):
            entry = stats[name]
            entry["count"] += 1
            entry["busy_s"] += (end - start) - child_time[index]
            entry["childless"] += child_count[index] == 0
        return stats

    def write(self, path) -> None:
        with open(path, "a") as sink:
            for name, start, end, parent, batch in self.spans:
                sink.write(
                    json.dumps(
                        {
                            "source": self.label,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "batch": batch,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------- observers
def _count_lookup_hit(tracer: Tracer, _args, truth) -> None:
    tracer.counters["core.truth.lookup.hits"] += truth is not None


def _count_decision(tracer: Tracer, _args, outcome) -> None:
    tracer.counters["core.evaluation.evaluate." + outcome.decision.value] += 1


def _count_responses(tracer: Tracer, _args, block) -> None:
    if block is not None:
        tracer.counters["crowd.simulator.responses"] += len(block)


def _count_aggregation(tracer: Tracer, args, result) -> None:
    tracer.counters["core.aggregation.used"] += len(result.responses)
    tracer.counters["core.aggregation.simulated"] += len(args[1])
    tracer.counters["core.aggregation.questions"] += result.total_questions_asked


def _count_wire_bytes(tracer: Tracer, _args, block) -> None:
    wire_bytes = getattr(block, "wire_bytes", None)
    if wire_bytes is not None:
        tracer.counters["serving.protocol.wire_bytes"] += wire_bytes()


def _note_split(tracer: Tracer, _args, plan) -> None:
    key = "serving.shards.split.largest_fraction"
    tracer.counters[key] = max(tracer.counters[key], plan.largest_shard_fraction())


def _ticket_id(args) -> int:
    ticket = args[0]
    return getattr(ticket, "ticket_id", ticket)


# ------------------------------------------------------------- installation
def install_service_layer(tracer: Tracer, service) -> None:
    """Spans around the serving tier's public calls (parent process only)."""
    tracer.wrap(service, "submit", "serving.service.submit")
    tracer.wrap(service, "results", "serving.service.results", batch_of=_ticket_id)
    tracer.wrap(service.planner, "shard_plan", "serving.shards.shard_plan")
    tracer.wrap(service_module, "split_oversized", "serving.shards.split_oversized", _note_split)
    tracer.wrap(service_module, "batch_dependencies", "serving.pipeline.batch_dependencies")
    for module in (service_module, journal_module):
        tracer.wrap(
            module, "encode_truth_delta", "serving.protocol.encode_truth_delta", _count_wire_bytes
        )
    if service.journal is not None:
        tracer.wrap(service.journal, "append", "serving.journal.append")


def install_planner_layer(tracer: Tracer, planner) -> None:
    """Spans around every planner stage of an in-process planner."""
    tracer.wrap(planner.truths, "lookup", "core.truth.lookup", _count_lookup_hit)
    tracer.wrap(planner.truths, "record", "core.truth.record")
    tracer.wrap(planner, "generate_candidates", "routing.generate_candidates")
    for source in planner.sources:
        name = f"routing.{source.name.lower()}.recommend_or_none"
        tracer.wrap(source, "recommend_or_none", name)
    tracer.wrap(planner.evaluator, "evaluate", "core.evaluation.evaluate", _count_decision)
    tracer.wrap(planner.task_generator, "generate", "core.task_generation.generate")
    tracer.wrap(planner.worker_selector, "select", "core.worker_selection.select")
    tracer.wrap(
        planner.crowd_backend,
        "collect_responses_block",
        "crowd.simulator.collect_responses_block",
        _count_responses,
    )
    tracer.wrap(
        planner.aggregator,
        "collect_block_with_early_stop",
        "core.aggregation.collect_block_with_early_stop",
        _count_aggregation,
    )
