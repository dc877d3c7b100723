"""E7 — Early stopping: answers collected vs. answer quality.

The early-stop component returns the crowd verdict before every assigned
worker has answered, trading a little confidence for lower latency and cost.
This experiment sweeps the early-stop confidence threshold and reports the
mean number of responses actually consumed per task and the quality of the
resulting route, plus the no-early-stop reference (wait for everyone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.aggregation import AnswerAggregator
from ..core.early_stop import EarlyStopMonitor
from ..core.familiarity import FamiliarityModel
from ..core.worker_selection import WorkerSelector
from ..datasets.synthetic_city import Scenario
from ..exceptions import WorkerSelectionError
from ..utils.stats import mean
from .exp_worker_selection import _build_tasks
from .metrics import ExperimentResult, route_quality


@dataclass(frozen=True)
class EarlyStopExperimentConfig:
    """Sweep parameters for E7."""

    num_tasks: int = 15
    workers_per_task: int = 7
    confidence_thresholds: Sequence[float] = (0.6, 0.75, 0.9, 1.01)
    seed: int = 89


def run(scenario: Scenario, config: Optional[EarlyStopExperimentConfig] = None) -> ExperimentResult:
    """Run E7 on a built scenario.

    A threshold above 1.0 disables early stopping (confidence can never reach
    it), providing the wait-for-everyone reference row.
    """
    config = config or EarlyStopExperimentConfig()
    planner_config = scenario.config.planner_config

    familiarity = FamiliarityModel(scenario.worker_pool, scenario.catalog, planner_config)
    familiarity.fit(use_pmf=True)
    selector = WorkerSelector(scenario.worker_pool, familiarity, planner_config)
    tasks = _build_tasks(scenario, config.num_tasks, config.seed)

    result = ExperimentResult(
        experiment_id="E7",
        title="Early stopping: responses consumed vs. answer quality",
        notes={"num_tasks": len(tasks), "workers_per_task": config.workers_per_task},
    )

    for threshold in config.confidence_thresholds:
        # Thresholds > 1 cannot be expressed in PlannerConfig (validated to
        # (0, 1]); build the monitor around a clamped config but keep the
        # unreachable threshold on the monitor itself.
        effective = min(threshold, 1.0)
        sweep_config = planner_config.with_overrides(early_stop_confidence=effective)
        monitor = EarlyStopMonitor(sweep_config)
        disable_early_stop = threshold > 1.0
        aggregator = AnswerAggregator(sweep_config, monitor)

        responses_used: List[float] = []
        qualities: List[float] = []
        stopped_early_count = 0
        for task in tasks:
            try:
                worker_ids = selector.select(task, config.workers_per_task)
            except WorkerSelectionError:
                continue
            block = scenario.crowd.collect_responses_block(task, worker_ids)
            if disable_early_stop:
                outcome = aggregator.aggregate(task, block.materialize())
            else:
                outcome = aggregator.collect_block_with_early_stop(
                    task, block, expected_total=len(worker_ids)
                )
            truth = scenario.ground_truth_path(task.query)
            qualities.append(route_quality(scenario.network, outcome.winning_route.path, truth))
            responses_used.append(float(len(outcome.responses)))
            if outcome.stopped_early:
                stopped_early_count += 1

        result.add_row(
            confidence_threshold=threshold if threshold <= 1.0 else "disabled",
            mean_responses_used=mean(responses_used),
            mean_route_quality=mean(qualities),
            tasks_stopped_early=stopped_early_count,
            tasks_evaluated=len(responses_used),
        )

    return result
