"""Aggregation of worker responses into a task result.

The crowd path hands the aggregator a :class:`~repro.core.task.ResponseBlock`,
whose votes :meth:`AnswerAggregator.collect_block_with_early_stop` tallies
straight off the ``chosen_route_index`` column; its oracle, the original
re-tallying collector, is :func:`repro.core.reference.collect_with_early_stop`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Sequence

from ..config import DEFAULT_CONFIG, PlannerConfig
from ..exceptions import TaskGenerationError
from .early_stop import EarlyStopMonitor
from .task import ResponseBlock, Task, TaskResult, WorkerResponse


class AnswerAggregator:
    """Counts votes over candidate routes and builds the final task result.

    Each worker's traversal of the question tree resolves to exactly one
    candidate route; aggregation is majority voting over those resolutions,
    with ties broken by historical support and then by source name, so the
    outcome is deterministic.
    """

    def __init__(self, config: PlannerConfig = DEFAULT_CONFIG, early_stop: Optional[EarlyStopMonitor] = None):
        self.config = config
        self.early_stop = early_stop or EarlyStopMonitor(config)

    def tally(self, responses: Sequence[WorkerResponse]) -> Dict[int, int]:
        """Votes per candidate-route index."""
        votes: Dict[int, int] = defaultdict(int)
        for response in responses:
            votes[response.chosen_route_index] += 1
        return dict(votes)

    def winning_index(self, task: Task, votes: Dict[int, int]) -> int:
        """The winning route index under majority voting with deterministic ties."""
        if not votes:
            raise TaskGenerationError("cannot determine a winner without any response")

        def sort_key(index: int):
            route = task.candidate_routes[index]
            return (-votes.get(index, 0), -route.support, route.source, index)

        return sorted(votes, key=sort_key)[0]

    def aggregate(
        self,
        task: Task,
        responses: Sequence[WorkerResponse],
        expected_total: Optional[int] = None,
        stopped_early: bool = False,
    ) -> TaskResult:
        """Build the :class:`TaskResult` for the collected responses."""
        if not responses:
            raise TaskGenerationError("cannot aggregate an empty response set")
        votes = self.tally(responses)
        winner = self.winning_index(task, votes)
        confidence = self.early_stop.confidence(votes)
        return TaskResult(
            task=task,
            responses=list(responses),
            votes=votes,
            winning_route_index=winner,
            confidence=confidence,
            stopped_early=stopped_early,
        )

    def collect_block_with_early_stop(
        self,
        task: Task,
        block: ResponseBlock,
        expected_total: Optional[int] = None,
    ) -> TaskResult:
        """Count the block's votes in arrival order, stopping as soon as the
        early-stop rule allows; ``expected_total`` defaults to ``len(block)``.

        Only the collected arrival prefix is materialized, and the
        :class:`TaskResult` is built by :meth:`aggregate` on it.
        """
        total = len(block)
        if total == 0:
            raise TaskGenerationError("cannot aggregate an empty response set")
        expected = expected_total if expected_total is not None else total
        # .tolist() once: Python ints keep the votes dict (and everything
        # derived from it) free of numpy scalar types.
        chosen = block.chosen_route_index.tolist()
        votes: Dict[int, int] = {}
        collected = 0
        stopped = False
        for index in chosen:
            votes[index] = votes.get(index, 0) + 1
            collected += 1
            if self.early_stop.evaluate(votes, expected).should_stop:
                stopped = collected < total
                break
        return self.aggregate(
            task, block.materialize(collected), expected, stopped_early=stopped
        )
