"""Walk through one crowdsourcing task end to end.

Run with::

    python examples/crowd_task_walkthrough.py

The script picks a route request whose candidate routes genuinely disagree,
then shows each stage of the paper's crowd module:

1. the candidate routes and the landmarks they pass;
2. landmark selection (the discriminative, high-significance question set);
3. the ID3 question tree and the expected number of questions;
4. the top-k eligible workers chosen by rated voting;
5. the simulated workers' answers, early stopping, and the final verdict.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.aggregation import AnswerAggregator
from repro.core.familiarity import FamiliarityModel
from repro.core.task_generation import TaskGenerator
from repro.core.worker_selection import WorkerSelector
from repro.datasets import SyntheticCityConfig, build_scenario
from repro.exceptions import TaskGenerationError
from repro.experiments.metrics import route_quality


def main() -> None:
    scenario = build_scenario(SyntheticCityConfig(rows=10, cols=10))
    config = scenario.config.planner_config
    generator = TaskGenerator(scenario.calibrator, scenario.catalog)

    task = None
    for query in scenario.sample_queries(40):
        candidates, seen = [], set()
        for source in scenario.sources:
            candidate = source.recommend_or_none(query)
            if candidate is None or candidate.path in seen:
                continue
            seen.add(candidate.path)
            candidates.append(candidate)
        if len(candidates) < 3:
            continue
        try:
            task = generator.generate(query, candidates)
            break
        except TaskGenerationError:
            continue
    if task is None:
        print("No suitable disagreeing query found; rerun with a different seed.")
        return

    print(f"Request: {task.query.origin} -> {task.query.destination}\n")
    print("Candidate routes:")
    for index, landmark_route in enumerate(task.landmark_routes):
        names = [scenario.catalog.get(lid).name for lid in landmark_route.landmark_sequence[:6]]
        print(
            f"  [{index}] from {landmark_route.source:<16} "
            f"({len(landmark_route.route.path)} intersections) passes: {', '.join(names)}..."
        )

    print("\nSelected question landmarks (discriminative, high significance):")
    for landmark_id in task.selected_landmarks:
        landmark = scenario.catalog.get(landmark_id)
        print(f"  - {landmark.name:<20} significance={landmark.significance:.2f}")
    print(f"\nQuestion tree: depth={task.max_questions()}, expected questions={task.expected_questions():.2f}")
    for landmark_id, question in task.questions.items():
        print(f"  Q[{landmark_id}]: {question.text}")

    familiarity = FamiliarityModel(scenario.worker_pool, scenario.catalog, config)
    familiarity.fit()
    selector = WorkerSelector(scenario.worker_pool, familiarity, config)
    worker_ids = selector.select(task, config.workers_per_task)
    print(f"\nTop-{len(worker_ids)} eligible workers (rated voting): {worker_ids}")

    block = scenario.crowd.collect_responses_block(task, worker_ids)
    aggregator = AnswerAggregator(config)
    result = aggregator.collect_block_with_early_stop(task, block, expected_total=len(worker_ids))
    print("\nWorker responses (arrival order):")
    for response in result.responses:
        answer_text = ", ".join(
            f"{scenario.catalog.get(a.landmark_id).name}={'yes' if a.says_yes else 'no'}"
            for a in response.answers
        )
        print(
            f"  worker {response.worker_id:>3}: votes route [{response.chosen_route_index}] "
            f"after {response.questions_answered} questions ({answer_text})"
        )

    truth = scenario.ground_truth_path(task.query)
    quality = route_quality(scenario.network, result.winning_route.path, truth)
    print(
        f"\nVerdict: route [{result.winning_route_index}] from {result.winning_route.source} "
        f"with confidence {result.confidence:.2f}"
        f"{' (early stop)' if result.stopped_early else ''}; "
        f"overlap with driver-preferred route: {quality:.2f}"
    )


if __name__ == "__main__":
    main()
