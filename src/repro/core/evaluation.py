"""Automatic route evaluation (Section II-B1).

Before involving any human, the traditional-recommendation module tries to
settle the request itself:

* **Agreement check** — if the candidate routes agree with each other to a
  high degree (pairwise edge-set similarity above the agreement threshold),
  one of them is declared best outright and stored as truth.
* **Confidence scoring** — otherwise each candidate receives a confidence
  score derived from previously verified truths in the neighbourhood of the
  request: a candidate similar to what the crowd already verified nearby is
  probably right.  If the best confidence clears the threshold ``eta``, the
  system answers automatically; otherwise the request is handed to the crowd
  module.

Once the crowd has verified a winner, the planner grades the collected
answers against it (``CrowdPlanner._update_answer_history``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..config import DEFAULT_CONFIG, PlannerConfig
from ..exceptions import RoutingError
from ..roadnet.graph import RoadNetwork
from ..routing.base import CandidateRoute, RouteQuery
from ..utils.stats import pairs
from .truth import TruthDatabase


class EvaluationDecision(enum.Enum):
    """What the TR module decided to do with a request."""

    AGREEMENT = "agreement"          # candidates agree; answered automatically
    CONFIDENT = "confident"          # a candidate's truth-based confidence clears eta
    NEEDS_CROWD = "needs_crowd"      # hand over to the crowd module


@dataclass(frozen=True)
class EvaluationOutcome:
    """Result of evaluating a candidate set without human input."""

    decision: EvaluationDecision
    best_route: Optional[CandidateRoute]
    confidences: Dict[str, float]
    mean_pairwise_similarity: float


class RouteEvaluator:
    """Implements the TR module's automatic evaluation logic."""

    def __init__(
        self,
        network: RoadNetwork,
        truths: TruthDatabase,
        config: PlannerConfig = DEFAULT_CONFIG,
        neighbourhood_radius_m: float = 1_500.0,
    ):
        if not 0 < neighbourhood_radius_m < math.inf:
            raise RoutingError("neighbourhood_radius_m must be positive and finite")
        self.network = network
        self.truths = truths
        self.config = config
        self.neighbourhood_radius_m = neighbourhood_radius_m

    # ------------------------------------------------------------- agreement
    def mean_pairwise_similarity(self, candidates: Sequence[CandidateRoute]) -> float:
        """Average edge-set Jaccard similarity over all candidate pairs."""
        if len(candidates) < 2:
            return 1.0
        similarities = [a.similarity_to(b) for a, b in pairs(list(candidates))]
        return sum(similarities) / len(similarities)

    def agreement_route(self, candidates: Sequence[CandidateRoute]) -> Optional[CandidateRoute]:
        """The representative route if candidates agree strongly, else ``None``.

        The representative is the candidate with the highest average
        similarity to the others (the "medoid"), preferring higher support on
        ties.
        """
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        if self.mean_pairwise_similarity(candidates) < self.config.agreement_threshold:
            return None
        scored = []
        for candidate in candidates:
            others = [other for other in candidates if other is not candidate]
            mean_similarity = sum(candidate.similarity_to(other) for other in others) / len(others)
            scored.append((mean_similarity, candidate.support, candidate.source, candidate))
        scored.sort(key=lambda item: (-item[0], -item[1], item[2]))
        return scored[0][3]

    # ------------------------------------------------------------ confidence
    def confidence_scores(
        self, query: RouteQuery, candidates: Sequence[CandidateRoute]
    ) -> Dict[str, float]:
        """Truth-based confidence per candidate source.

        The confidence of a candidate is the maximum, over verified truths in
        the request's neighbourhood, of (similarity to the truth x the truth's
        own confidence), decayed by how far the truth's endpoints are from the
        request's endpoints.

        The endpoint distance decay depends only on the truth, so it is
        computed once per truth rather than once per (candidate, truth) pair;
        the per-pair work is then a single Jaccard over the routes' cached
        edge signatures (see :meth:`CandidateRoute.edge_signature`).
        """
        origin = self.network.node_location(query.origin)
        destination = self.network.node_location(query.destination)
        nearby = self.truths.truths_near(origin, destination, self.neighbourhood_radius_m)
        decayed = [
            (
                truth,
                1.0
                / (
                    1.0
                    + (
                        truth.origin.distance_to(origin)
                        + truth.destination.distance_to(destination)
                    )
                    / self.neighbourhood_radius_m
                ),
            )
            for truth in nearby
        ]
        scores: Dict[str, float] = {}
        for candidate in candidates:
            best = 0.0
            for truth, distance_decay in decayed:
                similarity = candidate.similarity_to(truth.route)
                best = max(best, similarity * truth.confidence * distance_decay)
            scores[candidate.source] = best
        return scores

    # ------------------------------------------------------------- interface
    def evaluate(self, query: RouteQuery, candidates: Sequence[CandidateRoute]) -> EvaluationOutcome:
        """Run the full automatic evaluation for a candidate set."""
        if not candidates:
            raise RoutingError("cannot evaluate an empty candidate set")
        mean_similarity = self.mean_pairwise_similarity(candidates)
        agreed = self.agreement_route(candidates)
        if agreed is not None:
            return EvaluationOutcome(
                decision=EvaluationDecision.AGREEMENT,
                best_route=agreed,
                confidences={candidate.source: 1.0 for candidate in candidates},
                mean_pairwise_similarity=mean_similarity,
            )
        confidences = self.confidence_scores(query, candidates)
        best_source, best_confidence = max(
            confidences.items(), key=lambda item: (item[1], item[0])
        )
        if best_confidence >= self.config.confidence_threshold:
            best_route = next(c for c in candidates if c.source == best_source)
            return EvaluationOutcome(
                decision=EvaluationDecision.CONFIDENT,
                best_route=best_route,
                confidences=confidences,
                mean_pairwise_similarity=mean_similarity,
            )
        return EvaluationOutcome(
            decision=EvaluationDecision.NEEDS_CROWD,
            best_route=None,
            confidences=confidences,
            mean_pairwise_similarity=mean_similarity,
        )
