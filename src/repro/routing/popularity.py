"""Transfer network shared by the popular-route miners.

A *transfer network* summarises the historical trajectories as edge traversal
counts and node transition probabilities, following the construction used by
popular-route mining work (Chen et al. [4], Wei et al. [23]).  Both MPR and
MFP operate on it; building it once per trajectory store and reusing it keeps
the miners cheap.

Popularity-guided routing needs the ``-log(P)`` cost of every road edge.  The
original path evaluated :meth:`TransferNetwork.edge_popularity_cost` through a
Python closure once per Dijkstra relaxation; :meth:`compiled_cost_metric`
instead compiles the full per-edge cost vector once and registers it on the
road network's :class:`~repro.roadnet.compiled.CompiledGraph`, keyed by the
transfer network's ``version``, so repeated popularity searches reuse both the
vector and its cached relaxation lists, and any change to the statistics
recompiles the whole vector.  The scalar methods are retained as the oracle
the compiled vector is tested against.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from ..roadnet.graph import RoadNetwork
from ..trajectory.storage import TrajectoryStore

_transfer_uids = itertools.count(1)


class TransferNetwork:
    """Edge traversal statistics extracted from historical trajectories."""

    def __init__(self, network: RoadNetwork, store: TrajectoryStore):
        self.network = network
        self.store = store
        self._uid = next(_transfer_uids)
        self._version = 0
        self._edge_counts: Dict[Tuple[int, int], int] = defaultdict(int)
        self._node_out_counts: Dict[int, int] = defaultdict(int)
        self._node_counts: Dict[int, int] = defaultdict(int)
        self._total_trajectories = 0
        self._build()

    def _build(self) -> None:
        for trajectory_id in self.store.all_ids():
            self._ingest(self.store.matched_path(trajectory_id))

    def _ingest(self, path: Sequence[int]) -> None:
        self._total_trajectories += 1
        for node in path:
            self._node_counts[node] += 1
        for source, target in zip(path, path[1:]):
            self._edge_counts[(source, target)] += 1
            self._node_out_counts[source] += 1

    # --------------------------------------------------------------- updates
    @property
    def version(self) -> int:
        """Monotonic counter bumped whenever the traversal statistics change.

        Compiled popularity cost vectors are cached against this counter, so
        ingesting new history invalidates them automatically.
        """
        return self._version

    def ingest_path(self, path: Sequence[int]) -> None:
        """Fold one additional matched node path into the statistics.

        Lets a live deployment keep the transfer network warm as new
        trajectories arrive, without rebuilding from the whole store.
        """
        self._ingest(path)
        self._version += 1

    def refresh(self) -> None:
        """Rebuild the statistics from the backing store from scratch."""
        self._edge_counts.clear()
        self._node_out_counts.clear()
        self._node_counts.clear()
        self._total_trajectories = 0
        self._build()
        self._version += 1

    # ------------------------------------------------------------------ stats
    @property
    def total_trajectories(self) -> int:
        return self._total_trajectories

    def edge_count(self, source: int, target: int) -> int:
        """Number of historical traversals of the directed edge."""
        return self._edge_counts.get((source, target), 0)

    def node_count(self, node_id: int) -> int:
        """Number of historical trajectories passing the node."""
        return self._node_counts.get(node_id, 0)

    def transition_probability(self, source: int, target: int, smoothing: float = 0.1) -> float:
        """P(next node = target | current node = source) with additive smoothing.

        Smoothing over the node's road-graph out-degree keeps unseen edges at
        a small non-zero probability so popularity search stays connected.
        """
        out_degree = max(1, len(self.network.neighbors(source)))
        numerator = self._edge_counts.get((source, target), 0) + smoothing
        denominator = self._node_out_counts.get(source, 0) + smoothing * out_degree
        if denominator <= 0:
            return 0.0
        return numerator / denominator

    def edge_popularity_cost(self, source: int, target: int, smoothing: float = 0.1) -> float:
        """Negative log transition probability — the cost minimised by MPR."""
        probability = self.transition_probability(source, target, smoothing)
        if probability <= 0:
            return float("inf")
        return -math.log(probability)

    def compiled_cost_metric(self, network: RoadNetwork, smoothing: float = 0.1) -> str:
        """Compile the popularity costs into a metric on the compiled graph.

        Returns the metric name to pass as the ``cost`` of
        :func:`~repro.roadnet.shortest_path.dijkstra_path`.  The per-edge
        vector is computed with :meth:`edge_popularity_cost` (so every entry
        is bit-identical to what the former per-relaxation closure produced)
        and registered once per ``(transfer version, smoothing)`` state; both
        graph mutation (a fresh compiled view) and statistic updates (a new
        ``version``) make the next call recompile it in full.
        """
        compiled = network.compiled()
        # One metric name per transfer network: smoothing lives in the
        # freshness token, so changing it replaces the vector instead of
        # accumulating one entry per (uid, smoothing) pair on the graph.
        metric = f"popularity#{self._uid}"
        token = (self._version, smoothing)
        if compiled.metric_token(metric) == token:
            return metric
        costs = [
            self.edge_popularity_cost(edge.source, edge.target, smoothing)
            for edge in compiled.edge_records
        ]
        compiled.register_metric(metric, costs, token=token)
        return metric

    def coverage(self) -> float:
        """Fraction of road-network edges traversed by at least one trajectory."""
        if self.network.edge_count == 0:
            return 0.0
        return len(self._edge_counts) / self.network.edge_count

    def hottest_edges(self, count: int = 10) -> List[Tuple[Tuple[int, int], int]]:
        """The ``count`` most traversed edges with their counts."""
        ordered = sorted(self._edge_counts.items(), key=lambda item: (-item[1], item[0]))
        return ordered[:count]

