"""Flat-array (CSR) compiled view of a :class:`~repro.roadnet.graph.RoadNetwork`.

Every hot routing path in the system — candidate generation, trajectory
synthesis, Yen's k-shortest search — funnels through Dijkstra/A* over the road
graph.  The original implementations walked ``Dict[Tuple[int, int], RoadEdge]``
lookups and re-evaluated Python cost callbacks per relaxation.  The
:class:`CompiledGraph` replaces that with:

* **CSR adjacency** — ``indptr`` / ``neighbor`` flat arrays in the exact
  insertion order of the network's adjacency lists, so searches relax edges in
  the same order (and therefore break ties identically) as the reference
  implementations in :mod:`repro.roadnet.reference`;
* **named cost metrics** — per-edge ``"length"`` and ``"time"`` cost vectors
  precomputed once at compile time, so the common searches never call back
  into Python per edge, plus a per-edge road-class index from which
  time-dependent travel times are built with one congestion multiplier per
  class (:meth:`~repro.roadnet.travel_time.TravelTimeModel.cost_vector_at`);
* **two Dijkstra entries** — :meth:`CompiledGraph.dijkstra` over cached
  per-node relaxation lists (metric searches), and
  :meth:`CompiledGraph.dijkstra_vector` straight over a per-query cost
  vector, so a one-off vector costs no O(E) list rebuild;
* **a reusable search-state pool** — distance/parent/heuristic scratch arrays
  allocated once per graph and recycled across calls with generation stamps,
  so repeated searches (Yen runs dozens of spur searches per query) do not
  reallocate or clear per-node state.

The compiled view is built lazily by :meth:`RoadNetwork.compiled` and
invalidated automatically when the network mutates (the network bumps its
``version`` counter on every ``add_node`` / ``add_edge``).

The hot loops deliberately use Python lists rather than numpy arrays: scalar
indexing of small lists is several times faster than numpy scalar boxing, and
the searches are scalar by nature.  Vectorized consumers can ask for numpy
mirrors via :meth:`CompiledGraph.arrays`.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..exceptions import RoadNetworkError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .graph import RoadClass, RoadEdge, RoadNetwork

#: Named cost metrics resolvable without a Python callback.
METRIC_LENGTH = "length"
METRIC_TIME = "time"


class _SearchState:
    """Preallocated scratch arrays for one concurrent graph search.

    ``stamp``/``settled`` hold the generation number at which the
    corresponding entry was last written; comparing against the current
    generation makes "clearing" the arrays an O(1) counter increment instead
    of an O(n) fill.
    """

    __slots__ = ("dist", "parent", "stamp", "settled", "generation")

    def __init__(self, size: int):
        self.dist: List[float] = [0.0] * size
        self.parent: List[int] = [-1] * size
        self.stamp: List[int] = [0] * size
        self.settled: List[int] = [0] * size
        self.generation = 0

    def next_generation(self) -> int:
        self.generation += 1
        return self.generation


class _LazyHeuristicColumn:
    """Per-touched-node A* heuristic for a destination's first query.

    Indexable like the precomputed list column but computes (and memoizes)
    each node's value on first access with the exact same ``math.hypot``
    arithmetic, so a search guided by it is bit-identical to one guided by
    the full column — it just never pays for nodes it does not touch.
    """

    __slots__ = ("xs", "ys", "goal_x", "goal_y", "scale", "values")

    def __init__(self, xs, ys, goal_x: float, goal_y: float, scale: float):
        self.xs = xs
        self.ys = ys
        self.goal_x = goal_x
        self.goal_y = goal_y
        self.scale = scale
        self.values: Dict[int, float] = {}

    def __getitem__(self, node: int) -> float:
        value = self.values.get(node)
        if value is None:
            value = math.hypot(self.xs[node] - self.goal_x, self.ys[node] - self.goal_y)
            if self.scale != 1.0:
                value /= self.scale
            self.values[node] = value
        return value


def check_non_negative(costs: Sequence[float]) -> None:
    """Raise unless every cost is non-negative (``inf`` allowed, NaN not)."""
    # ``min`` alone is not enough: a NaN compares false both ways, so
    # whether it hides depends on where it sits.  Any NaN makes the sum NaN
    # (``inf`` stays allowed — it marks an untraversable edge), and with no
    # NaN present ``min`` is exact.
    if len(costs) and (math.isnan(sum(costs)) or min(costs) < 0):
        raise RoadNetworkError("edge costs must be non-negative")


class CompiledGraph:
    """Immutable CSR snapshot of a road network for fast repeated searches."""

    def __init__(self, network: "RoadNetwork"):
        node_ids = network.node_ids()
        self.node_ids: List[int] = node_ids
        self.index_of: Dict[int, int] = {nid: i for i, nid in enumerate(node_ids)}
        self.version = network.version

        n = len(node_ids)
        xs: List[float] = [0.0] * n
        ys: List[float] = [0.0] * n
        indptr: List[int] = [0] * (n + 1)
        neighbor: List[int] = []
        edge_records: List["RoadEdge"] = []
        lengths: List[float] = []
        times: List[float] = []
        edge_class: List[int] = []
        class_index: Dict["RoadClass", int] = {}
        edge_pos: Dict[Tuple[int, int], int] = {}

        index_of = self.index_of
        for i, nid in enumerate(node_ids):
            location = network.node_location(nid)
            xs[i] = location.x
            ys[i] = location.y
            for edge in network.out_edges(nid):
                edge_pos[(i, index_of[edge.target])] = len(neighbor)
                neighbor.append(index_of[edge.target])
                edge_records.append(edge)
                lengths.append(edge.length_m)
                times.append(edge.free_flow_travel_time_s)
                edge_class.append(class_index.setdefault(edge.road_class, len(class_index)))
            indptr[i + 1] = len(neighbor)

        self.xs = xs
        self.ys = ys
        self.indptr = indptr
        self.neighbor = neighbor
        self.edge_records = edge_records
        self.edge_pos = edge_pos
        # Road classes present in the graph (first-seen order) and each
        # edge's index into that list: time-dependent costs evaluate one
        # congestion multiplier per class instead of one per edge.
        self.road_classes: List["RoadClass"] = list(class_index)
        self.edge_class = edge_class
        self._metric_costs: Dict[str, List[float]] = {
            METRIC_LENGTH: lengths,
            METRIC_TIME: times,
        }
        self._metric_tokens: Dict[str, object] = {}
        self._metric_adjacency: Dict[str, List[List[Tuple[float, int, int]]]] = {}
        # The last callable-derived vector and its relaxation lists, keyed by
        # identity (see :meth:`relaxation_lists`).
        self._vector_adjacency: Optional[Tuple[Sequence[float], List[List[Tuple[float, int, int]]]]] = None
        self._arrays: Optional[Dict[str, np.ndarray]] = None
        self._location_index: Optional[Dict[Tuple[float, float], int]] = None
        self._state_pool: List[_SearchState] = []
        # Per-destination A* heuristic columns, LRU-bounded, plus the
        # first-hit probe ledger of the lazy hybrid (see
        # :meth:`heuristic_column`).
        self._heuristic_columns: "OrderedDict[Tuple[int, float], List[float]]" = OrderedDict()
        self._heuristic_probes: "OrderedDict[Tuple[int, float], None]" = OrderedDict()

    # ------------------------------------------------------------- structure
    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return len(self.neighbor)

    def metric_costs(self, metric: str) -> List[float]:
        """The precomputed per-edge cost vector of a named metric."""
        try:
            return self._metric_costs[metric]
        except KeyError:
            raise RoadNetworkError(
                f"unknown cost metric {metric!r}; expected one of "
                f"{sorted(self._metric_costs)}"
            ) from None

    def has_metric(self, metric: str) -> bool:
        """Whether ``metric`` names a built-in or registered cost vector."""
        return metric in self._metric_costs

    def metric_token(self, metric: str) -> Optional[object]:
        """The freshness token a registered metric was stored under.

        Consumers that compile derived cost vectors (e.g. the transfer
        network's popularity costs) record the state of their inputs here and
        compare before reuse, so a stale vector is replaced instead of served.
        Built-in metrics and unknown names return ``None``.
        """
        return self._metric_tokens.get(metric)

    def register_metric(self, metric: str, costs: Sequence[float], token: object = None) -> None:
        """Register (or replace) a named per-edge cost vector in CSR order.

        The vector becomes resolvable everywhere a metric name is accepted
        (``dijkstra_path(..., cost="popularity#1")``) and its relaxation lists
        are cached across searches exactly like the built-in metrics.  Costs
        must be non-negative (``inf`` is allowed — it marks an edge as
        effectively untraversable) and cover every edge.  Re-registering a
        name replaces the vector and drops its cached relaxation lists.
        """
        if metric in (METRIC_LENGTH, METRIC_TIME):
            raise RoadNetworkError(f"cannot replace the built-in metric {metric!r}")
        vector = [float(value) for value in costs]
        if len(vector) != self.edge_count:
            raise RoadNetworkError(
                f"metric {metric!r} has {len(vector)} costs for {self.edge_count} edges"
            )
        for value in vector:
            if math.isnan(value) or value < 0:
                raise RoadNetworkError("edge costs must be non-negative")
        self._metric_costs[metric] = vector
        self._metric_tokens[metric] = token
        self._metric_adjacency.pop(metric, None)

    def cost_vector(self, cost) -> List[float]:
        """Evaluate an edge-cost callable once per edge, in CSR order."""
        return [cost(edge) for edge in self.edge_records]

    def relaxation_lists(self, costs: Sequence[float]) -> List[List[Tuple[float, int, int]]]:
        """Per-node ``(edge_cost, target, csr_pos)`` tuples for a cost vector.

        This is the shape the search inner loops consume: one list indexing
        plus a tuple unpack per relaxation, instead of separate ``indptr`` /
        ``neighbor`` / ``costs`` lookups.  Lists for the named metric vectors
        are built once and cached.  Any other vector is range-checked
        (:func:`check_non_negative`) and built in O(E), and the last such
        vector keeps its lists in a one-slot cache keyed by identity, so a
        caller passing the same cached vector again (a driver's trips) pays
        neither twice.  Such a vector must not be changed in place.
        """
        for metric, vector in self._metric_costs.items():
            if costs is vector:
                cached = self._metric_adjacency.get(metric)
                if cached is None:
                    cached = self._build_relaxation_lists(costs)
                    self._metric_adjacency[metric] = cached
                return cached
        slot = self._vector_adjacency
        if slot is not None and slot[0] is costs:
            return slot[1]
        check_non_negative(costs)
        adjacency = self._build_relaxation_lists(costs)
        self._vector_adjacency = (costs, adjacency)
        return adjacency

    def _build_relaxation_lists(self, costs: Sequence[float]) -> List[List[Tuple[float, int, int]]]:
        indptr, neighbor = self.indptr, self.neighbor
        return [
            [(costs[pos], neighbor[pos], pos) for pos in range(indptr[i], indptr[i + 1])]
            for i in range(self.node_count)
        ]

    def node_index_by_location(self) -> Dict[Tuple[float, float], int]:
        """``(x, y) -> node index`` over the compiled nodes (lazy, cached).

        The truth wire codec (:mod:`repro.serving.protocol`) uses this to
        ship truth endpoints — which are always node locations — as node
        *indices* instead of coordinate pairs.  If two nodes share exact
        coordinates the later one wins, which is harmless: the decoder only
        needs the coordinate values back, not the node identity.
        """
        if self._location_index is None:
            self._location_index = {
                (x, y): i for i, (x, y) in enumerate(zip(self.xs, self.ys))
            }
        return self._location_index

    def arrays(self) -> Dict[str, np.ndarray]:
        """Numpy mirrors of the CSR structure (built lazily, then cached)."""
        if self._arrays is None:
            self._arrays = {
                "indptr": np.asarray(self.indptr, dtype=np.int64),
                "neighbor": np.asarray(self.neighbor, dtype=np.int64),
                "x": np.asarray(self.xs, dtype=np.float64),
                "y": np.asarray(self.ys, dtype=np.float64),
                METRIC_LENGTH: np.asarray(self._metric_costs[METRIC_LENGTH], dtype=np.float64),
                METRIC_TIME: np.asarray(self._metric_costs[METRIC_TIME], dtype=np.float64),
                "edge_class": np.asarray(self.edge_class, dtype=np.intp),
            }
        return self._arrays

    #: Heuristic columns kept per graph; beyond this many (destination,
    #: scale) pairs the least recently used column is dropped.  The
    #: first-hit probe ledger is bounded at four times this.
    HEURISTIC_CACHE_LIMIT = 128

    def heuristic_column(self, destination: int, heuristic_scale: float = 1.0):
        """Per-node straight-line heuristic towards ``destination`` (hybrid).

        Returns something indexable by node: on a destination's *first*
        query a :class:`_LazyHeuristicColumn` that computes
        ``hypot(x - goal_x, y - goal_y) / scale`` per touched node on
        demand; from the *second* query on, the fully precomputed column
        (a plain list), built once and cached LRU-bounded.

        The hybrid keeps both traffic shapes fast: hot destinations
        (production's dominant case) index a ready column with zero
        heuristic arithmetic after their second query, while a one-off
        destination — the common case on huge graphs — never pays the
        whole-graph pass, only its search's touched nodes.

        Values are computed with :func:`math.hypot`, *not* ``np.hypot``: the
        two can disagree in the last ulp, and heuristic ulps change heap
        ordering — both forms must reproduce the reference implementation's
        arithmetic exactly (and therefore each other's) for searches to stay
        bit-identical to it.
        """
        key = (destination, heuristic_scale)
        column = self._heuristic_columns.get(key)
        if column is not None:
            self._heuristic_columns.move_to_end(key)
            return column
        probes = self._heuristic_probes
        if key not in probes:
            # First query for this (destination, scale): note it and serve
            # per-touched-node values.
            probes[key] = None
            if len(probes) > 4 * self.HEURISTIC_CACHE_LIMIT:
                probes.popitem(last=False)
            return _LazyHeuristicColumn(
                self.xs, self.ys, self.xs[destination], self.ys[destination], heuristic_scale
            )
        # Second query: the destination is warm — precompute the column.
        del probes[key]
        hypot = math.hypot
        goal_x, goal_y = self.xs[destination], self.ys[destination]
        if heuristic_scale == 1.0:
            column = [hypot(x - goal_x, y - goal_y) for x, y in zip(self.xs, self.ys)]
        else:
            column = [
                hypot(x - goal_x, y - goal_y) / heuristic_scale
                for x, y in zip(self.xs, self.ys)
            ]
        self._heuristic_columns[key] = column
        if len(self._heuristic_columns) > self.HEURISTIC_CACHE_LIMIT:
            self._heuristic_columns.popitem(last=False)
        return column

    # ------------------------------------------------------------ state pool
    def _acquire_state(self) -> _SearchState:
        if self._state_pool:
            return self._state_pool.pop()
        return _SearchState(self.node_count)

    def _release_state(self, state: _SearchState) -> None:
        self._state_pool.append(state)

    # -------------------------------------------------------------- searches
    def dijkstra(
        self,
        adjacency: List[List[Tuple[float, int, int]]],
        origin: int,
        destination: int,
        forbidden_nodes: Optional[frozenset] = None,
        forbidden_positions: Optional[frozenset] = None,
    ) -> Optional[List[int]]:
        """Dijkstra over node *indices*; ``None`` when unreachable.

        ``adjacency`` comes from :meth:`relaxation_lists`, resolved once per
        top-level query so Yen's spur searches share it.  Edges relax in CSR
        (= adjacency insertion) order with the same ``(cost, push-counter)``
        heap tie-breaking as the reference implementation, so returned paths
        are bit-identical to it.
        """
        state = self._acquire_state()
        try:
            gen = state.next_generation()
            dist, parent, stamp, settled = state.dist, state.parent, state.stamp, state.settled
            heappush, heappop = heapq.heappush, heapq.heappop
            blocked_nodes = forbidden_nodes or ()
            blocked_positions = forbidden_positions or ()
            check_blocked = bool(blocked_nodes) or bool(blocked_positions)

            dist[origin] = 0.0
            parent[origin] = -1
            stamp[origin] = gen
            frontier: List[Tuple[float, int, int]] = [(0.0, 0, origin)]
            counter = 1
            while frontier:
                current_cost, _, current = heappop(frontier)
                if settled[current] == gen:
                    continue
                settled[current] = gen
                if current == destination:
                    return self._reconstruct(state, gen, origin, destination)
                for edge_cost, target, pos in adjacency[current]:
                    if check_blocked and (target in blocked_nodes or pos in blocked_positions):
                        continue
                    candidate = current_cost + edge_cost
                    if stamp[target] != gen or candidate < dist[target]:
                        dist[target] = candidate
                        parent[target] = current
                        stamp[target] = gen
                        heappush(frontier, (candidate, counter, target))
                        counter += 1
            return None
        finally:
            self._release_state(state)

    def dijkstra_vector(
        self,
        costs: Sequence[float],
        origin: int,
        destination: int,
        forbidden_nodes: Optional[frozenset] = None,
        forbidden_positions: Optional[frozenset] = None,
    ) -> Optional[List[int]]:
        """:meth:`dijkstra` over a flat per-edge cost vector in CSR order.

        Reads ``costs[pos]`` through the ``indptr``/``neighbor`` skeleton,
        so a per-query vector (time-dependent travel times) is searched
        without first building relaxation lists for it.  Relaxation order,
        the ``(cost, push-counter)`` tie-break and the accumulation order
        are those of :meth:`dijkstra`, so both return the same path for the
        same costs.  Cached metric vectors are faster on :meth:`dijkstra`,
        whose tuple lists skip two index lookups per relaxation.
        """
        state = self._acquire_state()
        try:
            gen = state.next_generation()
            dist, parent, stamp, settled = state.dist, state.parent, state.stamp, state.settled
            indptr, neighbor = self.indptr, self.neighbor
            heappush, heappop = heapq.heappush, heapq.heappop
            blocked_nodes = forbidden_nodes or ()
            blocked_positions = forbidden_positions or ()
            check_blocked = bool(blocked_nodes) or bool(blocked_positions)

            dist[origin] = 0.0
            parent[origin] = -1
            stamp[origin] = gen
            frontier: List[Tuple[float, int, int]] = [(0.0, 0, origin)]
            counter = 1
            while frontier:
                current_cost, _, current = heappop(frontier)
                if settled[current] == gen:
                    continue
                settled[current] = gen
                if current == destination:
                    return self._reconstruct(state, gen, origin, destination)
                for pos in range(indptr[current], indptr[current + 1]):
                    target = neighbor[pos]
                    if check_blocked and (target in blocked_nodes or pos in blocked_positions):
                        continue
                    candidate = current_cost + costs[pos]
                    if stamp[target] != gen or candidate < dist[target]:
                        dist[target] = candidate
                        parent[target] = current
                        stamp[target] = gen
                        heappush(frontier, (candidate, counter, target))
                        counter += 1
            return None
        finally:
            self._release_state(state)

    def astar(
        self,
        adjacency: List[List[Tuple[float, int, int]]],
        origin: int,
        destination: int,
        heuristic_scale: float = 1.0,
    ) -> Optional[List[int]]:
        """A* over node indices with a straight-line heuristic.

        ``heuristic_scale`` divides the Euclidean distance (1.0 for length
        costs; metres-per-second of the fastest road for time costs).  The
        heuristic comes from the hybrid per-destination
        :meth:`heuristic_column` — identical arithmetic to the reference —
        so a destination's first search computes only its touched nodes and
        every later search towards the same goal indexes a ready
        precomputed column.
        """
        heuristic = self.heuristic_column(destination, heuristic_scale)
        state = self._acquire_state()
        try:
            gen = state.next_generation()
            dist, parent, stamp, settled = state.dist, state.parent, state.stamp, state.settled
            heappush, heappop = heapq.heappush, heapq.heappop

            dist[origin] = 0.0
            parent[origin] = -1
            stamp[origin] = gen
            frontier: List[Tuple[float, int, int]] = [(heuristic[origin], 0, origin)]
            counter = 1
            while frontier:
                _, _, current = heappop(frontier)
                if settled[current] == gen:
                    continue
                settled[current] = gen
                if current == destination:
                    return self._reconstruct(state, gen, origin, destination)
                current_cost = dist[current]
                for edge_cost, target, _pos in adjacency[current]:
                    candidate = current_cost + edge_cost
                    if stamp[target] != gen or candidate < dist[target]:
                        dist[target] = candidate
                        parent[target] = current
                        stamp[target] = gen
                        heappush(frontier, (candidate + heuristic[target], counter, target))
                        counter += 1
            return None
        finally:
            self._release_state(state)

    def path_cost(self, costs: Sequence[float], path: Sequence[int]) -> float:
        """Sequential-sum cost of an index path (same fp order as reference)."""
        edge_pos = self.edge_pos
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += costs[edge_pos[(a, b)]]
        return total

    @staticmethod
    def _reconstruct(state: _SearchState, gen: int, origin: int, destination: int) -> List[int]:
        parent, stamp = state.parent, state.stamp
        path = [destination]
        node = destination
        while node != origin:
            if stamp[node] != gen:  # pragma: no cover - defensive
                raise RoadNetworkError("path reconstruction escaped the search tree")
            node = parent[node]
            path.append(node)
        path.reverse()
        return path
