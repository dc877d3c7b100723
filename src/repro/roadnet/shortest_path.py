"""Shortest-path algorithms over :class:`~repro.roadnet.graph.RoadNetwork`.

Dijkstra and A* with pluggable edge-cost functions, plus Yen's algorithm for
k-shortest loopless paths.  The web-service route recommenders are built on
these, and the trajectory generator uses perturbed edge costs to create
driver-preferred routes that deviate from the pure shortest path.

All searches run on the network's :class:`~repro.roadnet.compiled.CompiledGraph`
flat-array fast path (CSR adjacency, precomputed metric cost vectors, pooled
search state).  A ``cost`` spec is one of:

* a metric name (``"length"``, ``"time"`` or a name registered with
  :meth:`CompiledGraph.register_metric`), or one of the well-known
  :func:`length_cost` / :func:`free_flow_time_cost` callables — these
  resolve to cost vectors cached on the compiled graph, whose relaxation
  lists are cached too, so metric searches build nothing per call;
* any other ``Callable[[RoadEdge], float]`` — evaluated once per edge per
  call instead of once per relaxation, which in particular lets Yen's spur
  searches share a single evaluation;
* a per-edge cost sequence in CSR order (``compiled.edge_records`` order),
  e.g. :meth:`~repro.roadnet.travel_time.TravelTimeModel.cost_vector_at`.

:func:`dijkstra_path` searches per-call vectors (callables and sequences)
with :meth:`CompiledGraph.dijkstra_vector`, straight over the CSR skeleton,
so no per-call relaxation lists are built; metric searches keep the cached
lists.  Routes are bit-identical to the reference implementations in
:mod:`repro.roadnet.reference` (same relaxation order, same heap
tie-breaking, same floating-point accumulation order).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from ..exceptions import NoPathError, RoadNetworkError
from .compiled import CompiledGraph, METRIC_LENGTH, METRIC_TIME, check_non_negative
from .graph import RoadEdge, RoadNetwork

EdgeCost = Callable[[RoadEdge], float]
CostSpec = Union[EdgeCost, str, Sequence[float]]


def length_cost(edge: RoadEdge) -> float:
    """Edge cost equal to the segment length in metres."""
    return edge.length_m


def free_flow_time_cost(edge: RoadEdge) -> float:
    """Edge cost equal to the free-flow traversal time in seconds."""
    return edge.free_flow_travel_time_s


def _metric_vector(compiled: CompiledGraph, cost: CostSpec) -> Optional[List[float]]:
    """The precompiled vector for a named metric, or ``None`` for callables.

    Any metric registered on the compiled graph with
    :meth:`CompiledGraph.register_metric` (e.g. the transfer network's
    popularity costs) resolves here by name.  Raises for unresolvable metric
    name strings, so every cost-spec consumer shares one dispatch (and one
    error message).
    """
    if cost is length_cost or cost == METRIC_LENGTH:
        return compiled.metric_costs(METRIC_LENGTH)
    if cost is free_flow_time_cost or cost == METRIC_TIME:
        return compiled.metric_costs(METRIC_TIME)
    if isinstance(cost, str):
        return compiled.metric_costs(cost)
    return None


def resolve_cost_vector(compiled: CompiledGraph, cost: CostSpec) -> Tuple[Sequence[float], bool]:
    """Resolve a cost spec to ``(per-edge cost vector in CSR order, is_metric)``.

    The canonical callables and their metric names hit vectors precomputed at
    compile time, and registered metric names hit vectors stored by
    :meth:`CompiledGraph.register_metric` (``is_metric=True`` — known
    non-negative, since built-in metrics are validated positive at
    construction and registered vectors at registration); any other callable
    is evaluated once per edge, and a cost sequence is taken as given after
    a length check.  Per-call vectors must be range-checked by the caller.
    """
    vector = _metric_vector(compiled, cost)
    if vector is not None:
        return vector, True
    if callable(cost):
        return compiled.cost_vector(cost), False
    if len(cost) != compiled.edge_count:
        raise RoadNetworkError(f"cost vector has {len(cost)} costs for {compiled.edge_count} edges")
    return cost, False


def _endpoint_indices(
    network: RoadNetwork, compiled: CompiledGraph, origin: int, destination: int
) -> Tuple[int, int]:
    if not network.has_node(origin):
        raise RoadNetworkError(f"unknown origin node {origin!r}")
    if not network.has_node(destination):
        raise RoadNetworkError(f"unknown destination node {destination!r}")
    return compiled.index_of[origin], compiled.index_of[destination]


def dijkstra_path(
    network: RoadNetwork,
    origin: int,
    destination: int,
    cost: CostSpec = length_cost,
    forbidden_nodes: Optional[set] = None,
    forbidden_edges: Optional[set] = None,
) -> List[int]:
    """Return the minimum-cost node path from ``origin`` to ``destination``.

    ``forbidden_nodes`` and ``forbidden_edges`` support Yen's algorithm and
    "avoid this area" style queries.  Raises :class:`NoPathError` when the
    destination is unreachable.
    """
    compiled = network.compiled()
    source, target = _endpoint_indices(network, compiled, origin, destination)
    if forbidden_nodes and (origin in forbidden_nodes or destination in forbidden_nodes):
        raise NoPathError(origin, destination)
    costs, is_metric = resolve_cost_vector(compiled, cost)
    if not is_metric:
        check_non_negative(costs)

    index_of = compiled.index_of
    blocked_nodes = (
        frozenset(index_of[n] for n in forbidden_nodes if n in index_of)
        if forbidden_nodes
        else None
    )
    blocked_positions = None
    if forbidden_edges:
        edge_pos = compiled.edge_pos
        blocked_positions = frozenset(
            edge_pos[(index_of[a], index_of[b])]
            for a, b in forbidden_edges
            if a in index_of and b in index_of and (index_of[a], index_of[b]) in edge_pos
        )
    if is_metric:
        path = compiled.dijkstra(
            compiled.relaxation_lists(costs), source, target, blocked_nodes, blocked_positions
        )
    else:
        path = compiled.dijkstra_vector(costs, source, target, blocked_nodes, blocked_positions)
    if path is None:
        raise NoPathError(origin, destination)
    node_ids = compiled.node_ids
    return [node_ids[i] for i in path]


def astar_path(
    network: RoadNetwork,
    origin: int,
    destination: int,
    cost: CostSpec = length_cost,
    heuristic_speed_kmh: Optional[float] = None,
) -> List[int]:
    """A* search with a straight-line admissible heuristic.

    With the default length cost the heuristic is the Euclidean distance to
    the destination.  For time costs, pass ``heuristic_speed_kmh`` as the
    fastest speed in the network so the heuristic stays admissible.  The
    heuristic is a per-destination column precomputed on the compiled graph
    (:meth:`CompiledGraph.heuristic_column`), so repeated queries towards
    the same goal pay no heuristic arithmetic after the first.
    """
    compiled = network.compiled()
    source, target = _endpoint_indices(network, compiled, origin, destination)
    if heuristic_speed_kmh is None:
        heuristic_scale = 1.0
    else:
        heuristic_scale = heuristic_speed_kmh / 3.6
        if heuristic_scale <= 0:
            raise RoadNetworkError("heuristic_speed_kmh must be positive")
    costs, _ = resolve_cost_vector(compiled, cost)
    path = compiled.astar(compiled.relaxation_lists(costs), source, target, heuristic_scale)
    if path is None:
        raise NoPathError(origin, destination)
    node_ids = compiled.node_ids
    return [node_ids[i] for i in path]


def path_cost(network: RoadNetwork, path: Sequence[int], cost: CostSpec = length_cost) -> float:
    """Total cost of a node path under ``cost``."""
    network.validate_path(path)
    compiled = network.compiled()
    costs = _metric_vector(compiled, cost)
    if costs is None:
        if callable(cost):
            # One-off callable: evaluating only the path's own edges is
            # cheaper than building a full cost vector.
            return sum(cost(network.edge(a, b)) for a, b in zip(path, path[1:]))
        costs, _ = resolve_cost_vector(compiled, cost)
    index_of = compiled.index_of
    return compiled.path_cost(costs, [index_of[n] for n in path])


def k_shortest_paths(
    network: RoadNetwork,
    origin: int,
    destination: int,
    k: int,
    cost: CostSpec = length_cost,
) -> List[List[int]]:
    """Yen's algorithm: up to ``k`` loopless paths in increasing cost order.

    Used to simulate map services that offer alternative routes, and by the
    trajectory generator to give drivers a menu of plausible routes.  The
    cost vector is resolved once and shared across every spur search, and
    duplicate candidates are rejected with an O(1) set lookup instead of the
    former O(k·|candidates|·|path|) scan.
    """
    if k <= 0:
        return []
    compiled = network.compiled()
    source, target = _endpoint_indices(network, compiled, origin, destination)
    costs, _ = resolve_cost_vector(compiled, cost)
    # Range-checks a per-call vector, unless it was the last one searched.
    adjacency = compiled.relaxation_lists(costs)

    shortest = compiled.dijkstra(adjacency, source, target)
    if shortest is None:
        raise NoPathError(origin, destination)

    edge_pos = compiled.edge_pos
    accepted: List[List[int]] = [shortest]
    # Every path ever pushed as a candidate (still queued or already
    # accepted); candidate paths are compared as tuples, whose ordering under
    # heapq matches the reference's list comparison exactly.
    seen: Set[Tuple[int, ...]] = {tuple(shortest)}
    candidates: List[Tuple[float, Tuple[int, ...]]] = []
    # Lawler's optimisation: spur scans below the index where a path deviated
    # from its generator would recompute searches whose results are already in
    # ``seen`` (the forbidden sets are unchanged there), so each accepted path
    # records its deviation index and scanning resumes from it.
    deviation_index: dict = {tuple(shortest): 0}

    while len(accepted) < k:
        previous = accepted[-1]
        start = deviation_index[tuple(previous)]
        # ``matching`` tracks the accepted paths sharing the current root
        # prefix; narrowing it one node at a time replaces the reference's
        # per-spur O(k·|path|) prefix-slice comparisons.  ``root_nodes``
        # accumulates the interior root nodes forbidden to spur searches.
        matching = [p for p in accepted if p[:start] == previous[:start]]
        root_nodes = set(previous[:start])
        for spur_index in range(start, len(previous) - 1):
            spur_node = previous[spur_index]
            matching = [p for p in matching if len(p) > spur_index and p[spur_index] == spur_node]
            forbidden_positions = frozenset(
                edge_pos[(p[spur_index], p[spur_index + 1])] for p in matching
            )
            spur_path = compiled.dijkstra(
                adjacency,
                spur_node,
                target,
                frozenset(root_nodes) if root_nodes else None,
                forbidden_positions,
            )
            root_nodes.add(spur_node)
            if spur_path is None:
                continue
            total_path = previous[:spur_index] + spur_path
            total_key = tuple(total_path)
            if total_key in seen:
                continue
            seen.add(total_key)
            deviation_index[total_key] = spur_index
            total_cost = compiled.path_cost(costs, total_path)
            heapq.heappush(candidates, (total_cost, total_key))
        if not candidates:
            break
        _, best_candidate = heapq.heappop(candidates)
        accepted.append(list(best_candidate))

    node_ids = compiled.node_ids
    return [[node_ids[i] for i in path] for path in accepted]
