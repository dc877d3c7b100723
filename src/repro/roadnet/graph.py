"""Road-network graph model.

A :class:`RoadNetwork` is a directed graph whose nodes are road intersections
(with planar coordinates) and whose edges are road segments annotated with
length, road class, speed limit and traffic-light information.  The paper's
routes are "a source, a destination, and a sequence of consecutive road
intersections in-between", i.e. node paths on this graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import RoadNetworkError
from ..spatial import BoundingBox, GridIndex, Point
from .compiled import CompiledGraph


class RoadClass(enum.Enum):
    """Coarse functional road classes with typical free-flow speeds."""

    HIGHWAY = "highway"
    ARTERIAL = "arterial"
    COLLECTOR = "collector"
    LOCAL = "local"

    @property
    def default_speed_kmh(self) -> float:
        return _DEFAULT_SPEEDS[self]


_DEFAULT_SPEEDS = {
    RoadClass.HIGHWAY: 100.0,
    RoadClass.ARTERIAL: 60.0,
    RoadClass.COLLECTOR: 45.0,
    RoadClass.LOCAL: 30.0,
}


@dataclass(frozen=True)
class RoadNode:
    """A road intersection."""

    node_id: int
    location: Point
    has_traffic_light: bool = False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"node {self.node_id} @ ({self.location.x:.0f}, {self.location.y:.0f})"


@dataclass(frozen=True)
class RoadEdge:
    """A directed road segment between two intersections."""

    source: int
    target: int
    length_m: float
    road_class: RoadClass = RoadClass.LOCAL
    speed_limit_kmh: Optional[float] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise RoadNetworkError("edge length must be positive")

    @property
    def key(self) -> Tuple[int, int]:
        return (self.source, self.target)

    @property
    def free_flow_speed_kmh(self) -> float:
        """Speed limit if set, otherwise the road-class default."""
        if self.speed_limit_kmh is not None:
            return self.speed_limit_kmh
        return self.road_class.default_speed_kmh

    @property
    def free_flow_travel_time_s(self) -> float:
        """Traversal time in seconds at free-flow speed."""
        return self.length_m / (self.free_flow_speed_kmh / 3.6)


class RoadNetwork:
    """A directed road graph with spatial lookup of its intersections."""

    def __init__(self, index_cell_size: float = 500.0):
        self._nodes: Dict[int, RoadNode] = {}
        self._edges: Dict[Tuple[int, int], RoadEdge] = {}
        self._adjacency: Dict[int, List[int]] = {}
        self._reverse_adjacency: Dict[int, List[int]] = {}
        self._index: GridIndex[int] = GridIndex(cell_size=index_cell_size)
        self._version = 0
        self._compiled: Optional[CompiledGraph] = None

    # --------------------------------------------------------- compiled view
    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation (nodes or edges)."""
        return self._version

    def compiled(self) -> CompiledGraph:
        """The flat-array (CSR) view of this network, built lazily.

        The compiled view is cached and reused until the network mutates;
        ``add_node`` / ``add_edge`` invalidate it by bumping ``version``.
        """
        if self._compiled is None or self._compiled.version != self._version:
            self._compiled = CompiledGraph(self)
        return self._compiled

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: RoadNode) -> None:
        """Add an intersection; adding an existing id replaces it."""
        self._version += 1
        self._nodes[node.node_id] = node
        self._adjacency.setdefault(node.node_id, [])
        self._reverse_adjacency.setdefault(node.node_id, [])
        self._index.insert(node.node_id, node.location)

    def node(self, node_id: int) -> RoadNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise RoadNetworkError(f"unknown node id {node_id!r}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    def node_location(self, node_id: int) -> Point:
        return self.node(node_id).location

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------ edges
    def add_edge(self, edge: RoadEdge, bidirectional: bool = False) -> None:
        """Add a directed edge; ``bidirectional=True`` also adds the reverse."""
        if edge.source not in self._nodes or edge.target not in self._nodes:
            raise RoadNetworkError(
                f"edge {edge.key} references a node that has not been added"
            )
        if edge.source == edge.target:
            raise RoadNetworkError("self-loop edges are not allowed")
        self._version += 1
        self._edges[edge.key] = edge
        if edge.target not in self._adjacency[edge.source]:
            self._adjacency[edge.source].append(edge.target)
        if edge.source not in self._reverse_adjacency[edge.target]:
            self._reverse_adjacency[edge.target].append(edge.source)
        if bidirectional:
            reverse = RoadEdge(
                source=edge.target,
                target=edge.source,
                length_m=edge.length_m,
                road_class=edge.road_class,
                speed_limit_kmh=edge.speed_limit_kmh,
                name=edge.name,
            )
            self.add_edge(reverse, bidirectional=False)

    def edge(self, source: int, target: int) -> RoadEdge:
        try:
            return self._edges[(source, target)]
        except KeyError:
            raise RoadNetworkError(f"no edge from {source!r} to {target!r}") from None

    def has_edge(self, source: int, target: int) -> bool:
        return (source, target) in self._edges

    def edges(self) -> Iterator[RoadEdge]:
        return iter(self._edges.values())

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, node_id: int) -> List[int]:
        """Outgoing neighbours of ``node_id`` (copy, safe to mutate)."""
        if node_id not in self._adjacency:
            raise RoadNetworkError(f"unknown node id {node_id!r}")
        return list(self._adjacency[node_id])

    def predecessors(self, node_id: int) -> List[int]:
        """Incoming neighbours of ``node_id``."""
        if node_id not in self._reverse_adjacency:
            raise RoadNetworkError(f"unknown node id {node_id!r}")
        return list(self._reverse_adjacency[node_id])

    def out_edges(self, node_id: int) -> List[RoadEdge]:
        return [self._edges[(node_id, target)] for target in self.neighbors(node_id)]

    # ------------------------------------------------------------- geometry
    def bounding_box(self) -> BoundingBox:
        if not self._nodes:
            raise RoadNetworkError("cannot compute the bounding box of an empty network")
        return BoundingBox.from_points(node.location for node in self._nodes.values())

    def nearest_node(self, point: Point, max_radius: Optional[float] = None) -> Optional[int]:
        """Return the id of the intersection closest to ``point``."""
        result = self._index.nearest(point, max_radius=max_radius)
        if result is None:
            return None
        return result[0]

    def nodes_within(self, point: Point, radius: float) -> List[Tuple[int, float]]:
        """Return ``(node_id, distance)`` for intersections within ``radius``."""
        return self._index.within_radius(point, radius)

    # ------------------------------------------------------------------ paths
    def validate_path(self, path: Sequence[int]) -> None:
        """Raise :class:`RoadNetworkError` unless ``path`` is a connected node path."""
        if len(path) < 2:
            raise RoadNetworkError("a path needs at least two nodes")
        for node_id in path:
            if node_id not in self._nodes:
                raise RoadNetworkError(f"path references unknown node {node_id!r}")
        for source, target in zip(path, path[1:]):
            if (source, target) not in self._edges:
                raise RoadNetworkError(f"path uses missing edge ({source!r}, {target!r})")

    def path_length(self, path: Sequence[int]) -> float:
        """Total length of a node path, in metres."""
        self.validate_path(path)
        return sum(self._edges[(a, b)].length_m for a, b in zip(path, path[1:]))

    def path_points(self, path: Sequence[int]) -> List[Point]:
        """Return the intersection coordinates along a node path."""
        self.validate_path(path)
        return [self._nodes[node_id].location for node_id in path]

    def path_traffic_lights(self, path: Sequence[int]) -> int:
        """Number of signalised intersections along a node path."""
        self.validate_path(path)
        return sum(1 for node_id in path if self._nodes[node_id].has_traffic_light)

    # -------------------------------------------------------------- summary
    def describe(self) -> Dict[str, float]:
        """Return a summary of the network size (for logging and reports)."""
        return {
            "nodes": float(self.node_count),
            "edges": float(self.edge_count),
            "total_length_km": sum(edge.length_m for edge in self.edges()) / 1000.0,
        }
