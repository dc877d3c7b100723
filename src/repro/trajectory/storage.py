"""In-memory trajectory store with the query shapes popular-route mining needs.

The store keeps each trajectory's matched road-graph node path (computed once
at insert time with a :class:`~repro.roadnet.map_matching.MapMatcher`) and
indexes trajectories by origin/destination proximity; departure-time slots
filter the od matches.  Edge and node traversal counts live in
:class:`~repro.routing.popularity.TransferNetwork`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import TrajectoryError
from ..roadnet.graph import RoadNetwork
from ..roadnet.map_matching import MapMatcher
from ..spatial import GridIndex, Point
from .model import Trajectory


class TrajectoryStore:
    """Holds trajectories plus their map-matched node paths.

    Parameters
    ----------
    network:
        The road network trajectories are matched against.
    matcher:
        Optional custom map matcher; a default one is created otherwise.
    use_source_paths:
        When true (the default), a synthetic trajectory that carries its
        ground-truth ``source_path`` skips map matching.  Set to false to
        force matching (used by the map-matching robustness tests).
    """

    def __init__(
        self,
        network: RoadNetwork,
        matcher: Optional[MapMatcher] = None,
        use_source_paths: bool = True,
    ):
        self.network = network
        self.matcher = matcher or MapMatcher(network)
        self.use_source_paths = use_source_paths
        self._trajectories: Dict[int, Trajectory] = {}
        self._matched_paths: Dict[int, Tuple[int, ...]] = {}
        self._origin_index: GridIndex[int] = GridIndex(cell_size=500.0)
        self._destination_index: GridIndex[int] = GridIndex(cell_size=500.0)
        # find_by_od's last (origin, destination, radius) and its matches:
        # the miners ask for one query's endpoints several times in a row.
        self._last_od: Optional[Tuple[Tuple[Point, Point, float], List[int]]] = None

    def __len__(self) -> int:
        return len(self._trajectories)

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self._trajectories

    # ------------------------------------------------------------------ load
    def add(self, trajectory: Trajectory) -> None:
        """Insert one trajectory, matching it to the road network."""
        if trajectory.trajectory_id in self._trajectories:
            raise TrajectoryError(
                f"trajectory id {trajectory.trajectory_id} already stored"
            )
        if self.use_source_paths and trajectory.source_path:
            path = tuple(trajectory.source_path)
            self.network.validate_path(path)
        else:
            path = tuple(self.matcher.match(trajectory.locations()))
        self._last_od = None
        self._trajectories[trajectory.trajectory_id] = trajectory
        self._matched_paths[trajectory.trajectory_id] = path
        self._origin_index.insert(trajectory.trajectory_id, self.network.node_location(path[0]))
        self._destination_index.insert(
            trajectory.trajectory_id, self.network.node_location(path[-1])
        )

    def add_many(self, trajectories: Iterable[Trajectory]) -> int:
        """Insert many trajectories; returns the number successfully matched."""
        added = 0
        for trajectory in trajectories:
            try:
                self.add(trajectory)
            except TrajectoryError:
                continue
            added += 1
        return added

    # --------------------------------------------------------------- queries
    def get(self, trajectory_id: int) -> Trajectory:
        try:
            return self._trajectories[trajectory_id]
        except KeyError:
            raise TrajectoryError(f"unknown trajectory id {trajectory_id}") from None

    def matched_path(self, trajectory_id: int) -> List[int]:
        """The road-graph node path of a stored trajectory."""
        try:
            return list(self._matched_paths[trajectory_id])
        except KeyError:
            raise TrajectoryError(f"unknown trajectory id {trajectory_id}") from None

    def all_ids(self) -> List[int]:
        return list(self._trajectories)

    def find_by_od(
        self,
        origin: Point,
        destination: Point,
        radius_m: float = 300.0,
        time_slot: Optional[Tuple[float, float]] = None,
    ) -> List[int]:
        """Ids of trajectories starting near ``origin`` and ending near ``destination``.

        ``time_slot`` optionally restricts results to departure times (seconds
        since midnight) within ``[start, end)``.  The matches of the last
        ``(origin, destination, radius_m)`` are kept until the next
        :meth:`add`, and the slot is applied to them.
        """
        key = (origin, destination, radius_m)
        if self._last_od is not None and self._last_od[0] == key:
            matches = self._last_od[1]
        else:
            near_origin = {tid for tid, _ in self._origin_index.within_radius(origin, radius_m)}
            near_destination = {
                tid for tid, _ in self._destination_index.within_radius(destination, radius_m)
            }
            matches = sorted(near_origin & near_destination)
            self._last_od = (key, matches)
        if time_slot is None:
            return list(matches)
        start, end = time_slot
        return [
            tid
            for tid in matches
            if start <= self._trajectories[tid].departure_time_s % (24 * 3600) < end
        ]

    def support_between(self, origin: Point, destination: Point, radius_m: float = 300.0) -> int:
        """Number of historical trajectories connecting the two areas."""
        return len(self.find_by_od(origin, destination, radius_m))

    def paths_between(
        self,
        origin: Point,
        destination: Point,
        radius_m: float = 300.0,
        time_slot: Optional[Tuple[float, float]] = None,
    ) -> List[List[int]]:
        """Matched node paths of trajectories connecting the two areas."""
        return [
            self.matched_path(tid)
            for tid in self.find_by_od(origin, destination, radius_m, time_slot)
        ]
