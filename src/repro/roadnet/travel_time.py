"""Time-dependent travel times.

The paper's truths are tagged with a departure time, and candidate routes can
differ in quality by time of day (rush-hour congestion).  This module models a
daily congestion profile per road class and exposes a
:class:`TravelTimeModel` that turns (edge, departure time) into a traversal
time, plus traffic-light waiting penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .compiled import METRIC_TIME, CompiledGraph
from .graph import RoadClass, RoadEdge, RoadNetwork

SECONDS_PER_DAY = 24 * 3600


@dataclass(frozen=True)
class SpeedProfile:
    """A 24-hour congestion multiplier profile.

    ``multiplier(t)`` is the factor by which free-flow travel time is
    inflated at time-of-day ``t`` (in seconds since midnight).  The default
    profile has a morning and an evening rush hour, which is the standard
    double-peak shape of urban traffic.
    """

    morning_peak_hour: float = 8.0
    evening_peak_hour: float = 17.5
    peak_multiplier: float = 1.8
    peak_width_hours: float = 1.5
    base_multiplier: float = 1.0

    def __post_init__(self) -> None:
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ConfigurationError(f"{field.name} must be finite")
        if self.base_multiplier < 0:
            raise ConfigurationError("base_multiplier must be non-negative")
        if self.peak_multiplier < self.base_multiplier:
            raise ConfigurationError("peak_multiplier must be >= base_multiplier")
        if self.peak_width_hours <= 0:
            raise ConfigurationError("peak_width_hours must be positive")

    def multiplier(self, time_of_day_s: float) -> float:
        """Congestion multiplier at ``time_of_day_s`` seconds since midnight."""
        hour = (time_of_day_s % SECONDS_PER_DAY) / 3600.0
        bump = 0.0
        for peak in (self.morning_peak_hour, self.evening_peak_hour):
            distance = min(abs(hour - peak), 24.0 - abs(hour - peak))
            bump = max(bump, math.exp(-0.5 * (distance / self.peak_width_hours) ** 2))
        return self.base_multiplier + (self.peak_multiplier - self.base_multiplier) * bump


DEFAULT_PROFILES: Dict[RoadClass, SpeedProfile] = {
    RoadClass.HIGHWAY: SpeedProfile(peak_multiplier=1.6),
    RoadClass.ARTERIAL: SpeedProfile(peak_multiplier=2.0),
    RoadClass.COLLECTOR: SpeedProfile(peak_multiplier=1.7),
    RoadClass.LOCAL: SpeedProfile(peak_multiplier=1.3),
}

#: Profile of a road class missing from a model's ``profiles``: built and
#: validated once here, not on every travel-time evaluation.
DEFAULT_PROFILE = SpeedProfile()


class TravelTimeModel:
    """Computes time-dependent edge and path travel times.

    Parameters
    ----------
    profiles:
        Per-road-class congestion profiles (defaults to
        :data:`DEFAULT_PROFILES`).
    traffic_light_penalty_s:
        Expected waiting time added for each signalised intersection crossed.
    """

    def __init__(
        self,
        profiles: Optional[Dict[RoadClass, SpeedProfile]] = None,
        traffic_light_penalty_s: float = 25.0,
    ):
        if traffic_light_penalty_s < 0:
            raise ConfigurationError("traffic_light_penalty_s must be non-negative")
        self.profiles = dict(DEFAULT_PROFILES)
        if profiles:
            self.profiles.update(profiles)
        self.traffic_light_penalty_s = traffic_light_penalty_s

    def edge_travel_time(self, edge: RoadEdge, departure_time_s: float = 9 * 3600.0) -> float:
        """Traversal time of ``edge`` in seconds when entered at ``departure_time_s``."""
        profile = self.profiles.get(edge.road_class, DEFAULT_PROFILE)
        return edge.free_flow_travel_time_s * profile.multiplier(departure_time_s)

    def path_travel_time(
        self,
        network: RoadNetwork,
        path: Sequence[int],
        departure_time_s: float = 9 * 3600.0,
    ) -> float:
        """Travel time of a node path, accumulating congestion and light waits.

        The clock advances as the path is traversed, so a long path that
        starts before rush hour can run into it.
        """
        network.validate_path(path)
        clock = departure_time_s
        total = 0.0
        for source, target in zip(path, path[1:]):
            edge = network.edge(source, target)
            traversal = self.edge_travel_time(edge, clock)
            if network.node(target).has_traffic_light:
                traversal += self.traffic_light_penalty_s
            total += traversal
            clock += traversal
        return total

    def cost_vector_at(self, compiled: CompiledGraph, departure_time_s: float) -> List[float]:
        """Per-edge travel times in CSR order, frozen at a departure time.

        The congestion multiplier depends only on (road class, time), so it
        is evaluated once per class present in the graph and applied through
        the compiled per-edge class index, as one numpy multiply over the
        compiled arrays.  Each entry is the same IEEE float64 product as
        :meth:`edge_travel_time`, so the vector is bit-identical to
        ``compiled.cost_vector(self.edge_cost_at(departure_time_s))``.
        """
        multipliers = np.array(
            [
                self.profiles.get(road_class, DEFAULT_PROFILE).multiplier(departure_time_s)
                for road_class in compiled.road_classes
            ],
            dtype=np.float64,
        )
        arrays = compiled.arrays()
        return (arrays[METRIC_TIME] * multipliers[arrays["edge_class"]]).tolist()

    def edge_cost_at(self, departure_time_s: float):
        """Return an edge-cost function (for Dijkstra/A*) frozen at a departure time."""

        def cost(edge: RoadEdge) -> float:
            return self.edge_travel_time(edge, departure_time_s)

        return cost
