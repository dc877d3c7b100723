"""Synthetic driver and trajectory generation.

The paper's central observation is that the routes experienced drivers take
differ from what shortest/fastest-path services return, because drivers weigh
latent factors (traffic lights, road class, turns, familiarity).  The
generator reproduces that divergence explicitly:

* each :class:`DriverProfile` carries latent preference weights;
* a *population preference cost* combines length, expected time, traffic
  lights, road-class comfort and turn count;
* the route a driver follows between an origin and destination is the one
  minimising their personally perturbed preference cost, chosen from a menu
  of k-shortest alternatives;
* trips are drawn over a set of "hot" od-pairs with Zipf-skewed popularity, so
  some corridors have rich historical support and others are sparse — the
  sparsity regime the paper motivates crowdsourcing with.

The route minimising the *unperturbed* population preference cost is recorded
as the ground-truth driver-preferred route for each od-pair, which the
experiments use as the gold standard when scoring recommendation sources.

Both routes are searched over preference costs compiled into a CSR-order
vector by calling :meth:`~TrajectoryGenerator.preference_cost` once per
edge, so every float is the one the per-edge closure would return: the
population vector is built once per network version, a driver's once per
driver rather than once per trip.  :mod:`repro.trajectory.reference` keeps
the per-search closure formulation as the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, NoPathError
from ..roadnet.graph import RoadClass, RoadEdge, RoadNetwork
from ..roadnet.shortest_path import dijkstra_path, k_shortest_paths
from ..roadnet.travel_time import TravelTimeModel
from ..spatial import Point, Polyline
from ..utils.rng import derive_rng
from .model import GPSPoint, Trajectory
from .noise import GPSNoiseModel

# Comfort multiplier per road class: drivers perceive a metre on a highway as
# "cheaper" than a metre on a local street.
_ROAD_CLASS_COMFORT = {
    RoadClass.HIGHWAY: 0.85,
    RoadClass.ARTERIAL: 0.95,
    RoadClass.COLLECTOR: 1.05,
    RoadClass.LOCAL: 1.2,
}


@dataclass(frozen=True)
class DriverProfile:
    """Latent route preferences of a synthetic driver.

    ``weight_*`` fields are multiplicative perturbations around 1.0 applied to
    the corresponding population-level cost term.
    """

    driver_id: int
    home: Point
    workplace: Point
    weight_length: float = 1.0
    weight_time: float = 1.0
    weight_lights: float = 1.0
    weight_comfort: float = 1.0
    exploration: float = 0.1

    def __post_init__(self) -> None:
        if self.exploration < 0 or self.exploration > 1:
            raise ConfigurationError("exploration must be in [0, 1]")


@dataclass(frozen=True)
class TrajectoryGeneratorConfig:
    """Parameters of the synthetic trajectory workload."""

    num_drivers: int = 60
    num_hot_pairs: int = 40
    trips_per_driver: int = 25
    zipf_exponent: float = 1.1
    min_od_distance_m: float = 1_500.0
    gps_sampling_interval_m: float = 60.0
    route_alternatives: int = 4
    light_penalty_m: float = 120.0
    time_weight: float = 0.4
    seed: int = 13

    def __post_init__(self) -> None:
        if self.num_drivers < 1:
            raise ConfigurationError("num_drivers must be at least 1")
        if self.num_hot_pairs < 1:
            raise ConfigurationError("num_hot_pairs must be at least 1")
        if self.trips_per_driver < 0:
            raise ConfigurationError("trips_per_driver must be non-negative")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be positive")
        if self.route_alternatives < 1:
            raise ConfigurationError("route_alternatives must be at least 1")
        if self.gps_sampling_interval_m <= 0:
            raise ConfigurationError("gps_sampling_interval_m must be positive")


class TrajectoryGenerator:
    """Generates drivers, trips and GPS traces over a road network."""

    def __init__(
        self,
        network: RoadNetwork,
        config: Optional[TrajectoryGeneratorConfig] = None,
        travel_time_model: Optional[TravelTimeModel] = None,
        noise_model: Optional[GPSNoiseModel] = None,
    ):
        self.network = network
        self.config = config or TrajectoryGeneratorConfig()
        self.travel_time_model = travel_time_model or TravelTimeModel()
        self.noise_model = noise_model or GPSNoiseModel()
        self._rng = derive_rng(self.config.seed, "trajectory-generator")
        self._preferred_routes: Dict[Tuple[int, int], List[int]] = {}
        # CSR-order preference cost vectors, valid for one network version:
        # the population's, and the most recent driver's (``generate`` walks
        # drivers in order, so one driver slot is enough).
        self._population_costs: Optional[Tuple[int, List[float]]] = None
        self._driver_costs: Optional[Tuple[int, DriverProfile, List[float]]] = None

    # ------------------------------------------------------------ population
    def generate_drivers(self) -> List[DriverProfile]:
        """Create the synthetic driver population."""
        rng = derive_rng(self.config.seed, "drivers")
        box = self.network.bounding_box()
        drivers: List[DriverProfile] = []
        for driver_id in range(self.config.num_drivers):
            home = Point(rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y))
            workplace = Point(rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y))
            drivers.append(
                DriverProfile(
                    driver_id=driver_id,
                    home=home,
                    workplace=workplace,
                    weight_length=rng.uniform(0.8, 1.2),
                    weight_time=rng.uniform(0.8, 1.2),
                    weight_lights=rng.uniform(0.6, 1.4),
                    weight_comfort=rng.uniform(0.7, 1.3),
                    exploration=rng.uniform(0.0, 0.25),
                )
            )
        return drivers

    def generate_hot_od_pairs(self) -> List[Tuple[int, int]]:
        """Sample the od-pairs that concentrate most of the trips."""
        rng = derive_rng(self.config.seed, "hot-pairs")
        node_ids = self.network.node_ids()
        pairs: List[Tuple[int, int]] = []
        attempts = 0
        while len(pairs) < self.config.num_hot_pairs and attempts < self.config.num_hot_pairs * 200:
            attempts += 1
            origin, destination = rng.sample(node_ids, 2)
            distance = self.network.node_location(origin).distance_to(
                self.network.node_location(destination)
            )
            if distance < self.config.min_od_distance_m:
                continue
            if (origin, destination) in pairs:
                continue
            pairs.append((origin, destination))
        if not pairs:
            raise ConfigurationError(
                "could not sample any od-pair; lower min_od_distance_m or enlarge the network"
            )
        return pairs

    # --------------------------------------------------------------- costing
    def preference_cost(self, edge: RoadEdge, driver: Optional[DriverProfile] = None) -> float:
        """Perceived cost (in metre-equivalents) of an edge.

        Combines length, expected travel time, road-class comfort and an
        expected traffic-light penalty at the edge's target intersection.
        With ``driver`` given, the population weights are perturbed by the
        driver's latent preferences.
        """
        comfort = _ROAD_CLASS_COMFORT[edge.road_class]
        time_s = self.travel_time_model.edge_travel_time(edge)
        light_penalty = (
            self.config.light_penalty_m
            if self.network.node(edge.target).has_traffic_light
            else 0.0
        )
        w_length = w_time = w_lights = w_comfort = 1.0
        if driver is not None:
            w_length = driver.weight_length
            w_time = driver.weight_time
            w_lights = driver.weight_lights
            w_comfort = driver.weight_comfort
        perceived_length = edge.length_m * comfort ** w_comfort * w_length
        perceived_time = self.config.time_weight * time_s * 10.0 * w_time
        return perceived_length + perceived_time + light_penalty * w_lights

    def population_cost_vector(self) -> List[float]:
        """Unperturbed :meth:`preference_cost` of every edge, in CSR order.

        Built once per network version.  A rebuild also drops the per-od
        route memo, whose routes were searched on the old network.
        """
        version = self.network.version
        if self._population_costs is None or self._population_costs[0] != version:
            costs = self.network.compiled().cost_vector(self.preference_cost)
            self._population_costs = (version, costs)
            self._preferred_routes.clear()
        return self._population_costs[1]

    def driver_cost_vector(self, driver: DriverProfile) -> List[float]:
        """``driver``'s perturbed :meth:`preference_cost` of every edge, in
        CSR order: built once per driver (and network version), not once per
        trip."""
        version = self.network.version
        cached = self._driver_costs
        if cached is None or cached[0] != version or cached[1] != driver:
            costs = self.network.compiled().cost_vector(
                lambda edge: self.preference_cost(edge, driver)
            )
            cached = self._driver_costs = (version, driver, costs)
        return cached[2]

    def population_preferred_route(self, origin: int, destination: int) -> List[int]:
        """The route minimising the unperturbed population preference cost.

        This is the ground-truth "best route" experienced drivers would pick,
        searched over :meth:`population_cost_vector` and memoised per
        od-pair.
        """
        costs = self.population_cost_vector()
        key = (origin, destination)
        if key not in self._preferred_routes:
            self._preferred_routes[key] = dijkstra_path(self.network, origin, destination, cost=costs)
        return list(self._preferred_routes[key])

    def driver_route(self, driver: DriverProfile, origin: int, destination: int, rng: random.Random) -> List[int]:
        """The route an individual driver follows for one trip.

        The driver evaluates a small menu of alternatives (k-shortest by their
        personal cost, :meth:`driver_cost_vector`) and usually takes the best
        one, occasionally exploring another alternative.
        """
        alternatives = k_shortest_paths(
            self.network,
            origin,
            destination,
            self.config.route_alternatives,
            cost=self.driver_cost_vector(driver),
        )
        if not alternatives:
            raise NoPathError(origin, destination)
        if len(alternatives) > 1 and rng.random() < driver.exploration:
            return list(rng.choice(alternatives[1:]))
        return list(alternatives[0])

    # ------------------------------------------------------------ generation
    def path_to_trajectory(
        self,
        path: Sequence[int],
        trajectory_id: int,
        driver_id: int,
        departure_time_s: float,
        rng: random.Random,
    ) -> Trajectory:
        """Render a node path into a noisy, timestamped GPS trace."""
        points = self.network.path_points(path)
        polyline = Polyline(points)
        sampled = polyline.resample(self.config.gps_sampling_interval_m)
        noisy = self.noise_model.apply(sampled, rng)
        duration = self.travel_time_model.path_travel_time(self.network, path, departure_time_s)
        count = max(len(noisy) - 1, 1)
        gps_points = [
            GPSPoint(location=point, timestamp=departure_time_s + duration * index / count)
            for index, point in enumerate(noisy)
        ]
        return Trajectory(
            trajectory_id=trajectory_id,
            driver_id=driver_id,
            points=gps_points,
            source_path=tuple(path),
            departure_time_s=departure_time_s,
        )

    def generate(
        self,
        drivers: Optional[Sequence[DriverProfile]] = None,
        hot_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> List[Trajectory]:
        """Generate the full trajectory workload.

        Trips are assigned to hot od-pairs with Zipf-skewed popularity and to
        drivers uniformly; departure times mix morning and evening peaks with
        off-peak trips.
        """
        drivers = list(drivers) if drivers is not None else self.generate_drivers()
        hot_pairs = list(hot_pairs) if hot_pairs is not None else self.generate_hot_od_pairs()
        rng = self._rng
        weights = [1.0 / (rank + 1) ** self.config.zipf_exponent for rank in range(len(hot_pairs))]
        total_weight = sum(weights)
        probabilities = [weight / total_weight for weight in weights]

        trajectories: List[Trajectory] = []
        trajectory_id = 0
        for driver in drivers:
            for _ in range(self.config.trips_per_driver):
                pair_index = rng.choices(range(len(hot_pairs)), weights=probabilities, k=1)[0]
                origin, destination = hot_pairs[pair_index]
                departure = self._sample_departure_time(rng)
                try:
                    path = self.driver_route(driver, origin, destination, rng)
                except NoPathError:
                    continue
                trajectories.append(
                    self.path_to_trajectory(path, trajectory_id, driver.driver_id, departure, rng)
                )
                trajectory_id += 1
        return trajectories

    @staticmethod
    def _sample_departure_time(rng: random.Random) -> float:
        """Departure time of day: 40% morning peak, 40% evening peak, 20% off-peak."""
        roll = rng.random()
        if roll < 0.4:
            return rng.gauss(8.0, 0.75) * 3600.0 % (24 * 3600)
        if roll < 0.8:
            return rng.gauss(17.5, 0.75) * 3600.0 % (24 * 3600)
        return rng.uniform(6.0, 22.0) * 3600.0
