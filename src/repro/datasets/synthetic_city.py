"""One-call construction of a complete CrowdPlanner scenario.

A :class:`Scenario` bundles everything an experiment needs:

* a synthetic city road network;
* a landmark catalogue with significance inferred from simulated check-ins
  and taxi visits;
* a historical trajectory store produced by preference-driven drivers;
* candidate-route sources (shortest, fastest, MPR, LDR, MFP);
* a worker pool and a simulated crowd whose knowledge mirrors the city;
* the ground-truth driver-preferred route per od-pair, used both by the crowd
  simulation and by the experiment metrics.

Experiments and examples should go through :func:`build_scenario` so every
run is reproducible from a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, PlannerConfig
from ..core.planner import CrowdPlanner
from ..core.worker import WorkerPool
from ..crowd.behavior import AnswerBehaviorModel
from ..crowd.population import WorkerPopulationConfig, generate_worker_pool
from ..crowd.simulator import SimulatedCrowd
from ..exceptions import ConfigurationError, NoPathError
from ..landmarks.checkins import CheckInSimulator, CheckInSimulatorConfig
from ..landmarks.generator import LandmarkGeneratorConfig, generate_landmarks
from ..landmarks.model import LandmarkCatalog
from ..landmarks.significance import infer_significance
from ..roadnet.generators import GridCityConfig, generate_grid_city
from ..roadnet.graph import RoadNetwork
from ..roadnet.travel_time import TravelTimeModel
from ..routing.base import RouteQuery, RouteSource
from ..routing.ldr import LocalDriverRouteMiner
from ..routing.mfp import MostFrequentPathMiner
from ..routing.mpr import MostPopularRouteMiner
from ..routing.web_service import (
    AlternativeAwareService,
    FastestRouteService,
    ShortestRouteService,
)
from ..trajectory.calibration import AnchorCalibrator
from ..trajectory.generator import TrajectoryGenerator, TrajectoryGeneratorConfig
from ..trajectory.storage import TrajectoryStore
from ..utils.rng import derive_rng


@dataclass(frozen=True)
class SyntheticCityConfig:
    """Knobs of the end-to-end scenario (kept deliberately small for tests)."""

    rows: int = 14
    cols: int = 14
    block_size_m: float = 220.0
    num_landmarks: int = 150
    num_drivers: int = 50
    trips_per_driver: int = 20
    num_hot_pairs: int = 30
    num_workers: int = 60
    min_support: int = 3
    seed: int = 7
    planner_config: PlannerConfig = DEFAULT_CONFIG

    def __post_init__(self) -> None:
        if self.rows < 4 or self.cols < 4:
            raise ConfigurationError("the scenario city needs at least 4x4 intersections")


@dataclass
class Scenario:
    """A fully built synthetic CrowdPlanner deployment.

    Ground truth (:meth:`ground_truth_path`, and the simulated crowd's
    answers) is ``trajectory_generator.population_preferred_route``: the
    route minimising the unperturbed population preference cost, searched
    over one CSR-order vector of
    :meth:`~repro.trajectory.generator.TrajectoryGenerator.preference_cost`
    values that the generator builds once per network version.
    """

    config: SyntheticCityConfig
    network: RoadNetwork
    catalog: LandmarkCatalog
    calibrator: AnchorCalibrator
    store: TrajectoryStore
    sources: List[RouteSource]
    worker_pool: WorkerPool
    crowd: SimulatedCrowd
    trajectory_generator: TrajectoryGenerator
    travel_time_model: TravelTimeModel
    hot_pairs: List[Tuple[int, int]]

    # -------------------------------------------------------------- truths
    def ground_truth_path(self, query: RouteQuery) -> List[int]:
        """The driver-preferred (population consensus) route for a query."""
        return self.trajectory_generator.population_preferred_route(query.origin, query.destination)

    # ------------------------------------------------------------- planner
    def build_planner(
        self,
        config: Optional[PlannerConfig] = None,
        prepare_workers: bool = True,
        use_pmf: bool = True,
    ) -> CrowdPlanner:
        """Assemble a :class:`CrowdPlanner` over this scenario."""
        planner_config = config or self.config.planner_config
        planner = CrowdPlanner(
            network=self.network,
            catalog=self.catalog,
            calibrator=self.calibrator,
            sources=self.sources,
            worker_pool=self.worker_pool,
            crowd_backend=self.crowd,
            config=planner_config,
        )
        if prepare_workers:
            planner.prepare_workers(use_pmf=use_pmf)
        return planner

    # ------------------------------------------------------------- queries
    def sample_queries(
        self,
        count: int,
        prefer_hot_pairs: bool = True,
        departure_time_s: float = 8.5 * 3600.0,
        seed: Optional[int] = None,
    ) -> List[RouteQuery]:
        """Sample route-recommendation requests.

        With ``prefer_hot_pairs`` most requests reuse the historical od-pairs
        (where mining has support) and the rest are fresh od-pairs (where it
        does not) — the mix of regimes the paper's system is designed around.
        """
        rng = derive_rng(seed if seed is not None else self.config.seed, "queries")
        node_ids = self.network.node_ids()
        queries: List[RouteQuery] = []
        attempts = 0
        while len(queries) < count and attempts < count * 50 + 100:
            attempts += 1
            if prefer_hot_pairs and self.hot_pairs and rng.random() < 0.7:
                origin, destination = rng.choice(self.hot_pairs)
            else:
                origin, destination = rng.sample(node_ids, 2)
            distance = self.network.node_location(origin).distance_to(
                self.network.node_location(destination)
            )
            if distance < 4 * self.config.block_size_m:
                continue
            try:
                self.ground_truth_path(RouteQuery(origin, destination))
            except NoPathError:
                continue
            queries.append(
                RouteQuery(
                    origin=origin,
                    destination=destination,
                    departure_time_s=departure_time_s,
                )
            )
        return queries


def build_scenario(config: Optional[SyntheticCityConfig] = None) -> Scenario:
    """Build the full synthetic scenario from one configuration object."""
    config = config or SyntheticCityConfig()

    network = generate_grid_city(
        GridCityConfig(
            rows=config.rows,
            cols=config.cols,
            block_size_m=config.block_size_m,
            seed=config.seed,
        )
    )
    travel_time_model = TravelTimeModel()

    # Landmarks and significance (check-ins + taxi visits).
    catalog = generate_landmarks(
        network, LandmarkGeneratorConfig(count=config.num_landmarks, seed=config.seed + 1)
    )
    calibrator = AnchorCalibrator(network, catalog.all())

    trajectory_generator = TrajectoryGenerator(
        network,
        TrajectoryGeneratorConfig(
            num_drivers=config.num_drivers,
            trips_per_driver=config.trips_per_driver,
            num_hot_pairs=config.num_hot_pairs,
            seed=config.seed + 2,
        ),
        travel_time_model=travel_time_model,
    )
    drivers = trajectory_generator.generate_drivers()
    hot_pairs = trajectory_generator.generate_hot_od_pairs()
    trajectories = trajectory_generator.generate(drivers, hot_pairs)

    store = TrajectoryStore(network)
    store.add_many(trajectories)

    checkin_simulator = CheckInSimulator(
        catalog,
        network.bounding_box(),
        CheckInSimulatorConfig(seed=config.seed + 3),
    )
    checkins = checkin_simulator.generate()
    taxi_visits: Dict[int, List[int]] = {}
    for trajectory in trajectories:
        landmark_ids = calibrator.calibrate_path(list(trajectory.source_path))
        taxi_visits.setdefault(trajectory.driver_id, []).extend(landmark_ids)
    catalog = infer_significance(catalog, checkins, taxi_visits)
    # Rebuild the calibrator against the catalogue with significance scores so
    # downstream components share one landmark view.
    calibrator = AnchorCalibrator(network, catalog.all())

    sources: List[RouteSource] = [
        ShortestRouteService(network),
        FastestRouteService(network, travel_time_model),
        AlternativeAwareService(network, travel_time_model),
        MostPopularRouteMiner(network, store, min_support=config.min_support),
        LocalDriverRouteMiner(network, store, min_support=max(1, config.min_support - 1)),
        MostFrequentPathMiner(network, store, min_support=config.min_support),
    ]

    worker_pool = generate_worker_pool(
        network,
        WorkerPopulationConfig(num_workers=config.num_workers, seed=config.seed + 4),
    )

    def ground_truth(query: RouteQuery) -> List[int]:
        return trajectory_generator.population_preferred_route(query.origin, query.destination)

    crowd = SimulatedCrowd(
        pool=worker_pool,
        catalog=catalog,
        calibrator=calibrator,
        ground_truth=ground_truth,
        behavior=AnswerBehaviorModel(),
        seed=config.seed + 5,
    )

    return Scenario(
        config=config,
        network=network,
        catalog=catalog,
        calibrator=calibrator,
        store=store,
        sources=sources,
        worker_pool=worker_pool,
        crowd=crowd,
        trajectory_generator=trajectory_generator,
        travel_time_model=travel_time_model,
        hot_pairs=list(hot_pairs),
    )
