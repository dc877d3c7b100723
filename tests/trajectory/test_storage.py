"""Tests for repro.trajectory.storage."""

import pytest

from repro.exceptions import TrajectoryError
from repro.spatial import Point
from repro.trajectory.generator import TrajectoryGenerator, TrajectoryGeneratorConfig
from repro.trajectory.model import GPSPoint, Trajectory
from repro.trajectory.storage import TrajectoryStore


@pytest.fixture(scope="module")
def populated_store(small_network):
    generator = TrajectoryGenerator(
        small_network,
        TrajectoryGeneratorConfig(num_drivers=6, num_hot_pairs=5, trips_per_driver=4, seed=33),
    )
    trajectories = generator.generate()
    store = TrajectoryStore(small_network)
    store.add_many(trajectories)
    return store, trajectories


class TestInsertion:
    def test_add_many_counts(self, populated_store):
        store, trajectories = populated_store
        assert len(store) == len(trajectories)

    def test_duplicate_id_rejected(self, populated_store, small_network):
        store, trajectories = populated_store
        with pytest.raises(TrajectoryError):
            store.add(trajectories[0])

    def test_unknown_id_raises(self, populated_store):
        store, _ = populated_store
        with pytest.raises(TrajectoryError):
            store.get(10_000)
        with pytest.raises(TrajectoryError):
            store.matched_path(10_000)

    def test_matched_path_is_source_path_when_available(self, populated_store):
        store, trajectories = populated_store
        sample = trajectories[0]
        assert store.matched_path(sample.trajectory_id) == list(sample.source_path)

    def test_map_matching_fallback_when_no_source_path(self, small_network):
        store = TrajectoryStore(small_network, use_source_paths=False)
        start = small_network.node_location(0)
        end = small_network.node_location(small_network.node_count - 1)
        trajectory = Trajectory(
            trajectory_id=1,
            driver_id=1,
            points=[GPSPoint(start, 0.0), GPSPoint(start.midpoint(end), 60.0), GPSPoint(end, 120.0)],
        )
        store.add(trajectory)
        path = store.matched_path(1)
        small_network.validate_path(path)


class TestQueries:
    def test_find_by_od_returns_matching_trajectories(self, populated_store, small_network):
        store, trajectories = populated_store
        sample = trajectories[0]
        path = list(sample.source_path)
        origin = small_network.node_location(path[0])
        destination = small_network.node_location(path[-1])
        found = store.find_by_od(origin, destination, radius_m=150.0)
        assert sample.trajectory_id in found

    def test_find_by_od_time_slot_filter(self, populated_store, small_network):
        store, trajectories = populated_store
        sample = trajectories[0]
        path = list(sample.source_path)
        origin = small_network.node_location(path[0])
        destination = small_network.node_location(path[-1])
        departure = sample.departure_time_s % (24 * 3600)
        inside = store.find_by_od(origin, destination, 150.0, time_slot=(departure - 1, departure + 1))
        outside = store.find_by_od(
            origin, destination, 150.0, time_slot=((departure + 6 * 3600) % 86400, (departure + 6 * 3600) % 86400 + 1)
        )
        assert sample.trajectory_id in inside
        assert sample.trajectory_id not in outside

    def test_support_between_matches_find_by_od(self, populated_store, small_network):
        store, trajectories = populated_store
        sample = trajectories[0]
        path = list(sample.source_path)
        origin = small_network.node_location(path[0])
        destination = small_network.node_location(path[-1])
        assert store.support_between(origin, destination, 150.0) == len(
            store.find_by_od(origin, destination, 150.0)
        )

    def test_paths_between_are_valid(self, populated_store, small_network):
        store, trajectories = populated_store
        sample = trajectories[0]
        path = list(sample.source_path)
        origin = small_network.node_location(path[0])
        destination = small_network.node_location(path[-1])
        for stored_path in store.paths_between(origin, destination, 150.0):
            small_network.validate_path(stored_path)

    def test_far_away_od_has_no_support(self, populated_store):
        store, _ = populated_store
        assert store.support_between(Point(1e7, 1e7), Point(2e7, 2e7), 100.0) == 0


class TestFindByOdMemo:
    def test_repeats_and_slots_match_an_unmemoised_store(self, small_network):
        """The last od's matches are kept until the next ``add``: repeated
        and slot-filtered calls, before and after an insert, answer as a
        store that was just filled (and so has nothing memoised)."""
        generator = TrajectoryGenerator(
            small_network,
            TrajectoryGeneratorConfig(num_drivers=5, num_hot_pairs=3, trips_per_driver=4, seed=41),
        )
        trajectories = generator.generate()
        store = TrajectoryStore(small_network)
        store.add_many(trajectories[1:])
        first = trajectories[0]
        origin = small_network.node_location(first.source_path[0])
        destination = small_network.node_location(first.source_path[-1])
        slot = (first.departure_time_s - 1.0, first.departure_time_s + 1.0)

        def answers(target):
            return [
                target.find_by_od(origin, destination),
                target.find_by_od(origin, destination, time_slot=slot),
                target.find_by_od(origin, destination),
                target.find_by_od(origin, destination, radius_m=50.0),
            ]

        def unmemoised(stored):
            fresh = TrajectoryStore(small_network)
            fresh.add_many(stored)
            return answers(fresh)

        before = answers(store)
        assert before == unmemoised(trajectories[1:])
        before[0].append(-1)  # callers get copies
        store.add(first)
        after = answers(store)
        assert after == unmemoised(trajectories[1:] + trajectories[:1])
        assert first.trajectory_id in after[0] and first.trajectory_id in after[1]
