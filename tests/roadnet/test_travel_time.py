"""Tests for repro.roadnet.travel_time."""

import pytest

from repro.exceptions import ConfigurationError
from repro.roadnet.graph import RoadClass, RoadEdge
from repro.roadnet.travel_time import SpeedProfile, TravelTimeModel


class TestSpeedProfile:
    def test_peak_is_slower_than_offpeak(self):
        profile = SpeedProfile()
        assert profile.multiplier(8.0 * 3600) > profile.multiplier(3.0 * 3600)

    def test_multiplier_at_least_base(self):
        profile = SpeedProfile()
        for hour in range(24):
            assert profile.multiplier(hour * 3600) >= profile.base_multiplier - 1e-9

    def test_peak_multiplier_bound(self):
        profile = SpeedProfile(peak_multiplier=2.0)
        for hour in range(0, 24):
            assert profile.multiplier(hour * 3600) <= 2.0 + 1e-9

    def test_invalid_profile(self):
        with pytest.raises(ConfigurationError):
            SpeedProfile(peak_multiplier=0.5, base_multiplier=1.0)
        with pytest.raises(ConfigurationError):
            SpeedProfile(peak_width_hours=0)

    @pytest.mark.parametrize(
        "field",
        [
            "morning_peak_hour",
            "evening_peak_hour",
            "peak_multiplier",
            "peak_width_hours",
            "base_multiplier",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SpeedProfile(**{field: value})

    def test_negative_base_multiplier_rejected(self):
        with pytest.raises(ConfigurationError, match="base_multiplier"):
            SpeedProfile(base_multiplier=-0.5, peak_multiplier=1.0)

    def test_zero_base_multiplier_allowed(self):
        assert SpeedProfile(base_multiplier=0.0).multiplier(3 * 3600.0) >= 0.0

    def test_wraps_around_midnight(self):
        profile = SpeedProfile(morning_peak_hour=0.5)
        assert profile.multiplier(23.5 * 3600) > profile.multiplier(12 * 3600)


class TestTravelTimeModel:
    def test_edge_travel_time_slower_at_peak(self):
        model = TravelTimeModel()
        edge = RoadEdge(0, 1, 1000.0, RoadClass.ARTERIAL)
        assert model.edge_travel_time(edge, 8 * 3600.0) > model.edge_travel_time(edge, 3 * 3600.0)

    def test_edge_travel_time_at_least_free_flow(self):
        model = TravelTimeModel()
        edge = RoadEdge(0, 1, 500.0, RoadClass.LOCAL)
        assert model.edge_travel_time(edge, 12 * 3600.0) >= edge.free_flow_travel_time_s

    def test_path_travel_time_includes_lights(self, tiny_network):
        model = TravelTimeModel(traffic_light_penalty_s=30.0)
        silent = TravelTimeModel(traffic_light_penalty_s=0.0)
        # Node 1 has a traffic light on the tiny network.
        with_light = model.path_travel_time(tiny_network, [0, 1, 3], 3 * 3600.0)
        without_light = silent.path_travel_time(tiny_network, [0, 1, 3], 3 * 3600.0)
        # The clock advances past the light wait, so the congestion seen by
        # later edges shifts slightly; the penalty dominates the difference.
        assert with_light - without_light == pytest.approx(30.0, abs=1.0)

    def test_negative_light_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            TravelTimeModel(traffic_light_penalty_s=-1)

    def test_edge_cost_at_returns_callable(self):
        model = TravelTimeModel()
        edge = RoadEdge(0, 1, 1000.0, RoadClass.ARTERIAL)
        cost = model.edge_cost_at(8 * 3600.0)
        assert cost(edge) == pytest.approx(model.edge_travel_time(edge, 8 * 3600.0))

    def test_custom_profiles_override(self):
        flat = SpeedProfile(peak_multiplier=1.0)
        model = TravelTimeModel(profiles={RoadClass.ARTERIAL: flat})
        edge = RoadEdge(0, 1, 1000.0, RoadClass.ARTERIAL)
        assert model.edge_travel_time(edge, 8 * 3600.0) == pytest.approx(edge.free_flow_travel_time_s)
