"""Tests for repro.config."""

import math

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, DEFAULT_SERVICE_CONFIG, PlannerConfig, ServiceConfig
from repro.exceptions import ConfigurationError


class TestPlannerConfigValidation:
    def test_default_config_is_valid(self):
        DEFAULT_CONFIG.validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("confidence_threshold", 0.0),
            ("confidence_threshold", 1.5),
            ("agreement_threshold", -0.1),
            ("truth_reuse_radius_m", 0.0),
            ("truth_time_slot_minutes", 0),
            ("worker_quota", 0),
            ("response_time_threshold", 0.0),
            ("knowledge_radius_m", -1.0),
            ("familiarity_alpha", 1.5),
            ("familiarity_beta", 1.0),
            ("workers_per_task", 0),
            ("early_stop_confidence", 0.0),
            ("pmf_latent_dim", 0),
            ("reward_per_question", -1.0),
            # NaN fails every comparison, so it must fail validation too.
            ("truth_reuse_radius_m", math.nan),
            ("knowledge_radius_m", math.nan),
            ("reward_per_question", math.nan),
            # A NaN slot width made ``time_slot_of`` raise a raw ValueError
            # (an infinite one is no slot at all), and an infinite knowledge
            # radius made the familiarity model's landmark radius query
            # raise SpatialError.
            ("truth_time_slot_minutes", math.nan),
            ("truth_time_slot_minutes", math.inf),
            ("knowledge_radius_m", math.inf),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            PlannerConfig(**{field: value})

    @pytest.mark.parametrize("field", ["worker_quota", "workers_per_task", "pmf_latent_dim"])
    @pytest.mark.parametrize("value", [math.nan, 2.5, 3.0, "3"])
    def test_non_integer_counts_rejected(self, field, value):
        """Integer knobs must pass ``operator.index``: NaN passed every
        ``< 1`` check, and a float of whole value is still not a count."""
        with pytest.raises(ConfigurationError):
            PlannerConfig(**{field: value})

    def test_infinite_truth_reuse_radius_rejected(self):
        """An infinite radius passed validation, then made shard planning's
        cell reach ``int(inf // inf)`` and the truth store's first radius
        query raise a raw ``ValueError``."""
        with pytest.raises(ConfigurationError):
            PlannerConfig(truth_reuse_radius_m=math.inf)

    def test_with_overrides_returns_new_validated_config(self):
        config = PlannerConfig().with_overrides(workers_per_task=9)
        assert config.workers_per_task == 9
        assert DEFAULT_CONFIG.workers_per_task != 9

    def test_with_overrides_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            PlannerConfig().with_overrides(worker_quota=-1)

    def test_to_dict_round_trip(self):
        config = PlannerConfig(workers_per_task=4)
        data = config.to_dict()
        assert data["workers_per_task"] == 4
        assert PlannerConfig(**data) == config

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.workers_per_task = 3


class TestServiceConfig:
    def test_default_service_config_is_valid(self):
        DEFAULT_SERVICE_CONFIG.validate()
        assert DEFAULT_SERVICE_CONFIG.backend == "pooled"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "bogus"),
            ("pool_size", 0),
            ("max_pending_batches", 0),
            ("max_shard_fraction", 0),
            ("max_shard_fraction", 1.5),
            ("heartbeat_interval_s", 0),
            # Equal to the default heartbeat interval (0.5 s).
            ("rpc_deadline_s", 0.5),
            ("max_respawns_per_batch", -1),
            ("respawn_backoff_s", -1),
            # Below the default respawn_backoff_s (0.05 s).
            ("respawn_backoff_max_s", 0.01),
            ("hedge_after_s", 0),
            ("pipeline_window", 0),
            ("heartbeat_interval_s", math.nan),
            ("rpc_deadline_s", math.nan),
            ("hedge_after_s", math.nan),
            ("respawn_backoff_s", math.nan),
            ("respawn_backoff_max_s", math.nan),
            ("truth_reuse_radius_m", math.nan),
            ("knowledge_radius_m", math.nan),
            # Planner-level validation still applies to the subclass.
            ("confidence_threshold", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "pool_size",
            "max_pending_batches",
            "pipeline_window",
            "max_respawns_per_batch",
            "snapshot_every_truths",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, 2.5, 3.0, "3"])
    def test_non_integer_counts_rejected(self, field, value):
        """NaN passed every ``< 1`` check: ``max_pending_batches=nan`` never
        shed, ``max_respawns_per_batch=nan`` removed the respawn breaker, and
        ``pipeline_window=2.5`` failed only at the first ``results()``."""
        with pytest.raises(ConfigurationError):
            ServiceConfig(**{field: value})

    def test_integer_likes_accepted(self):
        """Anything ``operator.index`` accepts is a count."""
        config = ServiceConfig(pool_size=np.int64(2), pipeline_window=True, max_respawns_per_batch=0)
        assert config.pool_size == 2

    def test_infinite_respawn_backoff_rejected(self):
        """An infinite base would reach ``time.sleep`` at the first respawn;
        only the maximum may be infinite."""
        with pytest.raises(ConfigurationError):
            ServiceConfig(respawn_backoff_s=math.inf, respawn_backoff_max_s=math.inf)
        ServiceConfig(respawn_backoff_s=0.05, respawn_backoff_max_s=math.inf)

    def test_from_planner_config_lifts_planner_fields(self):
        planner_config = PlannerConfig(workers_per_task=7, random_seed=99)
        config = ServiceConfig.from_planner_config(planner_config, pool_size=3, backend="inline")
        assert config.workers_per_task == 7
        assert config.random_seed == 99
        assert config.pool_size == 3
        assert config.backend == "inline"

    def test_planner_config_round_trip(self):
        planner_config = PlannerConfig(workers_per_task=7, truth_reuse_radius_m=300.0)
        config = ServiceConfig.from_planner_config(planner_config, pool_size=2)
        assert config.planner_config() == planner_config

    def test_to_dict_includes_serving_fields(self):
        data = ServiceConfig(pool_size=4, pipeline_window=2).to_dict()
        assert data["pool_size"] == 4
        assert data["pipeline_window"] == 2
        assert data["workers_per_task"] == DEFAULT_CONFIG.workers_per_task

    def test_is_a_planner_config(self):
        assert isinstance(DEFAULT_SERVICE_CONFIG, PlannerConfig)
