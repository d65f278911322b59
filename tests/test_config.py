"""Tests for BayesCrowdConfig validation."""

import pytest

from repro.core import BayesCrowdConfig


class TestValidation:
    def test_defaults_valid(self):
        config = BayesCrowdConfig()
        assert config.strategy == "hhs"
        assert config.alpha > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"budget": -1},
            {"latency": 0},
            {"m": 0},
            {"strategy": "magic"},
            {"probability_method": "magic"},
            {"answer_threshold": 1.5},
            {"utility_mode": "magic"},
            {"distribution_source": "magic"},
            {"dominator_method": "magic"},
            {"worker_accuracy": -0.1},
            {"assignments_per_task": 0},
            {"assignments_per_task": -3},
            {"bn_smoothing": -0.5},
            {"bn_max_parents": -1},
            {"max_retries": -1},
            {"backoff_base": -0.01},
            {"backoff_cap": 0.01, "backoff_base": 0.5},
            {"requeue_policy": "magic"},
            {"faults": "not-a-fault-model"},
            {"cache_size": -1},
            {"utility_cache_size": -1},
            {"dominator_method": "numpy"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BayesCrowdConfig(**kwargs)

    def test_selection_knobs_accepted(self):
        config = BayesCrowdConfig(selection_batch=False, utility_cache_size=0)
        assert config.selection_batch is False
        assert config.utility_cache_size == 0  # 0 = unbounded caches

    @pytest.mark.parametrize(
        "name, value",
        [
            ("probability_backend", "forest"),
            ("probability_backend", "adpll"),
            ("compile_node_budget", 8),
            ("circuit_cache_size", 0),
            ("n_jobs", 2),
            ("ctable_prune", "off"),
        ],
    )
    def test_removed_backend_knobs_are_not_fields(self, name, value):
        with pytest.raises(TypeError, match=name):
            BayesCrowdConfig(**{name: value})

    def test_resilience_knobs_accepted(self):
        from repro.crowd import FaultModel

        config = BayesCrowdConfig(
            max_retries=0,
            backoff_base=0.0,
            backoff_cap=0.0,
            requeue_policy="refund",
            faults=FaultModel(drop_rate=0.2),
        )
        assert config.faults.drop_rate == 0.2
        assert config.requeue_policy == "refund"


class TestTasksPerRound:
    def test_ceiling_division(self):
        assert BayesCrowdConfig(budget=50, latency=5).tasks_per_round() == 10
        assert BayesCrowdConfig(budget=51, latency=5).tasks_per_round() == 11
        assert BayesCrowdConfig(budget=3, latency=5).tasks_per_round() == 1

    def test_zero_budget(self):
        assert BayesCrowdConfig(budget=0).tasks_per_round() == 0


class TestIntegrityAndGuardKnobs:
    def test_defaults(self):
        config = BayesCrowdConfig()
        assert config.strict_integrity is False
        assert config.reask_budget_frac == 0.25
        assert config.adpll_node_budget == 0
        assert config.adpll_deadline_s == 0.0
        assert config.reliability_prior == (4.0, 1.0)

    def test_valid_values_accepted(self):
        config = BayesCrowdConfig(
            strict_integrity=True,
            reask_budget_frac=0.0,
            adpll_node_budget=10_000,
            adpll_deadline_s=0.5,
            reliability_prior=(2, 2),
        )
        assert config.strict_integrity is True
        assert config.reask_budget_frac == 0.0
        assert config.reliability_prior == (2.0, 2.0)  # normalized to floats

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strict_integrity": "yes"},
            {"reask_budget_frac": -0.1},
            {"reask_budget_frac": 1.5},
            {"adpll_node_budget": -1},
            {"adpll_node_budget": True},
            {"adpll_node_budget": 2.5},
            {"adpll_deadline_s": -0.5},
            {"reliability_prior": (0.0, 1.0)},
            {"reliability_prior": (1.0,)},
            {"reliability_prior": (1.0, 2.0, 3.0)},
            {"reliability_prior": "broad"},
        ],
    )
    def test_invalid_values_rejected_with_typed_error(self, kwargs):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            BayesCrowdConfig(**kwargs)

    def test_config_error_is_a_value_error(self):
        from repro.errors import ConfigError

        # Pre-existing `except ValueError` call sites must keep working.
        assert issubclass(ConfigError, ValueError)
        with pytest.raises(ValueError):
            BayesCrowdConfig(reask_budget_frac=2.0)
