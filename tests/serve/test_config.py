"""ServeConfig validation."""

import pytest

from repro.exceptions import ReproError
from repro.serve.config import ServeConfig, ServeConfigError


def test_defaults_are_valid():
    config = ServeConfig()
    assert config.queue_high_water >= 1
    assert config.cache_size >= 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"overlay_threshold": -1},
        {"probe_interval_s": -1.0},
        {"cache_size": -1},
        {"queue_high_water": 0},
        {"request_timeout_ms": 0},
        {"drain_grace_s": -0.5},
        {"port": -1},
        {"port": 70000},
        {"slow_query_ms": -1.0},
        {"log_sample_every": -1},
        {"slo_window_s": -1},
        {"slo_p99_ms": -0.5},
        {"slo_error_rate": 1.5},
        {"switch_interval_s": -1e-3},
        {"breaker_threshold": -1},
        {"breaker_cooldown_s": -0.1},
        {"trace_buffer": -1},
        {"trace_sample_every": -1},
        {"top_pairs_capacity": -1},
    ],
)
def test_out_of_range_values_raise(kwargs):
    with pytest.raises(ServeConfigError):
        ServeConfig(**kwargs)


def test_config_error_is_repro_error():
    """CLI error handling catches ReproError; config errors must fold in."""
    assert issubclass(ServeConfigError, ReproError)
