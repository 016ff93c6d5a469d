"""Config validation tests: every illegal parameter is rejected eagerly."""

from __future__ import annotations

import pytest

from repro.core.config import (
    DiscoveryConfig,
    HeartbeatConfig,
    LbrmConfig,
    LoggerConfig,
    ReceiverConfig,
    ReplicationConfig,
    StatAckConfig,
)
from repro.core.errors import ConfigError


def test_paper_defaults_match_evaluation_parameters():
    cfg = LbrmConfig.paper_defaults()
    assert cfg.heartbeat.h_min == 0.25
    assert cfg.heartbeat.h_max == 32.0
    assert cfg.heartbeat.backoff == 2.0
    assert cfg.receiver.max_idle_time == 0.25
    assert cfg.statack.alpha == pytest.approx(1 / 8)
    assert 5 <= cfg.statack.k_ackers <= 20  # "between 5 and 20 ACKs"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h_min": 0.0},
        {"h_min": -1.0},
        {"h_max": 0.1, "h_min": 0.25},
        {"backoff": 0.5},
    ],
)
def test_heartbeat_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        HeartbeatConfig(**kwargs)


def test_heartbeat_is_fixed_flag():
    assert HeartbeatConfig(backoff=1.0).is_fixed
    assert HeartbeatConfig(h_min=1.0, h_max=1.0).is_fixed
    assert not HeartbeatConfig().is_fixed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_idle_time": 0.0},
        {"nack_delay": -0.1},
        {"nack_retry": 0.0},
        {"max_nack_retries": -1},
        {"watchdog_slack": 0.5},
    ],
)
def test_receiver_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        ReceiverConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_packets": -1},
        {"packet_lifetime": -1.0},
        {"remulticast_threshold": 0},
        {"site_ttl": 0},
        {"upstream_retry": 0.0},
        {"max_upstream_retries": -1},
    ],
)
def test_logger_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        LoggerConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_ackers": 0},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"epoch_length": 0},
        {"sites_per_acker_multicast": 0.5},
        {"initial_t_wait": 0.0},
        {"t_wait_max_widen": 0.5},
    ],
)
def test_statack_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        StatAckConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_replicas_acked": 0},
        {"update_retry": 0.0},
        {"max_update_retries": -1},
        {"primary_timeout": 0.0},
        {"failover_wait": 0.0},
    ],
)
def test_replication_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        ReplicationConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"initial_ttl": 0},
        {"max_ttl": 1, "initial_ttl": 4},
        {"query_timeout": 0.0},
    ],
)
def test_discovery_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        DiscoveryConfig(**kwargs)


def test_configs_are_frozen():
    cfg = HeartbeatConfig()
    with pytest.raises(AttributeError):
        cfg.h_min = 1.0  # type: ignore[misc]


def test_config_error_is_lbrm_error():
    from repro.core.errors import LbrmError

    assert issubclass(ConfigError, LbrmError)
