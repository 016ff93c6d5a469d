"""Tests for the process-wide registry lifecycle and StatCounters mirror."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.config import LbrmConfig
from repro.core.packets import LogAckPacket
from repro.core.sender import LbrmSender
from repro.obs.metrics import MetricsRegistry, NullRegistry, StatCounters
from repro.simnet.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test here starts and ends in no-op mode."""
    obs.uninstall()
    yield
    obs.uninstall()


def test_default_is_noop():
    assert not obs.registry().enabled


def test_install_and_uninstall():
    reg = obs.install()
    assert obs.registry() is reg
    assert reg.enabled
    obs.uninstall()
    assert not obs.registry().enabled


def test_install_accepts_existing_registry():
    mine = MetricsRegistry()
    assert obs.install(mine) is mine
    assert obs.registry() is mine


def test_recording_restores_previous_on_exit():
    with obs.recording() as reg:
        assert obs.registry() is reg
    assert not obs.registry().enabled


def test_recording_nests():
    with obs.recording() as outer:
        outer.counter("c").inc()
        with obs.recording() as inner:
            assert obs.registry() is inner
            inner.counter("c").inc(5)
        assert obs.registry() is outer
        # the inner window never leaked into the outer registry
        assert outer.counter_value("c") == 1
        assert inner.counter_value("c") == 5


def test_recording_restores_even_on_error():
    with pytest.raises(RuntimeError):
        with obs.recording():
            raise RuntimeError("boom")
    assert not obs.registry().enabled


# -- stat_counters ----------------------------------------------------------


def test_stat_counters_plain_dict_when_off():
    stats = obs.stat_counters("sender", {"data_sent": 0})
    assert type(stats) is dict
    assert stats == {"data_sent": 0}


def test_stat_counters_mirrors_when_recording():
    with obs.recording() as reg:
        stats = obs.stat_counters("sender", {"data_sent": 0}, node="src")
        assert isinstance(stats, StatCounters)
        stats["data_sent"] += 1
        stats["data_sent"] += 2
        assert stats["data_sent"] == 3
        assert reg.counter_value("sender.data_sent", node="src") == 3


def test_stat_counters_initial_keys_materialize_at_zero():
    with obs.recording() as reg:
        obs.stat_counters("rx", {"nacks": 0})
        # listed in the snapshot even though never incremented
        assert "rx.nacks" in reg.snapshot()["counters"]
        assert reg.counter_value("rx.nacks") == 0


def test_stat_counters_preserves_dict_contract():
    with obs.recording():
        stats = obs.stat_counters("m", {"a": 0, "b": 0})
        stats["a"] += 4
        assert stats == {"a": 4, "b": 0}
        assert stats.get("a") == 4
        assert stats.get("zzz", -1) == -1
        assert set(stats) == {"a", "b"}
        assert "a" in stats


def test_stat_counters_new_key_after_construction():
    with obs.recording() as reg:
        stats = obs.stat_counters("m", {})
        stats["late"] = 2
        assert reg.counter_value("m.late") == 2


def test_stat_counters_survives_registry_reset():
    with obs.recording() as reg:
        stats = obs.stat_counters("m", {"a": 0})
        stats["a"] += 10
        reg.reset()
        assert reg.counter_value("m.a") == 0
        # further increments mirror by delta, not absolute value
        stats["a"] += 1
        assert reg.counter_value("m.a") == 1
        assert stats["a"] == 11


def test_unrecorded_sender_and_simulator_set_no_gauge(monkeypatch):
    """Off, a gauge is not built at all: a sender's send and release and
    a simulator's run make no null ``set`` call (the instruments are
    built only under a recording registry, as the logger's log gauges)."""
    sets = []

    class Spy:
        def set(self, value: float) -> None:
            sets.append(value)

    monkeypatch.setattr(NullRegistry, "gauge", lambda self, name, **labels: Spy())
    assert not obs.registry().enabled
    sender = LbrmSender("g", LbrmConfig(), primary="primary")
    sender.send(b"one", 0.0)
    sender.handle(LogAckPacket(group="g", primary_seq=1, replica_seq=0), "primary", 0.1)
    assert sender.released_up_to == 1
    sim = Simulator()
    sim.schedule(0.5, lambda: None)
    sim.run_until(1.0)
    sim.run()
    assert sets == []
