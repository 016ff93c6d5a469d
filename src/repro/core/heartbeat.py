"""Heartbeat scheduling — the variable-backoff scheme of §2.1.

The sender keeps an inter-heartbeat time ``h``.  On every data packet
``h`` resets to ``h_min``; after each heartbeat it is multiplied by the
backoff factor (2 in the paper's implementation, Figure 3) until capped
at ``h_max``.  The effect: heartbeats cluster right after data — when a
loss is most likely to need fast detection — and thin out as the channel
stays idle.

:class:`FixedHeartbeatSchedule` implements the comparison scheme of
§2.1.2 (constant period ``h_min``), and :func:`heartbeat_times` produces
the full transmission timeline used by the Figure 3/4/5 benchmarks.
"""

from __future__ import annotations

from typing import Iterator, Protocol

from repro import obs
from repro.core.config import HeartbeatConfig

__all__ = [
    "HeartbeatSchedule",
    "VariableHeartbeatSchedule",
    "FixedHeartbeatSchedule",
    "make_schedule",
    "heartbeat_times",
]


class HeartbeatSchedule(Protocol):
    """Scheduling policy for keep-alive packets.

    The sender calls :meth:`on_data` when application data goes out and
    :meth:`on_heartbeat` when a heartbeat goes out; both return the
    absolute time the *next* heartbeat is due (or ``None`` if the
    schedule has gone quiet).
    """

    def on_data(self, now: float) -> float | None:
        """Data was transmitted at ``now``; returns next heartbeat time."""
        ...

    def on_heartbeat(self, now: float) -> float | None:
        """A heartbeat was transmitted at ``now``; returns the next one."""
        ...


class VariableHeartbeatSchedule:
    """The paper's variable (exponential-backoff) heartbeat (§2.1)."""

    def __init__(self, config: HeartbeatConfig | None = None) -> None:
        self._config = config or HeartbeatConfig()
        self._h = self._config.h_min
        registry = obs.registry()
        self._obs_sent = registry.counter("heartbeat.sent", scheme="variable")
        self._obs_interval = registry.histogram("heartbeat.interval")

    @property
    def current_interval(self) -> float:
        """The current inter-heartbeat time ``h``."""
        return self._h

    def on_data(self, now: float) -> float | None:
        # "When the sender transmits a data packet, it initializes the
        # inter-heartbeat time h to h_min."
        self._h = self._config.h_min
        self._obs_interval.observe(self._h)
        return now + self._h

    def on_heartbeat(self, now: float) -> float | None:
        # "After every subsequent heartbeat packet is sent, the value of
        # h is [multiplied by the backoff] ... until it reaches h_max."
        self._obs_sent.inc()
        self._h = min(self._h * self._config.backoff, self._config.h_max)
        self._obs_interval.observe(self._h)
        return now + self._h


class FixedHeartbeatSchedule:
    """Constant-period heartbeat — the §2.1.2 comparison baseline."""

    def __init__(self, interval: float = 0.25) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._interval = interval
        self._obs_sent = obs.registry().counter("heartbeat.sent", scheme="fixed")

    @property
    def interval(self) -> float:
        return self._interval

    def on_data(self, now: float) -> float | None:
        return now + self._interval

    def on_heartbeat(self, now: float) -> float | None:
        self._obs_sent.inc()
        return now + self._interval


def make_schedule(config: HeartbeatConfig) -> HeartbeatSchedule:
    """Build the schedule a config describes (fixed configs degenerate)."""
    if config.is_fixed:
        return FixedHeartbeatSchedule(interval=config.h_min)
    return VariableHeartbeatSchedule(config)


def heartbeat_times(
    config: HeartbeatConfig,
    data_times: list[float],
    until: float | None = None,
) -> list[float]:
    """Compute every heartbeat transmission time for a data timeline.

    ``data_times`` are the (sorted, ascending) instants the application
    sent data; heartbeats are generated between and after them per the
    variable schedule, stopping at ``until`` (default: the last data
    time — i.e. only inter-data heartbeats, as in Figures 4/5 where the
    stream is periodic).

    This is the reference generator behind the Figure 3 timeline and the
    simulated cross-check of the closed-form overhead math.
    """
    if not data_times:
        return []
    if sorted(data_times) != list(data_times):
        raise ValueError("data_times must be ascending")
    horizon = until if until is not None else data_times[-1]
    schedule = VariableHeartbeatSchedule(config)
    beats: list[float] = []
    remaining = list(data_times)
    next_data = remaining.pop(0)
    next_hb = schedule.on_data(next_data)
    while True:
        next_data = remaining[0] if remaining else None
        if next_hb is None:
            if next_data is None:
                break
            remaining.pop(0)
            next_hb = schedule.on_data(next_data)
            continue
        if next_data is not None and next_data <= next_hb:
            # "every heartbeat packet is preempted by the next data packet"
            remaining.pop(0)
            next_hb = schedule.on_data(next_data)
            continue
        if next_hb > horizon:
            break
        beats.append(next_hb)
        next_hb = schedule.on_heartbeat(next_hb)
    return beats
