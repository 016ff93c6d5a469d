"""Factory automation over LBRM (§4.4).

Three properties the paper claims make LBRM a fit for factory floors:

* **record-keeping for free** — the logging server already stores every
  transaction, so an auditor can replay history from the log;
* **dynamic reconfiguration** — no receiver lists at sources, so
  monitoring stations attach and detach without connection setup;
* **intermittent connectivity** — a mobile monitor that reconnects
  recovers the gap from a logging server "without interfering with the
  other receivers or affecting the on-going data flow".

:class:`SensorReading` is the payload format; :class:`AuditLog` replays
a :class:`~repro.core.log_store.PacketLog` into an ordered ledger;
:class:`MobileMonitor` models the disconnect/reconnect cycle around an
:class:`~repro.core.receiver.LbrmReceiver`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.log_store import PacketLog

__all__ = ["SensorReading", "AuditLog", "MobileMonitor"]

_READING = struct.Struct("!I8sdQ")


@dataclass(frozen=True, slots=True)
class SensorReading:
    """One sensor sample: sensor id, metric name, value, sample index."""

    sensor_id: int
    metric: str
    value: float
    sample: int

    def encode(self) -> bytes:
        raw = self.metric.encode("ascii")
        if len(raw) > 8:
            raise ValueError(f"metric name too long: {self.metric!r}")
        return _READING.pack(self.sensor_id, raw.ljust(8, b"\x00"), self.value, self.sample)

    @classmethod
    def decode(cls, data: bytes) -> "SensorReading":
        sensor_id, raw, value, sample = _READING.unpack(data[: _READING.size])
        return cls(
            sensor_id=sensor_id,
            metric=raw.rstrip(b"\x00").decode("ascii"),
            value=value,
            sample=sample,
        )


class AuditLog:
    """Replays a logging server's packet log as an ordered ledger.

    This is the "accurate record-keeping" story: the audit trail is a
    *by-product* of the reliability mechanism, not a separate system.
    """

    def __init__(self, log: PacketLog) -> None:
        self._log = log

    def replay(self, from_seq: int = 1, to_seq: int | None = None) -> list[SensorReading]:
        """Decode every logged reading in ``[from_seq, to_seq]`` order.

        Sequences missing from the log (expired or never received) are
        skipped — the ledger is as complete as the retention policy.
        """
        high = to_seq if to_seq is not None else (self._log.highest or 0)
        readings: list[SensorReading] = []
        for seq in range(from_seq, high + 1):
            if seq not in self._log:
                continue
            entry = self._log.get(seq)
            readings.append(SensorReading.decode(entry.payload))
        return readings

    def history(self, sensor_id: int) -> list[SensorReading]:
        """All logged samples for one sensor, oldest first."""
        return [r for r in self.replay() if r.sensor_id == sensor_id]


class MobileMonitor:
    """A handheld monitor with intermittent connectivity.

    Tracks the latest reading per sensor from delivered payloads and
    records disconnect windows; on reconnect, the LBRM receiver's normal
    gap recovery backfills everything missed, and :meth:`gap_recovered`
    reports how many backfilled samples arrived.
    """

    def __init__(self) -> None:
        self._latest: dict[int, SensorReading] = {}
        self._disconnected = False
        self.stats = {"live_samples": 0, "recovered_samples": 0, "disconnects": 0}

    def disconnect(self) -> None:
        """Walk out of radio range."""
        if not self._disconnected:
            self._disconnected = True
            self.stats["disconnects"] += 1

    def reconnect(self) -> None:
        self._disconnected = False

    def on_deliver(self, payload: bytes, recovered: bool) -> SensorReading | None:
        """Apply a delivered reading; stale (superseded) samples dropped."""
        reading = SensorReading.decode(payload)
        current = self._latest.get(reading.sensor_id)
        if recovered:
            self.stats["recovered_samples"] += 1
        else:
            self.stats["live_samples"] += 1
        if current is not None and current.sample >= reading.sample:
            return None
        self._latest[reading.sensor_id] = reading
        return reading

    def latest(self, sensor_id: int) -> SensorReading | None:
        return self._latest.get(sensor_id)
