"""The §7 retransmission-channel extension.

"A separate multicast channel could be used for retransmissions.  The
sender would retransmit every packet on the retransmission channel n
times, using an exponential backoff scheme similar to that used for
heartbeat packets.  A client would recover a lost transmission by
subscribing to the retransmission channel, rather than requesting the
packet.  Logging servers would provide retransmissions of packets that
were no longer being transmitted on the retransmission channel."

:class:`RetransChannelSender` is embedded in
:class:`~repro.core.sender.LbrmSender` (like the statack engine): after
every data packet it multicasts ``copies`` RETRANS duplicates on the
companion group at exponentially backed-off offsets.  A receiver in
channel mode (``ReceiverConfig.retrans_channel_fallback > 0``) reacts to
a detected gap by *joining* that group instead of NACKing, falling back
to the logging hierarchy only for packets that have aged off the
channel.

The paper notes "fast multicast group subscription would be required" —
the simulator's joins are instantaneous and the asyncio runtime's are a
socket option away, so the extension is exercised in its intended
regime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actions import Action, SendMulticast
from repro.core.errors import ConfigError
from repro.core.machine import TimerSet
from repro.core.packets import RetransPacket

__all__ = ["RetransChannelConfig", "retrans_group", "RetransChannelSender"]


def retrans_group(group: str) -> str:
    """The companion retransmission group for a data group."""
    return f"{group}/retrans"


@dataclass(frozen=True)
class RetransChannelConfig:
    """Shape of the retransmission schedule.

    Copy i (1-based) of a packet goes out ``initial_delay * backoff**(i-1)``
    after the previous one, mirroring the heartbeat backoff.  With the
    defaults a packet lives ``0.25+0.5+1+2 = 3.75 s`` on the channel.
    """

    copies: int = 4
    initial_delay: float = 0.25
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ConfigError(f"copies must be >= 1, got {self.copies}")
        if self.initial_delay <= 0:
            raise ConfigError(f"initial_delay must be positive, got {self.initial_delay}")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff must be >= 1, got {self.backoff}")

    @property
    def lifetime(self) -> float:
        """Time from original transmission to the last channel copy."""
        total = 0.0
        delay = self.initial_delay
        for _ in range(self.copies):
            total += delay
            delay *= self.backoff
        return total


class RetransChannelSender:
    """Source-side scheduler of channel copies."""

    def __init__(self, group: str, config: RetransChannelConfig | None = None) -> None:
        self._group = group
        self._channel = retrans_group(group)
        self._config = config or RetransChannelConfig()
        self.timers = TimerSet()
        # seq -> (payload, epoch, copies sent so far)
        self._pending: dict[int, tuple[bytes, int, int]] = {}
        self.stats = {"channel_copies_sent": 0}

    def on_data_sent(self, seq: int, payload: bytes, epoch: int, now: float) -> None:
        """Register a freshly multicast packet for channel rebroadcast."""
        self._pending[seq] = (payload, epoch, 0)
        self.timers.set(("copy", seq), now + self._config.initial_delay)

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            if key[0] != "copy":
                continue
            seq = key[1]
            entry = self._pending.get(seq)
            if entry is None:
                continue
            payload, epoch, sent = entry
            sent += 1
            self.stats["channel_copies_sent"] += 1
            actions.append(
                SendMulticast(
                    group=self._channel,
                    packet=RetransPacket(group=self._group, seq=seq, payload=payload, epoch=epoch),
                )
            )
            if sent >= self._config.copies:
                del self._pending[seq]
            else:
                self._pending[seq] = (payload, epoch, sent)
                next_delay = self._config.initial_delay * self._config.backoff**sent
                self.timers.set(("copy", seq), now + next_delay)
        return actions

    def next_wakeup(self) -> float | None:
        return self.timers.next_deadline()
