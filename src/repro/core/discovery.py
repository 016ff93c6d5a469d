"""Expanding-ring scoped-multicast logger discovery (§2.2.1).

"In our implementation, each host uses a series of scoped multicast
discovery queries to locate a nearby logging service."

:class:`DiscoveryClient` multicasts DISCOVERY_QUERY with an increasing
TTL (1, 2, 4, … up to the configured max), waiting one query timeout per
ring.  The first reply wins — with ring-by-ring expansion the first
responder is also (topologically) the nearest logger.  If the largest
ring stays silent, the client reports failure and the application falls
back to static configuration or starts a local logger, as the paper
suggests.

Replies carry the logger's address *token* (a string) plus its hierarchy
level; several replies arriving in the same ring are ranked by level so
a site secondary beats the primary when both are in range.

On real (lossy) transports one silent window does not prove a ring
empty: ``ring_retries`` re-queries the same TTL before expanding, and
``timeout_backoff`` stretches the per-query wait geometrically (capped
at ``max_query_timeout``) so congestion gets progressively more room.
Exhaustion is surfaced both as a property and as a
:class:`~repro.core.events.DiscoveryExhausted` notification so a harness
can fall back to static configuration without polling.
"""

from __future__ import annotations

from repro.core.actions import Action, Address, Notify, SendMulticast, own_token
from repro.core.config import DiscoveryConfig
from repro.core.events import DiscoveryExhausted, LoggerDiscovered
from repro.core.machine import ProtocolMachine
from repro.core.packets import DiscoveryQueryPacket, DiscoveryReplyPacket, Packet

__all__ = ["DiscoveryClient"]


class DiscoveryClient(ProtocolMachine):
    """Finds the nearest logging server for one group."""

    def __init__(
        self,
        group: str,
        config: DiscoveryConfig | None = None,
        parse_token=own_token,
    ) -> None:
        super().__init__()
        self._group = group
        self._config = config or DiscoveryConfig()
        self._parse_token = parse_token
        self._ttl = 0
        self._searching = False
        self._ring_replies: list[tuple[int, Address]] = []
        self._found_level: int | None = None
        self._ring_attempts = 0  # queries already sent at the current TTL
        self._timeout = self._config.query_timeout
        self.stats = {"queries_sent": 0, "replies_received": 0, "ring_retries": 0}

    # -- introspection ----------------------------------------------------

    @property
    def found_level(self) -> int | None:
        """Hierarchy level of the discovered logger (0 = primary)."""
        return self._found_level

    @property
    def searching(self) -> bool:
        return self._searching

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        """Begin (or restart) the expanding-ring search."""
        self._ttl = self._config.initial_ttl
        self._searching = True
        self._found_level = None
        self._ring_replies = []
        self._ring_attempts = 0
        self._timeout = self._config.query_timeout
        return self._query(now)

    def _query(self, now: float) -> list[Action]:
        self.stats["queries_sent"] += 1
        self._ring_attempts += 1
        self.timers.set(("ring",), now + self._timeout)
        query = DiscoveryQueryPacket(group=self._group, ttl=self._ttl)
        return [SendMulticast(group=self._group, packet=query, ttl=self._ttl)]

    def _next_timeout(self) -> None:
        """Back off the per-query wait after a silent window."""
        self._timeout = min(
            self._timeout * self._config.timeout_backoff, self._config.max_query_timeout
        )

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        if not isinstance(packet, DiscoveryReplyPacket) or not self._searching:
            return []
        self.stats["replies_received"] += 1
        self._ring_replies.append((packet.level, self._parse_token(packet.logger_addr)))
        return []

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            if key[0] != "ring":
                continue
            if self._ring_replies:
                # Prefer the deepest hierarchy level in range: a site
                # secondary over the primary (both "near" in this ring).
                level, logger = max(self._ring_replies, key=lambda pair: pair[0])
                self._found_level = level
                self._searching = False
                actions.append(Notify(LoggerDiscovered(logger=logger, ttl=self._ttl)))
            elif self._ring_attempts <= self._config.ring_retries:
                # The window was silent, but one silent window doesn't
                # prove the ring empty on a lossy transport: re-query the
                # same TTL (bounded) with a widened wait before expanding.
                self.stats["ring_retries"] += 1
                self._next_timeout()
                actions.extend(self._query(now))
            elif self._ttl >= self._config.max_ttl:
                self._searching = False
                actions.append(
                    Notify(
                        DiscoveryExhausted(
                            max_ttl=self._config.max_ttl,
                            queries_sent=self.stats["queries_sent"],
                        )
                    )
                )
            else:
                self._ttl = min(self._ttl * 2, self._config.max_ttl)
                self._ring_attempts = 0
                self._next_timeout()
                actions.extend(self._query(now))
        return actions
