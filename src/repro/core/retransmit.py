"""Retransmission strategy selection (§2.3.2 and §2.2.1).

Two decisions are made in LBRM about *how* to repair a loss:

* The **source**, on a statistical-acknowledgement deadline, chooses
  between an immediate multicast retransmission (missing ACKs represent
  many sites), targeted unicasts (small group, every logger acks), or
  doing nothing and letting NACK-driven recovery handle stragglers.
* A **secondary logger**, fielding requests for one packet from its
  site, chooses between unicast replies and one site-scoped (TTL-bound)
  re-multicast once enough distinct receivers have asked — or
  immediately when the logger itself also lost the packet, since that
  implies the whole site did (§2.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro import obs
from repro.core.actions import Address
from repro.core.config import LoggerConfig, StatAckConfig

__all__ = [
    "RetransmitDecision",
    "SourceRetransmitPolicy",
    "SiteRequestTracker",
]


class RetransmitDecision(Enum):
    """What the source should do when a packet's ACK window closes."""

    NONE = "none"  # all ACKs arrived, or losses too isolated to matter
    UNICAST = "unicast"  # small group: retransmit to the known missing ackers
    MULTICAST = "multicast"  # missing ACKs represent many sites: re-multicast now


@dataclass(frozen=True, slots=True)
class SourceRetransmitPolicy:
    """The source-side strategy of §2.3.2.

    ``sites_per_acker = N_sl / expected_ackers`` measures how many sites
    one Designated Acker statistically represents.  "With a 500 site
    configuration, each Designated Acker represents 25 sites so multicast
    is warranted if even a single acknowledgement is lost.  However, with
    a 20 site configuration, it is feasible for each logging server to
    acknowledge" — and a missing ACK then identifies the one site to
    unicast to.
    """

    config: StatAckConfig = field(default_factory=StatAckConfig)

    def decide(self, missing_acks: int, expected_ackers: int, n_sl: float) -> RetransmitDecision:
        """Pick a strategy given the ACK shortfall at deadline."""
        if missing_acks <= 0 or expected_ackers <= 0:
            decision = RetransmitDecision.NONE
        elif n_sl / expected_ackers >= self.config.sites_per_acker_multicast:
            decision = RetransmitDecision.MULTICAST
        else:
            decision = RetransmitDecision.UNICAST
        obs.registry().counter("retransmit.decision", choice=decision.value).inc()
        return decision


class SiteRequestTracker:
    """Secondary-logger bookkeeping for the site re-multicast decision.

    Counts *distinct* requesters per sequence number within a sliding
    window.  ``record`` returns True the moment the count crosses the
    configured threshold (and only once per window, so a repair is never
    re-multicast twice for the same burst of requests).
    """

    def __init__(self, config: LoggerConfig | None = None, window: float = 1.0) -> None:
        self._config = config or LoggerConfig()
        self._window = window
        # Config is frozen, so the threshold can be baked in: record()
        # runs once per NACKed sequence and the property indirection
        # showed up in logger-saturation profiles.
        self._threshold = self._config.remulticast_threshold
        # seq -> (window start, distinct requesters, already re-multicast?)
        self._state: dict[int, tuple[float, set[Address], bool]] = {}
        self._obs_fired = obs.registry().counter("retransmit.site_remulticast")

    def record(self, seq: int, requester: Address, now: float, self_lost: bool = False) -> bool:
        """Record a request; True ⇒ re-multicast the repair site-wide now.

        ``self_lost`` marks that this logger also had to recover ``seq``
        from upstream — strong evidence the loss hit the whole site, so
        the threshold drops to a single request.
        """
        state = self._state.get(seq)
        if state is not None and now - state[0] <= self._window:
            if state[2]:
                # Already re-multicast this window — the common steady
                # state during a repair storm.  Requesters are still
                # tracked (for requesters()), but the threshold math and
                # the tuple unpack are skipped.
                state[1].add(requester)
                return False
            start, requesters, _ = state
            requesters.add(requester)
        else:
            start = now
            requesters = {requester}
            self._state[seq] = (start, requesters, False)
        threshold = 1 if self_lost else self._threshold
        if len(requesters) < threshold:
            return False
        self._state[seq] = (start, requesters, True)
        self._obs_fired.inc()
        return True

    def requesters(self, seq: int) -> frozenset[Address]:
        """Distinct requesters seen for ``seq`` in the current window."""
        state = self._state.get(seq)
        return frozenset(state[1]) if state else frozenset()

    def sweep(self, now: float) -> None:
        """Drop windows that have aged out (periodic housekeeping)."""
        stale = [seq for seq, (start, _, _) in self._state.items() if now - start > self._window]
        for seq in stale:
            del self._state[seq]
