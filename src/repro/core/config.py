"""Protocol parameter bundles for LBRM components.

Every tunable named in the paper is represented here with its paper
default:

* ``h_min = 0.25`` s, ``h_max = 32`` s, ``backoff = 2`` — the variable
  heartbeat parameters used for Figures 4 and 5 and Table 1.
* ``max_idle_time`` (MaxIT) — the source's freshness guarantee (§2).
* ``k_ackers`` — desired positive ACKs per packet; the paper suggests
  5–20 (§2.3.1).
* ``ack_alpha = 1/8`` — the EWMA gain for both the group-size estimator
  and the ``t_wait`` round-trip estimator (§2.3.2–2.3.3).

Configs are frozen dataclasses: validated once in ``__post_init__`` and
safe to share between protocol machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigError

__all__ = [
    "HeartbeatConfig",
    "ReceiverConfig",
    "LoggerConfig",
    "StatAckConfig",
    "ReplicationConfig",
    "DiscoveryConfig",
    "HierarchyConfig",
    "LbrmConfig",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class HeartbeatConfig:
    """Variable-heartbeat parameters (§2.1).

    ``h_min`` is the interval from a data packet to the first heartbeat;
    each subsequent heartbeat interval is multiplied by ``backoff`` until
    it reaches ``h_max``.  Setting ``backoff = 1.0`` degenerates into the
    paper's *fixed heartbeat* comparison scheme with period ``h_min``.
    """

    h_min: float = 0.25
    h_max: float = 32.0
    backoff: float = 2.0
    # §7 extension: "For small packets, it might be cost-effective to
    # retransmit the original packet instead of an empty heartbeat
    # packet.  This would reduce retransmission requests."  When > 0,
    # heartbeat slots re-send the last data packet whenever its payload
    # is at most this many bytes, so a lost final packet repairs itself
    # with no NACK at all.
    repeat_payload_max: int = 0

    def __post_init__(self) -> None:
        _require(self.h_min > 0, f"h_min must be positive, got {self.h_min}")
        _require(self.h_max >= self.h_min, f"h_max ({self.h_max}) must be >= h_min ({self.h_min})")
        _require(self.backoff >= 1.0, f"backoff must be >= 1, got {self.backoff}")
        _require(self.repeat_payload_max >= 0, "repeat_payload_max must be >= 0")

    @property
    def is_fixed(self) -> bool:
        """True when this config degenerates to a fixed-rate heartbeat."""
        return self.backoff == 1.0 or self.h_min == self.h_max


@dataclass(frozen=True)
class ReceiverConfig:
    """Receiver-side loss detection and recovery parameters.

    ``max_idle_time`` (MaxIT) is the longest silence the receiver accepts
    before declaring its state stale (§2).  ``nack_delay`` is the short
    timer from Appendix A that lets out-of-order packets arrive before a
    retransmission request is issued; the LBRM receiver proper uses 0
    (request immediately from the local logger, §6).  ``nack_retry``
    bounds how long a receiver waits for a retransmission before
    re-requesting, and ``max_nack_retries`` caps retries to one logger
    before escalating to the next logger up the hierarchy.
    """

    max_idle_time: float = 0.25
    nack_delay: float = 0.0
    nack_retry: float = 0.5
    max_nack_retries: int = 3
    watchdog_slack: float = 2.0
    # §7 extension: when > 0, a receiver reacts to a gap by joining the
    # companion retransmission channel and only falls back to NACKing its
    # logger after this many seconds (set it to the channel lifetime).
    retrans_channel_fallback: float = 0.0

    def __post_init__(self) -> None:
        _require(self.max_idle_time > 0, "max_idle_time must be positive")
        _require(self.nack_delay >= 0, "nack_delay must be non-negative")
        _require(self.nack_retry > 0, "nack_retry must be positive")
        _require(self.max_nack_retries >= 0, "max_nack_retries must be >= 0")
        _require(self.watchdog_slack >= 1.0, "watchdog_slack must be >= 1")
        _require(self.retrans_channel_fallback >= 0, "retrans_channel_fallback must be >= 0")


@dataclass(frozen=True)
class LoggerConfig:
    """Log-server behaviour (§2.2).

    ``max_packets``/``max_bytes`` bound the in-memory log (0 = unbounded);
    ``packet_lifetime`` expires entries whose useful life has passed
    (0 = keep forever).  ``remulticast_threshold`` is the number of
    distinct local NACKs for one sequence number that makes a secondary
    logger re-multicast the repair with site-local TTL instead of
    unicasting it (§2.2.1).  ``upstream_retry`` re-asks the parent logger
    if a forwarded request is not answered.
    """

    max_packets: int = 0
    max_bytes: int = 0
    packet_lifetime: float = 0.0
    remulticast_threshold: int = 3
    site_ttl: int = 1
    upstream_retry: float = 0.5
    max_upstream_retries: int = 5

    def __post_init__(self) -> None:
        _require(self.max_packets >= 0, "max_packets must be >= 0")
        _require(self.max_bytes >= 0, "max_bytes must be >= 0")
        _require(self.packet_lifetime >= 0, "packet_lifetime must be >= 0")
        _require(self.remulticast_threshold >= 1, "remulticast_threshold must be >= 1")
        _require(self.site_ttl >= 1, "site_ttl must be >= 1")
        _require(self.upstream_retry > 0, "upstream_retry must be positive")
        _require(self.max_upstream_retries >= 0, "max_upstream_retries must be >= 0")


@dataclass(frozen=True)
class StatAckConfig:
    """Statistical acknowledgement parameters (§2.3).

    ``k_ackers`` is the desired number of Designated Ackers per epoch
    (paper: 5–20).  ``alpha`` is the EWMA gain used by both the
    ``t_wait`` estimator and the group-size refinement.  ``epoch_length``
    is how many data packets an epoch covers before a new Acker Selection
    Packet is sent.  ``sites_per_acker_multicast`` is the re-multicast
    trigger: when one missing ACK statistically represents at least this
    many sites, the source re-multicasts immediately (§2.3.2).
    ``initial_t_wait`` seeds the RTT estimator before any ACKs arrive.
    ``t_wait_max_widen`` caps loss-episode widening of ``t_wait`` at
    this multiple of the EWMA RTT estimate (fresh samples decay the
    widening back toward 1).
    """

    k_ackers: int = 10
    alpha: float = 0.125
    epoch_length: int = 64
    sites_per_acker_multicast: float = 2.0
    initial_t_wait: float = 0.1
    t_wait_max_widen: float = 16.0

    def __post_init__(self) -> None:
        _require(self.k_ackers >= 1, "k_ackers must be >= 1")
        _require(0.0 < self.alpha <= 1.0, "alpha must be in (0, 1]")
        _require(self.epoch_length >= 1, "epoch_length must be >= 1")
        _require(self.sites_per_acker_multicast >= 1.0, "sites_per_acker_multicast must be >= 1")
        _require(self.initial_t_wait > 0, "initial_t_wait must be positive")
        _require(self.t_wait_max_widen >= 1.0, "t_wait_max_widen must be >= 1")


@dataclass(frozen=True)
class ReplicationConfig:
    """Primary-log replication (§2.2.3).

    The primary pushes every logged packet to each replica and tracks a
    *replicated logger sequence number*: the highest sequence known to be
    held by at least ``min_replicas_acked`` replicas.  ``update_retry``
    drives retransmission of unacknowledged replica updates.
    """

    min_replicas_acked: int = 1
    update_retry: float = 0.25
    max_update_retries: int = 10
    primary_timeout: float = 2.0
    failover_wait: float = 0.5

    def __post_init__(self) -> None:
        _require(self.min_replicas_acked >= 1, "min_replicas_acked must be >= 1")
        _require(self.update_retry > 0, "update_retry must be positive")
        _require(self.max_update_retries >= 0, "max_update_retries must be >= 0")
        _require(self.primary_timeout > 0, "primary_timeout must be positive")
        _require(self.failover_wait > 0, "failover_wait must be positive")


@dataclass(frozen=True)
class DiscoveryConfig:
    """Expanding-ring scoped-multicast logger discovery (§2.2.1).

    The receiver multicasts DISCOVERY_QUERY with TTL ``initial_ttl``,
    doubling up to ``max_ttl``, waiting ``query_timeout`` per ring.  If
    nothing answers at ``max_ttl`` the caller may fall back to a
    statically configured logger address.

    On lossy transports a single silent window does not prove a ring
    empty: ``ring_retries`` re-queries the same TTL that many extra
    times before expanding, and ``timeout_backoff`` multiplies the wait
    on each successive query (retry or expansion) so a congested network
    gets progressively more room to answer.  The defaults (0 retries,
    no backoff) preserve the ideal-network behaviour the simulator's
    deterministic tests assume; real-UDP deployments pass hardened
    values.
    """

    initial_ttl: int = 1
    max_ttl: int = 32
    query_timeout: float = 0.2
    ring_retries: int = 0
    timeout_backoff: float = 1.0
    max_query_timeout: float = 5.0

    def __post_init__(self) -> None:
        _require(self.initial_ttl >= 1, "initial_ttl must be >= 1")
        _require(self.max_ttl >= self.initial_ttl, "max_ttl must be >= initial_ttl")
        _require(self.query_timeout > 0, "query_timeout must be positive")
        _require(self.ring_retries >= 0, "ring_retries must be >= 0")
        _require(self.timeout_backoff >= 1.0, "timeout_backoff must be >= 1")
        _require(
            self.max_query_timeout >= self.query_timeout,
            "max_query_timeout must be >= query_timeout",
        )


@dataclass(frozen=True)
class HierarchyConfig:
    """k-level repair-tree maintenance (DESIGN §11).

    ``rescore_interval`` is the tree re-scoring cadence — one pass per
    heartbeat epoch (the paper's ``h_min``) by default, so tree shape
    reacts on the same timescale as liveness detection.
    ``saturation_outstanding`` is the outstanding-upstream-repair queue
    depth at which an interior logger is treated as saturated and its
    children become eligible for re-parenting.  The scoring constants
    (serve cost, hysteresis, link EWMA gain) are
    :class:`~repro.core.hierarchy.TreeManager`'s own defaults.
    """

    rescore_interval: float = 0.25
    saturation_outstanding: int = 8

    def __post_init__(self) -> None:
        _require(self.rescore_interval > 0, "rescore_interval must be positive")
        _require(self.saturation_outstanding >= 1, "saturation_outstanding must be >= 1")


@dataclass(frozen=True)
class LbrmConfig:
    """Aggregate configuration for a full LBRM deployment."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    logger: LoggerConfig = field(default_factory=LoggerConfig)
    statack: StatAckConfig = field(default_factory=StatAckConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    @classmethod
    def paper_defaults(cls) -> "LbrmConfig":
        """The parameter set used throughout the paper's evaluation."""
        return cls()
