"""One simnet node statistically representing N co-site receivers.

The paper's architecture makes a site's receivers *statistically
exchangeable* from the WAN's point of view: they share one tail
circuit, one site logger, and one collapsed upstream NACK (§2.2.1,
§2.2.2).  :class:`AggregateSiteReceiver` exploits that — instead of N
:class:`~repro.core.receiver.LbrmReceiver` objects it keeps one
host-level :class:`~repro.core.sequence.SequenceTracker` (shared
tail-circuit losses fall out of the simnet topology exactly as before)
and draws the *independent* per-receiver outcomes from the site's loss
model:

* per transmission, the number of modeled receivers missing it is a
  Binomial(N, p) draw (:func:`binomial_variate`);
* a loss event sends one collapsed NACK up the logger chain — the wire
  behaviour an exact site already exhibits after its logger's collapse
  — while the modeled LAN-level NACKs (one per missing receiver per
  round) are counted, not transmitted;
* each repair round thins the outstanding count binomially (every
  still-missing receiver independently loses the repair with
  probability p), producing ``(latency, count)`` weighted
  recovery-completion samples and per-round modeled repair traffic
  (k unicasts below the re-multicast threshold; at or above it, the
  threshold-1 unicasts the exact logger serves before the threshold
  trips, one site-scoped re-multicast, then unicasts for the rest of
  the request window — mirroring ``LogServer._repair`` and
  ``SiteRequestTracker``'s fire-once-per-window rule).

The statistical-conformance test tier (tests/scale/) holds these draws
to the exact engine's distributions at overlapping scales; nothing here
is trusted without that comparison.

``binomial_variate`` deliberately spends one uniform per modeled
receiver when N is small (≤ ``exact_draw_limit``): the draw sequence is
then *exchangeable* with N per-receiver Bernoulli loss draws from an
identically-seeded stream, which is what lets the property suite compare
aggregate and exact engines seed-for-seed.  Above the limit it switches
to single-uniform inversion around the binomial mode.
"""

from __future__ import annotations

import math
import random

from repro import obs
from repro.core.actions import Action, Address, JoinGroup, Notify, SendUnicast
from repro.core.config import HeartbeatConfig, ReceiverConfig
from repro.core.events import (
    FreshnessLost,
    FreshnessRestored,
    LossDetected,
    RecoveryComplete,
    RecoveryFailed,
)
from repro.core.machine import ProtocolMachine
from repro.core.packets import (
    DataPacket,
    HeartbeatPacket,
    NackPacket,
    Packet,
    RetransPacket,
)
from repro.core.sequence import SequenceTracker

__all__ = ["binomial_variate", "EXACT_DRAW_LIMIT", "AggregateSiteReceiver"]

# Below this population a binomial draw spends one uniform per modeled
# receiver, making the stream exchangeable with per-receiver Bernoulli
# draws (the conformance property the hypothesis suite pins).  64 covers
# every per-site population the exact engine is ever run at.
EXACT_DRAW_LIMIT = 64


def binomial_variate(rng: random.Random, n: int, p: float,
                     exact_limit: int = EXACT_DRAW_LIMIT) -> int:
    """One Binomial(n, p) draw from ``rng``.

    ``n ≤ exact_limit``: sum of ``n`` Bernoulli draws — one
    ``rng.random()`` per modeled receiver, in receiver order, so the
    stream is exchangeable with the exact engine's per-receiver loss
    draws.  Larger ``n``: a single uniform inverted through the binomial
    CDF, accumulated outward from the mode so the pmf recurrence never
    underflows (pmf(0) alone would for large ``n·p``).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    if n <= exact_limit:
        count = 0
        for _ in range(n):
            if rng.random() < p:
                count += 1
        return count
    u = rng.random()
    mode = int((n + 1) * p)
    if mode > n:
        mode = n
    log_pmf = (
        math.lgamma(n + 1) - math.lgamma(mode + 1) - math.lgamma(n - mode + 1)
        + mode * math.log(p) + (n - mode) * math.log1p(-p)
    )
    pmf_mode = math.exp(log_pmf)
    acc = pmf_mode
    if u <= acc:
        return mode
    lo = hi = mode
    pmf_lo = pmf_hi = pmf_mode
    ratio = p / (1.0 - p)
    while lo > 0 or hi < n:
        if hi < n:
            pmf_hi *= (n - hi) / (hi + 1) * ratio
            hi += 1
            acc += pmf_hi
            if u <= acc:
                return hi
        if lo > 0:
            pmf_lo *= lo / ((n - lo + 1) * ratio)
            lo -= 1
            acc += pmf_lo
            if u <= acc:
                return lo
    # Floating-point mass summed to slightly under 1 and u landed in the
    # sliver: the mode is the least-wrong answer.
    return mode


class _SiteRecovery:
    """Recovery state for one sequence across the site's modeled receivers."""

    __slots__ = (
        "seq", "detected_at", "outstanding", "attempts", "level", "site_wide",
        "multicast_done",
    )

    def __init__(self, seq: int, detected_at: float, outstanding: int, site_wide: bool) -> None:
        self.seq = seq
        self.detected_at = detected_at
        self.outstanding = outstanding  # modeled receivers still missing it
        self.attempts = 0  # NACK rounds sent to the current chain level
        self.level = 0  # index into the logger chain
        self.site_wide = site_wide  # everyone missed it (shared tail loss)
        self.multicast_done = False  # a re-multicast already served this window


class AggregateSiteReceiver(ProtocolMachine):
    """Statistical stand-in for ``site_size`` co-site receivers.

    Parameters
    ----------
    group:
        The multicast group to subscribe to.
    site_size:
        How many receivers this node represents.
    loss_rate:
        Independent per-receiver loss probability ``p`` — the part of
        the site's loss model the exact engine expresses as per-host
        ``inbound_loss``.  Shared tail-circuit loss stays on the simnet
        link and reaches this machine as an ordinary sequence gap.
    rng:
        The site's dedicated stream (``RngStreams.stream(f"site:...")``)
        — name-derived, so draws are identical no matter which shard the
        site lands on.
    logger_chain:
        Recovery targets nearest-first, e.g. ``(site_logger, primary)``.
    remulticast_threshold:
        The site logger's unicast-vs-remulticast cutover, used to model
        per-round repair traffic.
    """

    def __init__(
        self,
        group: str,
        site_size: int,
        loss_rate: float,
        rng: random.Random,
        *,
        config: ReceiverConfig | None = None,
        logger_chain: tuple[Address, ...] = (),
        heartbeat: HeartbeatConfig | None = None,
        remulticast_threshold: int = 3,
        node_name: str = "",
    ) -> None:
        super().__init__()
        if site_size < 1:
            raise ValueError(f"site_size must be >= 1, got {site_size}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self._group = group
        self.site_size = site_size
        self.loss_rate = loss_rate
        self._rng = rng
        self._config = config or ReceiverConfig()
        self._heartbeat = heartbeat
        self._chain = tuple(logger_chain)
        self._threshold = remulticast_threshold
        self._tracker = SequenceTracker()
        self._site: dict[int, _SiteRecovery] = {}

        # Freshness watchdog, identical to LbrmReceiver's: the aggregate
        # node hears the same multicast stream an exact receiver would,
        # so MaxIT silence means the same thing for all N it represents.
        self._last_rx: float | None = None
        self._expected_interval = self._config.max_idle_time
        self._maxit_deadline: float | None = None
        self._fresh = True
        self._stale_since: float | None = None

        # Conformance observables.  miss_draws records the modeled miss
        # count per original transmission (zeros included — the exact
        # engine's per-seq histograms have a zero bin too); samples are
        # (latency, receivers recovered) pairs per repair round.
        self.miss_draws: list[int] = []
        self.recovery_samples: list[tuple[float, int]] = []
        # Deterministic per-site event log, merged across shards by the
        # ShardedSimulator: (time, kind, seq, count) tuples.
        self.event_log: list[tuple[float, str, int, int]] = []

        self.stats = obs.stat_counters(
            "agg_receiver",
            {
                "data_received": 0,
                "heartbeats_received": 0,
                "retrans_received": 0,
                "nacks_sent": 0,  # collapsed wire NACKs actually transmitted
                "modeled_losses": 0,  # per-receiver misses drawn
                "modeled_nacks": 0,  # LAN NACKs N receivers would have sent
                "modeled_recoveries": 0,
                "modeled_recovery_failures": 0,
                "modeled_retrans_unicast": 0,
                "modeled_retrans_multicast": 0,
                "freshness_losses": 0,
            },
            node=node_name,
        )

    # -- introspection ----------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Modeled receivers currently missing at least one packet."""
        return sum(rec.outstanding for rec in self._site.values())

    @property
    def logger_chain(self) -> tuple[Address, ...]:
        return self._chain

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        self._last_rx = now
        self._expected_interval = self._config.max_idle_time
        self._maxit_deadline = now + self._config.watchdog_slack * self._expected_interval
        return [JoinGroup(group=self._group)]

    def _hb_interval(self, hb_index: int) -> float:
        if self._heartbeat is None:
            return self._config.max_idle_time
        hb = self._heartbeat
        return min(hb.h_min * hb.backoff**hb_index, hb.h_max)

    # -- inbound ----------------------------------------------------------

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        if isinstance(packet, DataPacket):
            return self._on_data(packet, now)
        if isinstance(packet, HeartbeatPacket):
            return self._on_heartbeat(packet, now)
        if isinstance(packet, RetransPacket):
            return self._on_retrans(packet, now)
        return []

    def _liveness(self, hb_index: int, now: float) -> list[Action]:
        self._expected_interval = self._hb_interval(hb_index)
        self._last_rx = now
        self._maxit_deadline = now + self._config.watchdog_slack * self._expected_interval
        if self._fresh:
            return []
        self._fresh = True
        silent = now - self._stale_since if self._stale_since is not None else 0.0
        self._stale_since = None
        return [Notify(FreshnessRestored(silent_for=silent))]

    def _on_data(self, packet: DataPacket, now: float) -> list[Action]:
        self.stats["data_received"] += 1
        report = self._tracker.observe_data(packet.seq)
        actions = self._liveness(0, now)
        if report.filled_gap:
            # A re-multicast (or sender repeat) delivered a site-wide
            # missing packet to the whole LAN: thin the outstanding
            # count exactly as a repair round would.
            actions.extend(self._repair_round(packet.seq, now, on_lan=True))
        elif report.is_new:
            k = binomial_variate(self._rng, self.site_size, self.loss_rate)
            self.miss_draws.append(k)
            if k:
                self.stats["modeled_losses"] += k
                actions.extend(self._begin_recovery(packet.seq, k, now, site_wide=False))
        if report.new_gaps:
            actions.extend(self._begin_site_wide(report.new_gaps, now))
        return actions

    def _on_heartbeat(self, packet: HeartbeatPacket, now: float) -> list[Action]:
        self.stats["heartbeats_received"] += 1
        actions = self._liveness(packet.hb_index, now)
        report = self._tracker.observe_heartbeat(packet.seq)
        if report.new_gaps:
            actions.extend(self._begin_site_wide(report.new_gaps, now))
        return actions

    def _on_retrans(self, packet: RetransPacket, now: float) -> list[Action]:
        self.stats["retrans_received"] += 1
        report = self._tracker.observe_data(packet.seq)
        # A TTL-scoped re-multicast reaches every modeled receiver's LAN
        # interface; a unicast repair lands on this node only, but stands
        # in for the per-requester unicasts the exact logger would have
        # sent — both thin the outstanding count one round.
        actions = self._repair_round(packet.seq, now, on_lan=report.filled_gap)
        if report.new_gaps:
            actions.extend(self._begin_site_wide(report.new_gaps, now))
        return actions

    # -- modeled recovery ----------------------------------------------------

    def _begin_site_wide(self, gaps: tuple[int, ...], now: float) -> list[Action]:
        """Shared tail-circuit loss: every modeled receiver missed ``gaps``."""
        fresh = [s for s in gaps if s not in self._site]
        if not fresh:
            return []
        n = self.site_size
        self.stats["modeled_losses"] += n * len(fresh)
        # Site-wide misses are deterministic (shared fate), not drawn,
        # but they belong in the per-transmission miss histogram.
        self.miss_draws.extend(n for _ in fresh)
        actions: list[Action] = []
        for seq in fresh:
            actions.extend(self._begin_recovery(seq, n, now, site_wide=True))
        return actions

    def _begin_recovery(self, seq: int, k: int, now: float, site_wide: bool) -> list[Action]:
        rec = _SiteRecovery(seq, now, k, site_wide)
        self._site[seq] = rec
        self.stats["modeled_nacks"] += k  # round 1: every missing receiver NACKs
        self.event_log.append((now, "loss", seq, k))
        actions: list[Action] = [
            Notify(LossDetected(seqs=(seq,), via_silence=False)),
        ]
        actions.extend(self._fire_nack(rec, now))
        return actions

    def _fire_nack(self, rec: _SiteRecovery, now: float) -> list[Action]:
        """Send the collapsed wire NACK for one recovery round."""
        if not self._chain:
            return self._give_up(rec, now)
        level = min(rec.level, len(self._chain) - 1)
        rec.attempts += 1
        self.timers.set(("nack", rec.seq), now + self._config.nack_retry)
        self.stats["nacks_sent"] += 1
        return [
            SendUnicast(
                dest=self._chain[level],
                packet=NackPacket(group=self._group, seqs=(rec.seq,)),
            )
        ]

    def _repair_round(self, seq: int, now: float, on_lan: bool) -> list[Action]:
        rec = self._site.get(seq)
        if rec is None:
            return []
        k = rec.outstanding
        # Model the repair traffic the exact site logger would have
        # produced for this round's k requesters.  A site-wide loss means
        # the logger itself missed the packet, so requests queue until the
        # upstream repair lands and are served by one re-multicast
        # (LogServer._serve_pending).  Otherwise the logger holds the
        # entry and serves each NACK *as it arrives* (LogServer._repair):
        # the first threshold-1 requesters get unicasts, the threshold-th
        # trips the site re-multicast, and every later request in the same
        # window — including retry rounds — falls back to unicast because
        # SiteRequestTracker fires at most once per window.
        if rec.site_wide:
            unicasts, multicasts = 0, 1
            rec.multicast_done = True
        elif k >= self._threshold and not rec.multicast_done:
            unicasts, multicasts = k - 1, 1
            rec.multicast_done = True
        else:
            unicasts, multicasts = k, 0
        if unicasts:
            self.stats["modeled_retrans_unicast"] += unicasts
            self.event_log.append((now, "repair_unicast", seq, unicasts))
        if multicasts:
            self.stats["modeled_retrans_multicast"] += multicasts
            self.event_log.append((now, "repair_multicast", seq, multicasts))
        # Each still-missing receiver independently loses the repair.  In
        # a unicast+re-multicast round all requesters but the threshold-
        # tripper are served twice (their unicast reply AND the overheard
        # site re-multicast), so they stay missing only by losing both —
        # the p² redundancy that makes the exact engine's retry rate
        # visibly lower than p.
        if unicasts and multicasts:
            dual = binomial_variate(self._rng, k - 1, self.loss_rate)
            survivors = binomial_variate(self._rng, dual, self.loss_rate)
            if self._rng.random() < self.loss_rate:  # the tripper, mc-only
                survivors += 1
        else:
            survivors = binomial_variate(self._rng, k, self.loss_rate)
        recovered = k - survivors
        actions: list[Action] = []
        if recovered:
            latency = now - rec.detected_at
            self.stats["modeled_recoveries"] += recovered
            self.recovery_samples.append((latency, recovered))
            self.event_log.append((now, "recover", seq, recovered))
        if survivors == 0:
            del self._site[seq]
            self.timers.cancel(("nack", seq))
            actions.append(
                Notify(RecoveryComplete(seq=seq, latency=now - rec.detected_at))
            )
            return actions
        # Follow-up round: the repaired copy the survivors just lost was
        # their recovery attempt; they re-NACK after the retry interval.
        # Losing the re-multicast unshares the fate: survivors are now an
        # independent minority, not the whole site.
        rec.outstanding = survivors
        rec.site_wide = False
        self.stats["modeled_nacks"] += survivors
        self.timers.set(("nack", seq), now + self._config.nack_retry)
        return actions

    # -- timers ----------------------------------------------------------

    def next_wakeup(self) -> float | None:
        due = self.timers.next_deadline()
        maxit = self._maxit_deadline
        if maxit is None:
            return due
        if due is None or maxit < due:
            return maxit
        return due

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        maxit = self._maxit_deadline
        if maxit is not None and maxit <= now:
            actions.extend(self._on_maxit(now))
        for key in self.timers.pop_due(now):
            rec = self._site.get(key[1])
            if rec is None:
                continue
            if rec.attempts >= self._config.max_nack_retries + 1:
                actions.extend(self._escalate(rec, now))
            else:
                actions.extend(self._fire_nack(rec, now))
        return actions

    def _on_maxit(self, now: float) -> list[Action]:
        idle = now - self._last_rx if self._last_rx is not None else self._config.max_idle_time
        self._maxit_deadline = now + self._config.watchdog_slack * self._expected_interval
        if not self._fresh:
            return []
        self._fresh = False
        self._stale_since = self._last_rx
        self.stats["freshness_losses"] += 1
        self.event_log.append((now, "stale", -1, self.site_size))
        return [
            Notify(FreshnessLost(idle_for=idle)),
            Notify(LossDetected(seqs=(), via_silence=True)),
        ]

    def _escalate(self, rec: _SiteRecovery, now: float) -> list[Action]:
        if rec.level + 1 < len(self._chain):
            rec.level += 1
            rec.attempts = 0
            return self._fire_nack(rec, now)
        return self._give_up(rec, now)

    def _give_up(self, rec: _SiteRecovery, now: float) -> list[Action]:
        self._site.pop(rec.seq, None)
        self.timers.cancel(("nack", rec.seq))
        self._tracker.abandon((rec.seq,))
        self.stats["modeled_recovery_failures"] += rec.outstanding
        self.event_log.append((now, "abandon", rec.seq, rec.outstanding))
        return [Notify(RecoveryFailed(seq=rec.seq, attempts=rec.attempts))]

    # -- shard merge support ----------------------------------------------

    def digest(self) -> dict:
        """Deterministic, JSON-stable summary used by shard merge tests."""
        return {
            "site_size": self.site_size,
            "stats": dict(self.stats),
            "miss_draws": list(self.miss_draws),
            "samples": [(round(t, 9), c) for t, c in self.recovery_samples],
            "events": [(round(t, 9), kind, seq, c) for t, kind, seq, c in self.event_log],
        }
