"""Aggregate-form invariant checking for scale runs.

The chaos oracle grades exact deployments against I1–I4 (DESIGN.md §7)
one receiver at a time.  At aggregate scale there are no individual
receivers to grade — a site is a distribution — so the invariants are
restated over site distributions:

* **A1 (delivery, aggregate form)** — modeled losses are *conserved*:
  every drawn miss ends as a modeled recovery or an explicit modeled
  failure, and no site carries outstanding misses at run end.  On top
  of the exact conservation law, the *expected-gap* check holds the
  total miss count to the analytic Binomial expectation within a
  z-sigma band (:mod:`tests._oracles.aggregate_model`) — a
  statistically broken loss draw (wrong p, correlated streams) fails
  here even though it conserves perfectly.
* **A2 (silence bound, aggregate form)** — a site declares staleness
  only inside an outage window: a scheduled burst's ``[start, end +
  timeout]`` or a tail-circuit drop's ``[t, t + timeout]``, where the
  timeout is the site's watchdog (``watchdog_slack ×`` its expected
  interval) in effect at ``end`` or ``t``.  :meth:`AggregateOracle.watch`
  stamps both during the run.
* **A3 (log completeness)** — every site logger ends holding the full
  contiguous prefix the source released: site loggers are real
  :class:`~repro.core.logger.LogServer` machines, so this is the exact
  I3, unchanged by aggregation.
* **A4 (monotone promotion)** — the hub's roles are stable: scale runs
  schedule no failover, so any promotion or role flap is a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.logger import LoggerRole
from repro.scale.deploy import AggregateDeployment
from repro.scale.shard import ScaleScenario
from tests._oracles import aggregate_model as model

__all__ = ["AggregateViolation", "AggregateOracle"]


@dataclass(frozen=True, slots=True)
class AggregateViolation:
    """One breached aggregate invariant."""

    invariant: str  # "A1-conservation" | "A1-expected-gap" | "A2-silence" | ...
    subject: str
    detail: str


class AggregateOracle:
    """End-of-run judge for one aggregate deployment.

    ``z`` is the width of the expected-gap band in standard deviations;
    the default 6 makes a false alarm astronomically unlikely across
    repeated CI runs while still catching a loss model that is off by
    a few percent over a few thousand draws.
    """

    def __init__(self, scenario: ScaleScenario, z: float = 6.0) -> None:
        self.scenario = scenario
        self.z = z
        self.violations: list[AggregateViolation] = []
        # site index -> the A2 outage windows stamped by watch()
        self.outages: dict[int, list[tuple[float, float]]] = {}

    def watch(self, dep: AggregateDeployment) -> "AggregateOracle":
        """Call before the run: wrap each site's tail-circuit loss so every
        drop at ``t`` opens ``[t, t + the site's watchdog timeout then]``,
        and have each scheduled burst open ``[start, end + the timeout at
        end]``."""
        slack = self.scenario.spec.config.receiver.watchdog_slack
        timeouts = {}
        for i, agg in zip(dep.site_indices, dep.aggregates):
            timeouts[i] = lambda agg=agg: slack * agg._expected_interval
            link = dep.network.site(f"site{i}").tail_down
            link.loss = _StampedLoss(link.loss, timeouts[i], self.outages.setdefault(i, []))

        def close_burst(i: int, start: float, end: float) -> None:
            self.outages[i].append((start, end + timeouts[i]()))

        for start, i, duration in self.scenario.bursts:
            dep.sim.schedule(start + duration, close_burst, i, start, start + duration)
        return self

    def _flag(self, invariant: str, subject: str, detail: str) -> None:
        self.violations.append(AggregateViolation(invariant, subject, detail))

    # -- individual checks ----------------------------------------------------

    def check_conservation(self, dep: AggregateDeployment) -> None:
        """A1: drawn misses all resolve; nothing outstanding at run end."""
        for i, agg in zip(dep.site_indices, dep.aggregates):
            stats = agg.stats
            resolved = stats["modeled_recoveries"] + stats["modeled_recovery_failures"]
            pending = agg.outstanding
            if stats["modeled_losses"] != resolved + pending:
                self._flag(
                    "A1-conservation",
                    f"site{i}",
                    f"losses={stats['modeled_losses']} != recovered={stats['modeled_recoveries']}"
                    f" + failed={stats['modeled_recovery_failures']} + outstanding={pending}",
                )
            if pending:
                self._flag(
                    "A1-conservation",
                    f"site{i}",
                    f"{pending} modeled receivers still missing packets at run end",
                )

    def check_expected_gap(self, dep: AggregateDeployment) -> None:
        """A1: total misses within ±z·σ of the analytic expectation."""
        spec = self.scenario.spec
        n_tx = self.scenario.n_packets
        n_sites = len(dep.site_indices)
        per_tx_mean = model.expected_miss_count(
            spec.receivers_per_site, spec.receiver_loss, spec.shared_loss
        )
        per_tx_var = model.miss_count_variance(
            spec.receivers_per_site, spec.receiver_loss, spec.shared_loss
        )
        mean = n_sites * n_tx * per_tx_mean
        sigma = math.sqrt(n_sites * n_tx * per_tx_var)
        observed = sum(agg.stats["modeled_losses"] for agg in dep.aggregates)
        # Bursts add deterministic site-wide misses on top of the drawn
        # ones; they widen the upper band by their worst case (every
        # burst packet lost site-wide).
        burst_allowance = len(self.scenario.bursts) * n_tx * spec.receivers_per_site
        lo = mean - self.z * sigma
        hi = mean + self.z * sigma + burst_allowance
        if not lo <= observed <= hi:
            self._flag(
                "A1-expected-gap",
                "deployment",
                f"total modeled losses {observed} outside [{lo:.1f}, {hi:.1f}]"
                f" (mean {mean:.1f}, sigma {sigma:.2f}, z {self.z})",
            )

    def check_silence(self, dep: AggregateDeployment) -> None:
        """A2: staleness only inside a burst's or a tail drop's window."""
        for i, agg in zip(dep.site_indices, dep.aggregates):
            windows = self.outages.get(i, ())
            for t, kind, _seq, _count in agg.event_log:
                if kind == "stale" and not any(lo <= t <= hi for lo, hi in windows):
                    self._flag(
                        "A2-silence",
                        f"site{i}",
                        f"freshness lost at t={t:.3f} with no outage window covering it",
                    )

    def check_log_completeness(self, dep: AggregateDeployment) -> None:
        """A3: every site logger holds the full released prefix."""
        assert dep.sender is not None
        released = dep.sender.seq
        for i, logger in zip(dep.site_indices, dep.site_loggers):
            held = logger.primary_seq
            if held < released:
                self._flag(
                    "A3-log-completeness",
                    f"site{i}-logger",
                    f"holds contiguous prefix {held} < released {released}",
                )

    def check_promotion(self, dep: AggregateDeployment) -> None:
        """A4: hub roles are stable — no failover is ever scheduled."""
        assert dep.primary is not None
        if dep.primary.role is not LoggerRole.PRIMARY:
            self._flag(
                "A4-promotion",
                "primary",
                f"primary's role changed to {dep.primary.role.value}",
            )
        for i, logger in zip(dep.site_indices, dep.site_loggers):
            if logger.role is not LoggerRole.SECONDARY:
                self._flag(
                    "A4-promotion",
                    f"site{i}-logger",
                    f"site logger's role changed to {logger.role.value}",
                )

    # -- entry point ----------------------------------------------------------

    def check_all(self, dep: AggregateDeployment) -> list[AggregateViolation]:
        """Run every aggregate invariant; returns (and stores) violations."""
        self.violations = []
        self.check_conservation(dep)
        self.check_expected_gap(dep)
        self.check_silence(dep)
        self.check_log_completeness(dep)
        self.check_promotion(dep)
        return self.violations


class _StampedLoss:
    """A tail circuit's loss model that records an A2 window per drop."""

    def __init__(self, loss, timeout, windows: list[tuple[float, float]]) -> None:
        self._loss = loss
        self._timeout = timeout
        self._windows = windows

    def drops(self, now: float) -> bool:
        if self._loss.drops(now):
            self._windows.append((now, now + self._timeout()))
            return True
        return False
