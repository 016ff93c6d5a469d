"""Statistical conformance: aggregate model vs the exact engine.

The contract the aggregate site receiver must honour: at overlapping
scales, running the *same* workload (same site count, per-site
population, loss rate, packet timeline) through

* the exact engine — one :class:`LbrmReceiver` per receiver with
  per-host Bernoulli ``inbound_loss``, and
* the aggregate engine — one :class:`AggregateSiteReceiver` per site
  drawing Binomial miss counts,

both built from one :class:`DeploymentSpec` (with or without the
shared tail-circuit loss, which both engines draw from the same
``loss:{site}.tail.down`` stream),

yields the same *distributions* for the protocol's observables:

1. per-transmission miss counts (equivalently round-1 NACKs per
   heartbeat interval) — χ² homogeneity over the count histograms;
2. repair traffic — KS over per-(site, run) unicast-repair totals and
   χ² over the unicast/re-multicast split;
3. recovery latency — KS over per-receiver recovery-completion delays
   (both engines measure from loss *detection*, which is what makes
   the distributions comparable even though the aggregate detects at
   the original packet's arrival).

Runs are seeded and deterministic, so the asserted p-values are stable
— a failure is a model regression, not noise.  The N=10 comparison is
the quick tier; the N∈{5,20,50} sweep is marked ``slow``.  Each runs
with and without shared loss.  Analytic asymptote tracking (large-N
populations only the aggregate engine can host) closes the tier.
"""

from __future__ import annotations

import math

import pytest

from repro.core.events import LossDetected, RecoveryComplete
from repro.core.logger import LoggerRole
from repro.scale.deploy import AggregateDeployment
from repro.scale.shard import ScaleScenario
from repro.simnet import DeploymentSpec, LbrmDeployment
from tests._oracles import aggregate_model as model
from tests._oracles.aggregate_oracle import AggregateOracle
from tests._oracles.stats import chi2_homogeneity, ks_2sample

# Deterministic seeds => deterministic p-values: this threshold rejects
# a broken model, not an unlucky draw.  The seed pool is sized so the
# null operating point sits well inside the acceptance region — with
# only a handful of seeds a perfectly correct model can land at
# p < 0.01 by chance (5 seeds at N=10 did exactly that).
P_MIN = 0.01
SEEDS = tuple(range(20))

N_SITES = 4
N_PACKETS = 12
INTERVAL = 0.05
WARMUP = 0.2
DRAIN = 3.0
# Compared sequence window: seq 1 is excluded because an exact receiver
# that misses the very first packet may baseline its tracker past it.
FIRST_SEQ, LAST_SEQ = 2, N_PACKETS


class RunSample:
    """One run's conformance observables."""

    def __init__(self) -> None:
        self.miss_counts: list[int] = []  # per (site, seq in window)
        self.latencies: list[float] = []  # per recovered receiver
        self.unicast_totals: list[int] = []  # per site
        self.multicast_total = 0


def _quantize(latency: float) -> float:
    """Round a latency to 1 µs before comparison.

    The two engines accumulate event times in different orders, so the
    same 2 ms repair round can land at 0.0019999999999997797 in one and
    0.0020000000000000018 in the other — a 2e-16 gap the KS statistic
    would otherwise count as genuine distributional separation.
    """
    return round(latency, 6)


def _drive(dep) -> None:
    dep.start()
    dep.advance(WARMUP)
    for i in range(N_PACKETS):
        dep.send(f"pkt-{i}".encode())
        dep.advance(INTERVAL)
    dep.advance(DRAIN)


def _watch(dep: AggregateDeployment, bursts=()) -> AggregateOracle:
    """The A1-A4 judge of ``dep``, watching it from before ``_drive``."""
    scenario = ScaleScenario(spec=dep.spec, n_packets=N_PACKETS, interval=INTERVAL,
                             warmup=WARMUP, drain=DRAIN, bursts=bursts)
    return AggregateOracle(scenario).watch(dep)


def _judge(dep: AggregateDeployment, oracle: AggregateOracle) -> list[str]:
    """Invariants A1-A4 breached by a deployment ``_drive`` has run."""
    return [v.invariant for v in oracle.check_all(dep)]


def _spec(n_per_site: int, p: float, seed: int, shared: float = 0.0) -> DeploymentSpec:
    return DeploymentSpec(n_sites=N_SITES, receivers_per_site=n_per_site,
                          receiver_loss=p, shared_loss=shared, seed=seed)


def run_exact(spec: DeploymentSpec) -> RunSample:
    dep = LbrmDeployment(spec)
    _drive(dep)

    sample = RunSample()
    miss: dict[tuple[int, int], int] = {}
    for node in dep.receiver_nodes:
        site_index = int(node.name.split("-")[0][4:])
        for event in node.events_of(LossDetected):
            for seq in event.seqs:
                if FIRST_SEQ <= seq <= LAST_SEQ:
                    key = (site_index, seq)
                    miss[key] = miss.get(key, 0) + 1
        sample.latencies.extend(
            _quantize(event.latency)
            for event in node.events_of(RecoveryComplete)
            if FIRST_SEQ <= event.seq <= LAST_SEQ
        )
    for i in range(1, N_SITES + 1):
        for seq in range(FIRST_SEQ, LAST_SEQ + 1):
            sample.miss_counts.append(miss.get((i, seq), 0))
    for logger in dep.site_loggers:
        sample.unicast_totals.append(logger.stats["retrans_unicast"])
        sample.multicast_total += logger.stats["retrans_multicast"]
    return sample


def run_aggregate(spec: DeploymentSpec) -> RunSample:
    dep = AggregateDeployment(spec)
    oracle = _watch(dep)
    _drive(dep)
    assert _judge(dep, oracle) == []

    sample = RunSample()
    for agg in dep.aggregates:
        per_seq = {}
        detected_at = {}
        unicasts = 0
        for t, kind, seq, count in agg.event_log:
            if kind == "loss":
                per_seq[seq] = count
                detected_at[seq] = t
                continue
            if not FIRST_SEQ <= seq <= LAST_SEQ:
                # Seq 1 is modeled here but invisible to the exact
                # engine: a receiver missing the very first packet
                # baselines past it and never recovers it.
                continue
            if kind == "recover":
                sample.latencies.extend([_quantize(t - detected_at[seq])] * count)
            elif kind == "repair_unicast":
                unicasts += count
            elif kind == "repair_multicast":
                sample.multicast_total += count
        for seq in range(FIRST_SEQ, LAST_SEQ + 1):
            sample.miss_counts.append(per_seq.get(seq, 0))
        sample.unicast_totals.append(unicasts)
    return sample


def _collect(n_per_site: int, p: float, shared: float) -> tuple[RunSample, RunSample]:
    exact = RunSample()
    aggregate = RunSample()
    for seed in SEEDS:
        spec = _spec(n_per_site, p, seed, shared)
        for pooled, one in ((exact, run_exact(spec)), (aggregate, run_aggregate(spec))):
            pooled.miss_counts.extend(one.miss_counts)
            pooled.latencies.extend(one.latencies)
            pooled.unicast_totals.extend(one.unicast_totals)
            pooled.multicast_total += one.multicast_total
    return exact, aggregate


def _assert_conformance(n_per_site: int, p: float, shared: float = 0.0) -> None:
    exact, aggregate = _collect(n_per_site, p, shared)

    # 1. NACKs-per-heartbeat: per-transmission miss-count histograms.
    top = n_per_site
    hist_exact = [0] * (top + 1)
    hist_aggregate = [0] * (top + 1)
    for k in exact.miss_counts:
        hist_exact[min(k, top)] += 1
    for k in aggregate.miss_counts:
        hist_aggregate[min(k, top)] += 1
    miss_result = chi2_homogeneity(hist_exact, hist_aggregate)
    assert miss_result.pvalue > P_MIN, (
        f"miss-count distributions diverged: chi2={miss_result.statistic:.2f} "
        f"dof={miss_result.dof} p={miss_result.pvalue:.4g}"
    )

    # 2a. Repair traffic: per-site unicast totals.
    assert exact.unicast_totals and aggregate.unicast_totals
    unicast_result = ks_2sample(exact.unicast_totals, aggregate.unicast_totals)
    assert unicast_result.pvalue > P_MIN, (
        f"unicast repair totals diverged: D={unicast_result.statistic:.3f} "
        f"p={unicast_result.pvalue:.4g}"
    )
    # 2b. The unicast/re-multicast split (pooled away when multicasts
    # are too rare to test — small N at low p).
    split = chi2_homogeneity(
        [sum(exact.unicast_totals), exact.multicast_total],
        [sum(aggregate.unicast_totals), aggregate.multicast_total],
    )
    assert split.pvalue > P_MIN, (
        f"unicast/multicast split diverged: exact="
        f"{sum(exact.unicast_totals)}/{exact.multicast_total} aggregate="
        f"{sum(aggregate.unicast_totals)}/{aggregate.multicast_total} "
        f"p={split.pvalue:.4g}"
    )

    # 3. Recovery latency.
    assert exact.latencies and aggregate.latencies
    latency_result = ks_2sample(exact.latencies, aggregate.latencies)
    assert latency_result.pvalue > P_MIN, (
        f"recovery-latency distributions diverged: D={latency_result.statistic:.3f} "
        f"p={latency_result.pvalue:.4g}"
    )


class TestConformanceQuick:
    def test_aggregate_matches_exact_engine_at_n10(self):
        _assert_conformance(n_per_site=10, p=0.05)

    def test_aggregate_matches_exact_engine_at_n10_under_shared_loss(self):
        _assert_conformance(n_per_site=10, p=0.05, shared=0.02)


@pytest.mark.slow
class TestConformanceSweep:
    @pytest.mark.parametrize("n_per_site", [5, 20, 50])
    def test_aggregate_matches_exact_engine(self, n_per_site):
        _assert_conformance(n_per_site=n_per_site, p=0.05)

    @pytest.mark.parametrize("n_per_site", [5, 20, 50])
    def test_aggregate_matches_exact_engine_under_shared_loss(self, n_per_site):
        _assert_conformance(n_per_site=n_per_site, p=0.05, shared=0.02)


class TestAnalyticAsymptotics:
    """Populations only the aggregate engine can host must track the
    closed-form oracle as N grows."""

    @pytest.mark.parametrize("n_per_site", [200, 2000, 20000])
    def test_total_misses_track_binomial_expectation(self, n_per_site):
        p = 0.01
        dep = AggregateDeployment(
            DeploymentSpec(n_sites=2, receivers_per_site=n_per_site,
                           receiver_loss=p, seed=42)
        )
        oracle = _watch(dep)
        _drive(dep)
        assert _judge(dep, oracle) == []
        n_tx = len(dep.aggregates[0].miss_draws)
        draws = [k for agg in dep.aggregates for k in agg.miss_draws]
        mean = 2 * n_tx * model.expected_miss_count(n_per_site, p)
        sigma = math.sqrt(2 * n_tx * model.miss_count_variance(n_per_site, p))
        assert abs(sum(draws) - mean) < 6.0 * sigma

    def test_site_nack_rate_tracks_analytic_probability(self):
        # At N=2000, p=1e-4 the per-transmission site NACK probability is
        # 1-(1-p)^N ~ 0.181: the collapsed-NACK rate (fraction of
        # transmissions with any miss) must match it.
        n_per_site, p = 2000, 1e-4
        hits = draws = 0
        for seed in SEEDS:
            dep = AggregateDeployment(
                DeploymentSpec(n_sites=4, receivers_per_site=n_per_site,
                               receiver_loss=p, seed=seed)
            )
            oracle = _watch(dep)
            _drive(dep)
            assert _judge(dep, oracle) == []
            for agg in dep.aggregates:
                draws += len(agg.miss_draws)
                hits += sum(1 for k in agg.miss_draws if k > 0)
        expected = model.site_nack_probability(n_per_site, p)
        sigma = math.sqrt(draws * expected * (1.0 - expected))
        assert abs(hits - draws * expected) < 6.0 * sigma

    def test_recovery_rounds_grow_logarithmically(self):
        # The modeled repair loop is the E[R] ~ log_{1/p} N process: the
        # worst site-wide recovery should need about that many rounds.
        p = 0.3
        rounds_small = model.expected_recovery_rounds(100, p)
        rounds_large = model.expected_recovery_rounds(10_000, p)
        assert rounds_large - rounds_small == pytest.approx(
            2.0 / math.log10(1.0 / p), rel=0.05
        )


class TestAggregateOracle:
    """The judge every deployment above ends with must itself flag a
    broken run: one sabotage per invariant."""

    OUTAGE = ((WARMUP + 2 * INTERVAL, 2, 3 * INTERVAL),)
    END = WARMUP + N_PACKETS * INTERVAL + DRAIN

    def _run(self, bursts=(), shared_loss=0.0) -> tuple[AggregateDeployment, AggregateOracle]:
        dep = AggregateDeployment(
            DeploymentSpec(n_sites=10, receivers_per_site=1000, receiver_loss=0.01,
                           shared_loss=shared_loss, seed=3)
        )
        oracle = _watch(dep, bursts)
        for start, site, duration in bursts:
            dep.burst_site(f"site{site}", duration, start=start)
        _drive(dep)
        return dep, oracle

    @staticmethod
    def _stale(dep: AggregateDeployment, site: int, t: float) -> None:
        dep.aggregates[dep.site_indices.index(site)].event_log.append((t, "stale", -1, 1000))

    def test_clean_runs_pass_with_and_without_a_tail_outage(self):
        assert _judge(*self._run()) == []
        dep, oracle = self._run(self.OUTAGE)
        assert dep.aggregates[1].stats["modeled_losses"] >= 3 * 1000  # site-wide misses
        assert _judge(dep, oracle) == []

    def test_a_lost_recovery_breaks_conservation(self):
        dep, oracle = self._run()
        dep.aggregates[0].stats["modeled_recoveries"] -= 1
        assert _judge(dep, oracle) == ["A1-conservation"]

    def test_a_wrong_loss_rate_leaves_the_expected_gap_band(self):
        dep, oracle = self._run()
        for agg in dep.aggregates:
            agg.stats["modeled_losses"] *= 2
            agg.stats["modeled_recoveries"] *= 2
        assert _judge(dep, oracle) == ["A1-expected-gap"]

    def test_staleness_outside_any_outage_is_flagged(self):
        dep, oracle = self._run(self.OUTAGE)
        self._stale(dep, 5, WARMUP)
        assert _judge(dep, oracle) == ["A2-silence"]
        # The same event at the bursted site, inside its window, is legal.
        dep, oracle = self._run(self.OUTAGE)
        self._stale(dep, 2, self.OUTAGE[0][0] + 0.01)
        assert _judge(dep, oracle) == []
        # At the bursted site before its window opens, it is not.
        dep, oracle = self._run(self.OUTAGE)
        self._stale(dep, 2, WARMUP)
        assert _judge(dep, oracle) == ["A2-silence"]

    def test_a_burst_window_ends_one_watchdog_timeout_after_the_burst(self):
        """Not ``watchdog_slack × h_max`` (64 s, longer than the run): the
        timeout in effect when the burst ends, here 0.5 s."""
        dep, oracle = self._run(self.OUTAGE)
        start, _, duration = self.OUTAGE[0]
        assert oracle.outages[2] == [(start, start + duration + 0.5)]
        self._stale(dep, 2, 3.79)
        assert _judge(dep, oracle) == ["A2-silence"]

    def test_under_shared_loss_only_a_site_whose_tail_dropped_may_go_stale(self):
        """A site may go stale only inside one of its drop windows [t, t +
        the watchdog timeout at t]: not at a site that dropped nothing,
        and not at a lossy site before its first drop."""
        dep, oracle = self._run(shared_loss=0.02)
        lossy = next(i for i, windows in oracle.outages.items() if windows)
        clean = next(i for i, windows in oracle.outages.items() if not windows)
        first_drop, first_end = oracle.outages[lossy][0]
        assert _judge(dep, oracle) == []
        self._stale(dep, lossy, (first_drop + first_end) / 2)
        assert _judge(dep, oracle) == []
        self._stale(dep, lossy, first_drop - INTERVAL)
        assert _judge(dep, oracle) == ["A2-silence"]
        dep, oracle = self._run(shared_loss=0.02)
        self._stale(dep, clean, first_drop)
        assert _judge(dep, oracle) == ["A2-silence"]

    def test_a_stale_event_one_interval_past_a_drop_window_is_flagged(self):
        """The mutant: one expected interval past a drop's window, inside
        the run and outside the site's other windows, is flagged; the same
        event at the window's end is not."""
        dep, oracle = self._run(shared_loss=0.02)
        slack = dep.spec.config.receiver.watchdog_slack
        late = []
        for site, windows in oracle.outages.items():
            for lo, hi in windows:
                past = hi + (hi - lo) / slack  # (slack + 1) expected intervals after the drop
                if past < self.END and not any(a <= past <= b for a, b in windows):
                    late.append((site, hi, past))
        assert late, "no drop window the run outlasts"
        site, inside, past = late[0]
        self._stale(dep, site, inside)
        assert _judge(dep, oracle) == []
        self._stale(dep, site, past)
        assert _judge(dep, oracle) == ["A2-silence"]

    def test_a_trimmed_site_logger_is_incomplete(self):
        dep, oracle = self._run()
        dep.site_loggers[2].tracker._missing.add(N_PACKETS - 1)
        assert _judge(dep, oracle) == ["A3-log-completeness"]

    def test_a_role_change_is_flagged(self):
        dep, oracle = self._run()
        dep.site_loggers[0]._role = LoggerRole.REPLICA
        assert _judge(dep, oracle) == ["A4-promotion"]
