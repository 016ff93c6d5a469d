"""Property suite for the aggregate site receiver (hypothesis).

The load-bearing property is *exchangeability*: at small populations
``binomial_variate`` spends exactly one uniform per modeled receiver,
in receiver order, so an aggregate draw is bit-for-bit the sum of the
per-receiver Bernoulli draws the exact engine would have made from an
identically-seeded stream.  That is the bridge that lets the
conformance tier compare the two engines seed-for-seed.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import SendUnicast
from repro.core.config import HeartbeatConfig, ReceiverConfig
from repro.core.events import RecoveryFailed
from repro.core.packets import DataPacket
from repro.scale.aggregate import (
    EXACT_DRAW_LIMIT,
    AggregateSiteReceiver,
    binomial_variate,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
loss_rates = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)


class TestBinomialVariate:
    @given(
        n=st.integers(min_value=0, max_value=EXACT_DRAW_LIMIT),
        p=probabilities,
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_small_n_exchangeable_with_per_receiver_bernoulli(self, n, p, seed):
        aggregate = binomial_variate(random.Random(seed), n, p)
        exact_stream = random.Random(seed)
        per_receiver = sum(1 for _ in range(n) if exact_stream.random() < p)
        assert aggregate == per_receiver

    @given(
        n=st.integers(min_value=0, max_value=EXACT_DRAW_LIMIT),
        p=st.floats(min_value=0.001, max_value=0.999),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_small_n_consumes_exactly_n_uniforms(self, n, p, seed):
        # Stream position after the draw matches n Bernoulli draws, so an
        # aggregate site and n exact receivers stay in lockstep forever.
        rng = random.Random(seed)
        binomial_variate(rng, n, p)
        twin = random.Random(seed)
        for _ in range(n):
            twin.random()
        assert rng.random() == twin.random()

    @given(
        n=st.integers(min_value=0, max_value=5000),
        p=probabilities,
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_draw_always_within_population(self, n, p, seed):
        k = binomial_variate(random.Random(seed), n, p)
        assert 0 <= k <= n

    @given(
        n=st.integers(min_value=65, max_value=2000),
        p=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_large_n_inversion_within_population(self, n, p, seed):
        k = binomial_variate(random.Random(seed), n, p)
        assert 0 <= k <= n

    @given(n=st.integers(min_value=0, max_value=1000), seed=st.integers(0, 2**32))
    def test_degenerate_probabilities(self, n, seed):
        assert binomial_variate(random.Random(seed), n, 0.0) == 0
        assert binomial_variate(random.Random(seed), n, 1.0) == n

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_variate(random.Random(0), -1, 0.5)
        with pytest.raises(ValueError):
            binomial_variate(random.Random(0), 10, 1.5)
        with pytest.raises(ValueError):
            binomial_variate(random.Random(0), 10, -0.1)

    def test_large_n_distribution_matches_exact_path(self):
        # The single-uniform inversion (n > limit) and the Bernoulli sum
        # (n <= limit) must draw from the same Binomial(n, p): compare
        # the two paths' histograms with our own chi^2 test.
        from repro.scale.stats import chi2_homogeneity

        n, p, draws = 200, 0.05, 4000
        inversion = random.Random(101)
        bernoulli = random.Random(202)
        counts_a = [0] * (n + 1)
        counts_b = [0] * (n + 1)
        for _ in range(draws):
            counts_a[binomial_variate(inversion, n, p)] += 1
            counts_b[binomial_variate(bernoulli, n, p, exact_limit=n)] += 1
        result = chi2_homogeneity(counts_a, counts_b)
        assert result.pvalue > 0.01


def _machine(site_size: int, loss_rate: float, seed: int) -> AggregateSiteReceiver:
    return AggregateSiteReceiver(
        "g",
        site_size,
        loss_rate,
        random.Random(seed),
        config=ReceiverConfig(),
        logger_chain=("logger", "primary"),
        heartbeat=HeartbeatConfig(),
    )


def _feed(machine: AggregateSiteReceiver, seqs, start=1.0, step=0.05):
    now = start
    for seq in seqs:
        machine.handle(DataPacket(group="g", seq=seq, payload=b"x"), "source", now)
        now += step
    return now


class TestAggregateSiteReceiver:
    @given(
        site_size=st.integers(min_value=1, max_value=60),
        loss_rate=loss_rates,
        n_packets=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_never_exceed_site_population(self, site_size, loss_rate, n_packets, seed):
        machine = _machine(site_size, loss_rate, seed)
        machine.start(0.0)
        _feed(machine, range(1, n_packets + 1))
        assert all(0 <= k <= site_size for k in machine.miss_draws)
        assert len(machine.miss_draws) == n_packets
        assert 0 <= machine.outstanding <= site_size * n_packets
        for _t, kind, _seq, count in machine.event_log:
            assert count <= site_size, kind
        # Conservation: every drawn miss is recovered, failed, or pending.
        stats = machine.stats
        assert stats["modeled_losses"] == (
            stats["modeled_recoveries"]
            + stats["modeled_recovery_failures"]
            + machine.outstanding
        )

    @given(
        site_size=st.integers(min_value=1, max_value=60),
        n_packets=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_loss_site_emits_zero_nacks(self, site_size, n_packets, seed):
        machine = _machine(site_size, 0.0, seed)
        machine.start(0.0)
        actions = []
        now = 1.0
        for seq in range(1, n_packets + 1):
            actions += machine.handle(DataPacket(group="g", seq=seq, payload=b"x"), "source", now)
            actions += machine.poll(now)
            now += 0.05
        assert not any(isinstance(a, SendUnicast) for a in actions)
        assert machine.stats["nacks_sent"] == 0
        assert machine.stats["modeled_nacks"] == 0
        assert machine.stats["modeled_losses"] == 0
        assert machine.miss_draws == [0] * n_packets

    @given(
        site_size=st.integers(min_value=1, max_value=60),
        loss_rate=loss_rates,
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_aggregate_draw_matches_exact_bernoulli_stream(self, site_size, loss_rate, seed):
        # Same seed, same site: the aggregate's first miss draw equals
        # what N per-receiver Bernoulli losses would have produced.
        machine = _machine(site_size, loss_rate, seed)
        machine.start(0.0)
        machine.handle(DataPacket(group="g", seq=1, payload=b"x"), "source", 1.0)
        exact_stream = random.Random(seed)
        expected = sum(1 for _ in range(site_size) if exact_stream.random() < loss_rate)
        assert machine.miss_draws == [expected]

    def test_site_wide_gap_counts_whole_population(self):
        machine = _machine(25, 0.0, seed=3)
        machine.start(0.0)
        _feed(machine, [1, 3])  # seq 2 lost site-wide (tracker gap)
        assert 25 in machine.miss_draws
        assert machine.stats["modeled_losses"] == 25
        assert machine.outstanding == 25

    def test_silent_logger_chain_escalates_then_gives_up(self):
        """NACK retries exhausted at every level: the site's misses end as
        modeled failures, nothing stays outstanding, conservation holds."""
        machine = _machine(25, 0.0, seed=3)
        machine.start(0.0)
        _feed(machine, [1, 3])  # seq 2 lost site-wide; no logger ever answers
        nacked, failed = [], []
        while (due := machine.timers.next_deadline()) is not None:
            for action in machine.poll(due):
                if isinstance(action, SendUnicast):
                    nacked.append(action.dest)
                elif isinstance(getattr(action, "event", None), RecoveryFailed):
                    failed.append(action.event.seq)
        per_level = ReceiverConfig().max_nack_retries + 1
        # (the first NACK to the site logger left with the gap report)
        assert nacked == ["logger"] * (per_level - 1) + ["primary"] * per_level
        assert failed == [2]
        stats = machine.stats
        assert stats["modeled_recovery_failures"] == 25
        assert machine.outstanding == 0
        assert stats["modeled_losses"] == (
            stats["modeled_recoveries"] + stats["modeled_recovery_failures"]
        )
        assert machine.event_log[-1][1:] == ("abandon", 2, 25)

    def test_no_logger_chain_gives_up_at_once(self):
        machine = AggregateSiteReceiver("g", 25, 0.0, random.Random(3))
        machine.start(0.0)
        _feed(machine, [1, 3])
        assert machine.stats["modeled_recovery_failures"] == 25
        assert machine.stats["nacks_sent"] == 0
        assert machine.outstanding == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            _machine(0, 0.1, seed=0)
        with pytest.raises(ValueError):
            _machine(10, 1.0, seed=0)
