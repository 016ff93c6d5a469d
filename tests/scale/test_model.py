"""The analytic oracle behind the conformance tier.

These are closed-form functions, so the tests are exact: edge cases
(zero receivers, p → 0, p → 1), known identities (Binomial mean and
variance, inclusion–exclusion), and the large-``n`` asymptotics the
aggregate model is required to track.
"""

from __future__ import annotations

import math

import pytest

from tests._oracles.aggregate_model import (
    expected_miss_count,
    expected_recovery_rounds,
    expected_repair_packets,
    expected_wan_nacks,
    miss_count_variance,
    recovery_rounds_asymptote,
    site_nack_probability,
)


class TestMissCount:
    def test_zero_receivers_miss_nothing(self):
        assert expected_miss_count(0, 0.5, 0.5) == 0.0
        assert miss_count_variance(0, 0.5, 0.5) == 0.0
        assert site_nack_probability(0, 0.9, 0.0) == 0.0

    def test_p_zero_means_no_misses(self):
        assert expected_miss_count(100, 0.0) == 0.0
        assert miss_count_variance(100, 0.0) == 0.0
        assert site_nack_probability(100, 0.0) == 0.0

    def test_p_one_means_everyone_misses(self):
        assert expected_miss_count(100, 1.0) == 100.0
        assert miss_count_variance(100, 1.0) == 0.0
        assert site_nack_probability(100, 1.0) == 1.0

    def test_shared_one_is_deterministic_site_loss(self):
        assert expected_miss_count(40, 0.1, shared=1.0) == 40.0
        assert miss_count_variance(40, 0.1, shared=1.0) == pytest.approx(0.0, abs=1e-9)
        assert site_nack_probability(40, 0.0, shared=1.0) == 1.0

    def test_binomial_mean_and_variance_without_shared(self):
        n, p = 50, 0.03
        assert expected_miss_count(n, p) == pytest.approx(n * p)
        assert miss_count_variance(n, p) == pytest.approx(n * p * (1 - p))

    def test_shared_loss_adds_variance(self):
        assert miss_count_variance(50, 0.03, shared=0.01) > miss_count_variance(50, 0.03)

    def test_tiny_p_huge_n_does_not_round_to_zero(self):
        # 1e6 receivers at p=1e-7: P(any miss) ~ 0.095, not 0.
        p_any = site_nack_probability(1_000_000, 1e-7)
        assert p_any == pytest.approx(-math.expm1(-0.1), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_miss_count(-1, 0.1)
        with pytest.raises(ValueError):
            expected_miss_count(10, 1.5)
        with pytest.raises(ValueError):
            miss_count_variance(10, -0.1)
        with pytest.raises(ValueError):
            site_nack_probability(10, 0.1, shared=2.0)


class TestWanNacks:
    def test_distributed_collapses_to_one_per_site(self):
        # High per-receiver loss: distributed ~ 1 NACK/site, centralized
        # ~ n*p per site — the Figure 7 gap at any scale.
        distributed = expected_wan_nacks(50, 20, 0.5, distributed=True)
        centralized = expected_wan_nacks(50, 20, 0.5, distributed=False)
        assert distributed <= 50.0
        assert centralized == pytest.approx(50 * 20 * 0.5)
        assert centralized > 10 * distributed

    def test_zero_sites(self):
        assert expected_wan_nacks(0, 20, 0.1) == 0.0

    def test_negative_sites_rejected(self):
        with pytest.raises(ValueError):
            expected_wan_nacks(-1, 20, 0.1)


class TestRecoveryRounds:
    def test_edge_cases(self):
        assert expected_recovery_rounds(0, 0.3) == 0.0
        assert expected_recovery_rounds(10, 0.0) == 1.0
        assert expected_recovery_rounds(10, 1.0) == math.inf
        assert recovery_rounds_asymptote(0, 0.3) == 0.0
        assert recovery_rounds_asymptote(10, 0.0) == 1.0
        assert recovery_rounds_asymptote(10, 1.0) == math.inf

    def test_single_receiver_is_geometric_mean(self):
        # One receiver: rounds ~ Geometric(1-p), mean 1/(1-p).
        for p in (0.1, 0.3, 0.6):
            assert expected_recovery_rounds(1, p) == pytest.approx(1.0 / (1.0 - p), rel=1e-9)

    def test_monotone_in_population_and_loss(self):
        assert (
            expected_recovery_rounds(10, 0.1)
            < expected_recovery_rounds(100, 0.1)
            < expected_recovery_rounds(100, 0.3)
        )

    def test_asymptote_tracks_exact_sum_as_n_grows(self):
        # |E[R] - asymptote| must shrink as n grows: the log_{1/p} n
        # growth law of the shared-loss-tree literature.
        p = 0.25
        errors = [
            abs(expected_recovery_rounds(n, p) - recovery_rounds_asymptote(n, p))
            for n in (10, 100, 10_000, 1_000_000)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.05

    def test_growth_is_logarithmic(self):
        # Multiplying n by 1/p adds ~one round.
        p = 0.1
        assert expected_recovery_rounds(10_000, p) - expected_recovery_rounds(
            1_000, p
        ) == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_recovery_rounds(-1, 0.1)
        with pytest.raises(ValueError):
            recovery_rounds_asymptote(10, 1.0001)


class TestRepairPackets:
    def test_zero_population_or_no_loss(self):
        assert expected_repair_packets(0, 0.5, 3) == 0.0
        assert expected_repair_packets(20, 0.0, 3) == 0.0

    def test_certain_loss(self):
        # Everyone misses: one re-multicast if n reaches the threshold,
        # n unicasts otherwise.
        assert expected_repair_packets(20, 1.0, 3) == 1.0
        assert expected_repair_packets(2, 1.0, 3) == 2.0

    def test_threshold_one_is_always_one_multicast_when_any_loss(self):
        # threshold=1: any k >= 1 is served by a single re-multicast, so
        # the expectation is exactly P(k >= 1).
        n, p = 30, 0.07
        expected = site_nack_probability(n, p)
        assert expected_repair_packets(n, p, 1) == pytest.approx(expected, rel=1e-9)

    def test_huge_threshold_reduces_to_mean_unicasts(self):
        # Never re-multicast: expectation is E[k] = n*p.
        n, p = 25, 0.04
        assert expected_repair_packets(n, p, n + 1) == pytest.approx(n * p, rel=1e-9)

    def test_bounded_by_unicast_mean_and_above_multicast_floor(self):
        value = expected_repair_packets(50, 0.1, 3)
        assert 0.0 < value <= 50 * 0.1

    def test_exact_small_case_by_enumeration(self):
        # n=3, p=0.5, threshold=2: E = 1*P(k=1) + 1*P(k>=2)
        p1 = 3 * 0.5**3
        p_ge2 = 3 * 0.5**3 + 0.5**3
        assert expected_repair_packets(3, 0.5, 2) == pytest.approx(p1 + p_ge2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_repair_packets(10, 0.1, 0)
        with pytest.raises(ValueError):
            expected_repair_packets(10, -0.5, 3)
