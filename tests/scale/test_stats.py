"""The conformance tier's statistics, pinned against scipy.

``tests/_oracles/stats.py`` is stdlib-only because CI's tier-1 job
installs no scipy; where scipy is available it serves as the oracle's
oracle — our KS statistic, the Kolmogorov survival function, the χ²
survival function, and the 2×K homogeneity test must agree with
``scipy.stats`` / ``scipy.special``.  The pure-stdlib edge cases (ties,
pooling, validation) run everywhere.
"""

from __future__ import annotations

import math
import random

import pytest

from tests._oracles.stats import (
    Chi2Result,
    chi2_homogeneity,
    chi2_sf,
    kolmogorov_sf,
    ks_2sample,
    ks_statistic,
)


class TestKsStatistic:
    def test_identical_samples_have_zero_distance(self):
        sample = [3, 1, 4, 1, 5, 9, 2, 6]
        assert ks_statistic(sample, list(sample)) == 0.0

    def test_heavily_tied_integer_samples(self):
        # 60/40 vs 40/60 split over two values: |F_a - F_b| peaks at 0.2
        # between the two atoms.
        a = [0] * 60 + [1] * 40
        b = [0] * 40 + [1] * 60
        assert ks_statistic(a, b) == pytest.approx(0.2)

    def test_disjoint_samples_have_distance_one(self):
        assert ks_statistic([1, 2, 3], [10, 11]) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])
        with pytest.raises(ValueError):
            ks_statistic([1.0], [])

    def test_symmetry(self):
        rng = random.Random(7)
        a = [rng.gauss(0, 1) for _ in range(50)]
        b = [rng.gauss(0.5, 1) for _ in range(70)]
        assert ks_statistic(a, b) == ks_statistic(b, a)


class TestKs2Sample:
    def test_identical_samples_pass(self):
        a = [float(i % 10) for i in range(200)]
        result = ks_2sample(a, list(a))
        assert result.statistic == 0.0
        assert result.pvalue == 1.0

    def test_shifted_samples_fail(self):
        rng = random.Random(1)
        a = [rng.gauss(0, 1) for _ in range(300)]
        b = [rng.gauss(2, 1) for _ in range(300)]
        result = ks_2sample(a, b)
        assert result.statistic > 0.5
        assert result.pvalue < 1e-6

    def test_same_distribution_not_rejected(self):
        rng = random.Random(2)
        a = [rng.gauss(0, 1) for _ in range(400)]
        b = [rng.gauss(0, 1) for _ in range(400)]
        assert ks_2sample(a, b).pvalue > 0.01


class TestChi2Homogeneity:
    def test_identical_counts_pass(self):
        counts = [40, 30, 20, 10]
        result = chi2_homogeneity(counts, counts)
        assert result.statistic == pytest.approx(0.0)
        assert result.pvalue == pytest.approx(1.0)

    def test_disjoint_counts_fail(self):
        result = chi2_homogeneity([100, 0], [0, 100])
        assert result.pvalue < 1e-10

    def test_low_count_bins_are_pooled(self):
        # The tail bins (1s and 2s) fall below min_expected=5 and must
        # pool into a valid column instead of blowing up the statistic.
        a = [100, 3, 2, 1, 1]
        b = [101, 2, 2, 1, 1]
        result = chi2_homogeneity(a, b)
        assert result.bins == 2
        assert result.pvalue > 0.5

    def test_pooling_to_single_bin_is_a_pass(self):
        result = chi2_homogeneity([3, 1], [2, 2], min_expected=50.0)
        assert result == Chi2Result(statistic=0.0, dof=0, pvalue=1.0, bins=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi2_homogeneity([1, 2], [1])
        with pytest.raises(ValueError):
            chi2_homogeneity([1, -2], [1, 2])
        with pytest.raises(ValueError):
            chi2_homogeneity([0, 0], [1, 2])

    def test_chi2_sf_validation(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-5.0, 3) == 1.0


# -- scipy pins --------------------------------------------------------------


class TestAgainstScipy:
    def test_ks_statistic_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(11)
        for n, m in ((30, 30), (50, 200), (313, 171)):
            a = [rng.gauss(0, 1) for _ in range(n)]
            b = [rng.gauss(0.3, 1.2) for _ in range(m)]
            ours = ks_statistic(a, b)
            theirs = stats.ks_2samp(a, b).statistic
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_ks_statistic_matches_scipy_on_tied_integers(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(12)
        a = [rng.randint(0, 5) for _ in range(400)]
        b = [rng.randint(0, 5) for _ in range(300)]
        assert ks_statistic(a, b) == pytest.approx(
            stats.ks_2samp(a, b).statistic, abs=1e-12
        )

    def test_ks_pvalue_tracks_scipy_asymptotic(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(13)
        for shift in (0.0, 0.1, 0.25, 0.5):
            a = [rng.gauss(0, 1) for _ in range(500)]
            b = [rng.gauss(shift, 1) for _ in range(500)]
            ours = ks_2sample(a, b).pvalue
            theirs = stats.ks_2samp(a, b, method="asymp").pvalue
            # Stephens' correction vs scipy's plain asymptotic: a few
            # percent apart at n=500, never enough to flip a verdict.
            assert ours == pytest.approx(theirs, abs=0.02)

    def test_kolmogorov_sf_matches_scipy_special(self):
        special = pytest.importorskip("scipy.special")
        for lam in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
            assert kolmogorov_sf(lam) == pytest.approx(
                float(special.kolmogorov(lam)), rel=1e-9, abs=1e-12
            )

    def test_chi2_sf_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in (1, 2, 5, 10, 40):
            for x in (0.1, 1.0, 3.0, dof, 2.0 * dof, 5.0 * dof):
                assert chi2_sf(x, dof) == pytest.approx(
                    float(stats.chi2.sf(x, dof)), rel=1e-8, abs=1e-14
                )

    def test_chi2_homogeneity_matches_chi2_contingency(self):
        stats = pytest.importorskip("scipy.stats")
        # All expected counts are >= 5: no pooling, so the 2xK statistic
        # must equal scipy's (uncorrected) contingency test exactly.
        a = [30, 42, 51, 60]
        b = [45, 33, 40, 72]
        ours = chi2_homogeneity(a, b)
        res = stats.chi2_contingency([a, b], correction=False)
        assert ours.bins == 4
        assert ours.statistic == pytest.approx(float(res.statistic), rel=1e-10)
        assert ours.dof == int(res.dof)
        assert ours.pvalue == pytest.approx(float(res.pvalue), rel=1e-8)


def test_kolmogorov_sf_bounds():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0
    assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-12)
    lams = [0.1 * i for i in range(1, 40)]
    values = [kolmogorov_sf(lam) for lam in lams]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_chi2_sf_series_and_contfrac_branches_agree():
    # x just below and just above the a+1 branch point must be continuous.
    for dof in (3, 9):
        a = dof / 2.0
        x_lo = 2.0 * (a + 1.0) - 1e-6
        x_hi = 2.0 * (a + 1.0) + 1e-6
        assert chi2_sf(x_lo, dof) == pytest.approx(chi2_sf(x_hi, dof), rel=1e-6)


def test_ks_2sample_counts_sample_sizes():
    result = ks_2sample([1, 2, 3], [4, 5])
    assert (result.n, result.m) == (3, 2)
    assert math.isfinite(result.pvalue)
