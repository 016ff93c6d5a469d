"""Two-sample conformance statistics, dependency-free.

The statistical-conformance tier compares distributions produced by the
aggregate site model against the exact per-receiver engine
(NACK-per-heartbeat counts, repair traffic, recovery latencies).  The
comparisons need a two-sample Kolmogorov–Smirnov test for continuous
samples and a χ² homogeneity test for count data — implemented here on
the stdlib only, because the tier-1 CI job installs no SciPy.  Where
SciPy is present, ``tests/scale/test_stats.py`` pins these
implementations against ``scipy.stats`` (the oracle's oracle).

Formulas follow Numerical Recipes: the KS p-value uses the asymptotic
Kolmogorov distribution with the Stephens small-sample correction; the
χ² p-value uses the regularized incomplete gamma function (series
expansion below ``a + 1``, continued fraction above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "KsResult",
    "Chi2Result",
    "ks_statistic",
    "kolmogorov_sf",
    "ks_2sample",
    "chi2_sf",
    "chi2_homogeneity",
]


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS outcome: the sup-distance and its p-value."""

    statistic: float
    pvalue: float
    n: int
    m: int


@dataclass(frozen=True)
class Chi2Result:
    """χ² homogeneity outcome (after low-count bin pooling)."""

    statistic: float
    dof: int
    pvalue: float
    bins: int


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Sup-norm distance between the empirical CDFs of ``a`` and ``b``."""
    if not a or not b:
        raise ValueError("ks_statistic requires two non-empty samples")
    xs = sorted(a)
    ys = sorted(b)
    n, m = len(xs), len(ys)
    i = j = 0
    d = 0.0
    # Empirical CDFs only change at sample points, and at a tied value
    # both must step *together* before the gap is measured — integer
    # count data is mostly ties, and measuring mid-step would report a
    # spurious 1/n distance even for identical samples.
    while i < n and j < m:
        x = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n and xs[i] == x:
            i += 1
        while j < m and ys[j] == x:
            j += 1
        diff = abs(i / n - j / m)
        if diff > d:
            d = diff
    return d


def kolmogorov_sf(lam: float) -> float:
    """Q_KS(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²) — the asymptotic
    survival function of the KS statistic."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = sign * math.exp(-2.0 * (k * lam) ** 2)
        total += term
        if abs(term) < 1e-12 * abs(total) or abs(term) < 1e-300:
            break
        sign = -sign
    return max(0.0, min(1.0, 2.0 * total))


def ks_2sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS test with the Stephens-corrected asymptotic p-value.

    ``p = Q_KS((√n_eff + 0.12 + 0.11/√n_eff) · D)`` with
    ``n_eff = nm/(n+m)`` — accurate to a few percent for
    ``n_eff ≥ 4``, which every conformance comparison exceeds.
    """
    d = ks_statistic(a, b)
    n, m = len(a), len(b)
    n_eff = math.sqrt(n * m / (n + m))
    pvalue = kolmogorov_sf((n_eff + 0.12 + 0.11 / n_eff) * d)
    return KsResult(statistic=d, pvalue=pvalue, n=n, m=m)


# -- χ² via the regularized incomplete gamma function -----------------------


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series (x < a+1)."""
    if x <= 0.0:
        return 0.0
    ap = a
    total = term = 1.0 / a
    for _ in range(10_000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-15:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by continued fraction
    (x >= a+1), modified Lentz's method."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X ~ χ²(dof) — i.e. Q(dof/2, x/2)."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if x <= 0.0:
        return 1.0
    a = dof / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return max(0.0, min(1.0, 1.0 - _gamma_p_series(a, half)))
    return max(0.0, min(1.0, _gamma_q_contfrac(a, half)))


def _pool_counts(
    counts_a: Sequence[float], counts_b: Sequence[float], min_expected: float
) -> tuple[list[float], list[float]]:
    """Pool adjacent categories until every expected cell count is
    ``min_expected`` or more (the standard χ² validity rule)."""
    total_a = sum(counts_a)
    total_b = sum(counts_b)
    grand = total_a + total_b
    pooled_a: list[float] = []
    pooled_b: list[float] = []
    acc_a = acc_b = 0.0
    for ca, cb in zip(counts_a, counts_b):
        acc_a += ca
        acc_b += cb
        col = acc_a + acc_b
        # Both rows' expected counts for this pooled column.
        if (col * total_a / grand >= min_expected
                and col * total_b / grand >= min_expected):
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if pooled_a:
            pooled_a[-1] += acc_a
            pooled_b[-1] += acc_b
        else:
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
    return pooled_a, pooled_b


def chi2_homogeneity(
    counts_a: Sequence[float],
    counts_b: Sequence[float],
    min_expected: float = 5.0,
) -> Chi2Result:
    """χ² test that two category-count vectors come from one distribution.

    ``counts_a[i]`` and ``counts_b[i]`` are observations of the same
    category (e.g. "i receivers missed the packet") from the two
    engines.  Adjacent low-expectation categories are pooled before the
    2×K contingency statistic is computed.  If pooling collapses the
    data to a single column the samples are indistinguishable at this
    resolution and the result is a pass (p = 1).
    """
    if len(counts_a) != len(counts_b):
        raise ValueError("count vectors must align category-for-category")
    if any(c < 0 for c in counts_a) or any(c < 0 for c in counts_b):
        raise ValueError("counts must be non-negative")
    total_a = sum(counts_a)
    total_b = sum(counts_b)
    if total_a == 0 or total_b == 0:
        raise ValueError("each sample must contain at least one observation")
    pooled_a, pooled_b = _pool_counts(counts_a, counts_b, min_expected)
    k = len(pooled_a)
    if k < 2:
        return Chi2Result(statistic=0.0, dof=0, pvalue=1.0, bins=k)
    grand = total_a + total_b
    stat = 0.0
    for ca, cb in zip(pooled_a, pooled_b):
        col = ca + cb
        ea = col * total_a / grand
        eb = col * total_b / grand
        stat += (ca - ea) ** 2 / ea + (cb - eb) ** 2 / eb
    dof = k - 1
    return Chi2Result(statistic=stat, dof=dof, pvalue=chi2_sf(stat, dof), bins=k)
