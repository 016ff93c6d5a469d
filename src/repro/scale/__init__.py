"""Aggregate-scale modeling: million-receiver LBRM runs.

The paper's log-based scheme exists so DIS exercises can grow past what
per-receiver state allows; this package makes the *simulation* scale
the same way the protocol does.  Two mechanisms compose:

* :class:`~repro.scale.aggregate.AggregateSiteReceiver` — one simnet
  node statistically representing N co-site receivers (Binomial miss
  draws, collapsed NACKs, binomially-thinned repair rounds);
* :func:`~repro.scale.shard.run_sharded` — sites partitioned across
  worker processes in conservative time windows, leaning on LBRM's
  site locality for shard-count-invariant results.

Correctness rests on the statistical-conformance test tier
(tests/scale/): at overlapping scales the aggregate model must match
the exact engine's distributions within KS/χ² tolerances
(:mod:`repro.scale.stats`) and track the closed-form asymptotics
(:mod:`repro.scale.model`); :class:`~repro.scale.oracle.AggregateOracle`
grades live runs against the I1–I4 invariants restated over site
distributions.  See DESIGN.md §9.
"""

from repro.scale.aggregate import EXACT_DRAW_LIMIT, AggregateSiteReceiver, binomial_variate
from repro.scale.deploy import AggregateDeployment
from repro.scale.model import (
    expected_miss_count,
    expected_recovery_rounds,
    expected_repair_packets,
    expected_wan_nacks,
    miss_count_variance,
    recovery_rounds_asymptote,
    site_nack_probability,
)
from repro.scale.oracle import AggregateOracle, AggregateViolation
from repro.scale.shard import (
    ScaleScenario,
    ShardReport,
    ShardWorkerError,
    protocol_digest,
    run_sharded,
    trace_bytes,
)
from repro.scale.stats import Chi2Result, KsResult, chi2_homogeneity, chi2_sf, ks_2sample

__all__ = [
    "AggregateSiteReceiver",
    "binomial_variate",
    "EXACT_DRAW_LIMIT",
    "AggregateDeployment",
    "ScaleScenario",
    "ShardReport",
    "ShardWorkerError",
    "run_sharded",
    "protocol_digest",
    "trace_bytes",
    "AggregateOracle",
    "AggregateViolation",
    "ks_2sample",
    "chi2_homogeneity",
    "chi2_sf",
    "KsResult",
    "Chi2Result",
    "expected_miss_count",
    "miss_count_variance",
    "site_nack_probability",
    "expected_wan_nacks",
    "expected_recovery_rounds",
    "recovery_rounds_asymptote",
    "expected_repair_packets",
]
