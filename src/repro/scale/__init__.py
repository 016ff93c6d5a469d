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
the exact engine's distributions within KS/χ² tolerances and track the
closed-form asymptotics, and live runs are graded against the I1–I4
invariants restated over site distributions.  Those judges — the
statistics, the closed forms and the aggregate oracle — live beside
their tests in ``tests/_oracles/``; scale runs outside the tests are
not judged.  See DESIGN.md §9.
"""

from repro.scale.aggregate import EXACT_DRAW_LIMIT, AggregateSiteReceiver, binomial_variate
from repro.scale.deploy import AggregateDeployment
from repro.scale.shard import (
    ScaleScenario,
    ShardReport,
    ShardWorkerError,
    protocol_digest,
    run_sharded,
    trace_bytes,
)

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
]
