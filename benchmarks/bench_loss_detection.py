"""§2.1.1 — loss-detection delay under the burst congestion model.

"If the burst error length is small (less than h_min), then the lost
packet is discovered when the first heartbeat packet arrives after
h_min.  If the burst error is longer ... the maximum time between data
packet transmission and receiver discovery of packet loss is
2 × t_burst (or h_max, whichever is smaller)."
"""

from __future__ import annotations

import pytest

from repro.analysis.estimation_math import loss_detection_bound, worst_case_detection_time
from repro.analysis.report import format_table
from repro.core.events import LossDetected
from repro.simnet import BurstLoss, DeploymentSpec, LbrmDeployment

BURSTS = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0]


def measure_with_timestamps(t_burst: float) -> float:
    """Simulated detection delay for a data packet sent at burst start
    (the paper's worst case: the burst swallows everything reaching the
    site — receiver and site logger alike — for t_burst)."""
    timestamps: list[float] = []

    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=1, seed=5))
    dep.start()
    dep.advance(0.2)
    dep.send(b"warm")
    dep.advance(1.0)
    start = dep.sim.now
    host = dep.network.host("site1-rx0")
    logger_host = dep.network.host("site1-logger")
    host.inbound_loss = BurstLoss([(start, start + t_burst)])
    logger_host.inbound_loss = BurstLoss([(start, start + t_burst)])

    node = dep.receiver_nodes[0]
    node.on_event = lambda e, t: timestamps.append(t) if isinstance(e, LossDetected) and e.seqs else None
    dep.send(b"lost")
    dep.advance(t_burst + 80.0)
    assert timestamps, f"loss never detected for t_burst={t_burst}"
    return timestamps[0] - start


def compute():
    rows = []
    for t_burst in BURSTS:
        measured = measure_with_timestamps(t_burst)
        bound = loss_detection_bound(t_burst)
        exact = worst_case_detection_time(t_burst)
        rows.append((t_burst, bound, exact, measured))
    return rows


def test_loss_detection_bounds(benchmark, report):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    text = "# §2.1.1: loss detection delay vs burst duration (h_min=0.25, backoff=2, h_max=32)\n"
    text += format_table(
        ["t_burst (s)", "paper bound 2t (tail capped h_max)", "analytic worst case", "simulated"],
        rows,
    )
    report("loss_detection", text)

    for t_burst, bound, exact, measured in rows:
        # network delay adds a few ms on top of the heartbeat arithmetic
        assert measured <= exact + 0.05, (t_burst, exact, measured)
        if t_burst <= 0.25:
            # isolated loss: detected by the first h_min heartbeat
            assert measured == pytest.approx(0.25, abs=0.05)
        # the paper's 2x bound holds throughout (tail capped at h_max)
        assert measured <= bound + 0.05
