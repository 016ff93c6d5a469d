"""Shared glue for chaos-scheduled integration tests.

``arm`` compiles a list of faults onto a deployment and attaches the
invariant oracle, so a test reads as: build world, declare what goes
wrong when, run the timeline, then ``oracle.assert_ok()`` plus whatever
scenario-specific assertions the test keeps as cross-checks.
"""

from __future__ import annotations

from repro.chaos import ChaosController, ChaosOracle, Fault, FaultSchedule
from repro.simnet.deploy import LbrmDeployment


def arm(
    dep: LbrmDeployment,
    faults: list[Fault] | tuple[Fault, ...] = (),
    **oracle_kw,
) -> ChaosOracle:
    """Install ``faults`` and an oracle on ``dep``; returns the oracle."""
    schedule = FaultSchedule(faults=tuple(faults))
    controller = ChaosController(dep, schedule)
    controller.install()
    oracle = ChaosOracle(dep, **oracle_kw)
    oracle.install()
    return oracle
