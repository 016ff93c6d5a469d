"""Centralized-logging baseline (§2.2.2, Figure 7a).

Under centralized recovery every receiver NACKs the primary logging
server directly: 20 receivers at a site losing a packet on their tail
circuit put 20 NACKs on the WAN and 20 retransmissions back across the
congested tail.  The baseline is the same
:class:`~repro.simnet.deploy.LbrmDeployment` with secondary loggers
disabled, so the comparison isolates exactly the distributed-logging
optimization.
"""

from __future__ import annotations

from dataclasses import replace

from repro.simnet.deploy import DeploymentSpec

__all__ = ["centralized_spec"]


def centralized_spec(spec: DeploymentSpec | None = None) -> DeploymentSpec:
    """A copy of ``spec`` with site-local logging switched off."""
    base = spec or DeploymentSpec()
    return replace(base, secondary_loggers=False)
