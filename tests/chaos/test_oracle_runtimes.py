"""One oracle class grades both runtimes.

The simulated deployment and the real-UDP cluster are built to the same
small shape (a source, a primary logger, one receiver) and broken the
same way: after one packet the source's heartbeat timer is cancelled,
so the MaxIT promise (§2.1) lapses while the source node stays alive.
:class:`ChaosOracle` must report ``silence`` on each, reading nothing but
the surface both runtimes share.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import subprocess
import sys

import pytest

from repro.chaos import ChaosOracle
from repro.simnet import DeploymentSpec, LbrmDeployment

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
GROUP = "test/oracle-runtimes"
# Past 2 x the widest interval a heartbeat or two sent before the cancel
# could promise, plus the UDP runtime's grace.
SILENT_FOR = 2.5


def _sim_silence() -> list:
    dep = LbrmDeployment(DeploymentSpec(
        group=GROUP, n_sites=1, receivers_per_site=1, secondary_loggers=False, seed=3,
    ))
    oracle = ChaosOracle(dep)
    oracle.install()
    dep.start()
    dep.send(b"only")
    dep.advance(0.1)
    dep.sender.timers.cancel(("heartbeat",))
    dep.advance(SILENT_FOR)
    return oracle.finish()


def _udp_silence() -> list:
    from repro.aio import AioCluster, GroupDirectory
    from tests.aio._netutil import free_udp_port

    async def run() -> list:
        directory = GroupDirectory()
        directory.register(GROUP, "239.255.49.1", free_udp_port())
        async with AioCluster(GROUP, n_receivers=1, directory=directory) as cluster:
            oracle = ChaosOracle(cluster)
            oracle.install()
            await cluster.publish(b"only")
            await cluster.deliveries(0, 1, timeout=5.0)
            cluster.sender.timers.cancel(("heartbeat",))
            await asyncio.sleep(SILENT_FOR)
            return oracle.finish()

    return asyncio.run(run())


@pytest.mark.parametrize("run", [
    pytest.param(_sim_silence, id="sim"),
    pytest.param(_udp_silence, id="udp", marks=pytest.mark.network),
])
def test_cancelled_heartbeat_reads_as_silence_on_every_runtime(run):
    assert any(v.invariant == "silence" and v.subject == "source" for v in run())


def test_importing_chaos_does_not_load_the_udp_runtime():
    code = "import sys, repro.chaos; print(sorted(m for m in sys.modules if m.startswith('repro.aio')))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
