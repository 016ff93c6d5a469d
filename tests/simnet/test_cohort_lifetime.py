"""A cohort lives exactly as long as its members (DESIGN §6).

While a cohort has members, it refers to them and each of them to it.
Otherwise it refers to nothing that refers back: it is not its own
tracker by a reference, and its mirrored counts hold its members list,
not the cohort.  So reference counting alone frees a cohort the moment
it dissolves or its last member leaves, with its log of shared
deliveries; these tests run with the cyclic collector off to see it.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import weakref
from pathlib import Path

import pytest

from repro import obs
from repro.core.receiver import Cohort
from repro.simnet import DeploymentSpec, LbrmDeployment

_LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "workloads.py"


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _live_cohorts() -> list[Cohort]:
    return [o for o in gc.get_objects() if type(o) is Cohort]


@pytest.mark.parametrize("recording", [False, True], ids=["plain", "recording"])
@pytest.mark.parametrize("end", ["dissolve", "last-member-leaves"])
def test_a_cohort_is_freed_when_it_has_no_member(no_cyclic_gc, recording, end):
    """One quiet site of four runs as one cohort; when it dissolves, or
    its members leave one by one (reading a member's counters makes it
    leave), nothing keeps the cohort alive.  Under a recording registry
    the cohort's counts mirror into it: the same holds."""
    with obs.recording() if recording else contextlib.nullcontext():
        dep = LbrmDeployment(DeploymentSpec(n_sites=1, receivers_per_site=4, seed=3))
        dep.start()
        dep.advance(0.2)
        for _ in range(3):
            dep.send(b"x")
            dep.advance(0.3)
        cohort = dep.receivers[0]._cohort
        assert cohort is not None and cohort.members == dep.receivers and cohort.log
        freed = weakref.ref(cohort)
        if end == "dissolve":
            cohort.dissolve()
        else:
            for receiver in dep.receivers[:-1]:  # the last one leaves with the third
                receiver.stats
        del cohort
        assert all(r._cohort is None for r in dep.receivers)
        assert freed() is None
        dep.send(b"y")
        dep.advance(0.3)  # and the site goes on: a new cohort forms
        assert all(len(dep.node(name).delivered) == 4 for name in dep.members if "-rx" in name)


def test_no_memberless_cohort_outlives_the_exact_lossy_smoke_run(no_cyclic_gc):
    """The ledger's ``exact_lossy`` world (smoke size, seed 1995) forms,
    splits and dissolves cohorts as losses land.  At its end every live
    cohort still has members."""
    spec = importlib.util.spec_from_file_location("ledger_workloads", _LEDGER)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOAD_CLASSES["exact_lossy"](1995, workloads.SIZES["exact_lossy"]["smoke"])
    workload.setup()
    workload.run(lambda: None)
    live = _live_cohorts()
    assert live  # cohorts formed, and some are still running
    assert len(live) == len([c for c in live if c.members])
