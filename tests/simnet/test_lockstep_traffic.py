"""The traffic run-level delivery and its cohorts rest on (DESIGN §6,
"Co-timed receivers are absorbed run by run" and "Lockstep cohorts").

A multicast crosses a site's tail circuit once and reaches everyone
behind it at the same instant (§2.2.2, Figure 1), so the receivers of one
*segment* — a run of consecutive members behind one site inside one
co-timed batch — are mostly in the same protocol state when it arrives.
This file pins how often, per packet type, on the ledger's ``exact_fanout``
and ``exact_lossy`` smoke worlds: how many segment members share their
segment's modal state (``LbrmReceiver.state_key()``, everything the
receiver's builders declare less its counters, its cohort membership and
two caches) and how many are alone in theirs.  That share is what a
cohort of receivers sharing one state saves; it measures the traffic, not
the mechanism, so no change to the delivery loop moves it.

It pins, too, what ``SimNode.receive_batch`` does with the same traffic,
per packet type: how many receiver deliveries were absorbed in cohort
runs and in how many runs, how many by lone members and in how many
``absorb_run`` calls, and how many went down the per-node path
(``LbrmReceiver.handle``); over the whole world how many cohorts
formed, how many splits there were and how many members left one; and
how many cohort runs were settled and how many of those looked at no
member (no deadline earlier than the cohort's armed bound, nothing
spanned).  A delivery loop that stops absorbing, stops sharing, loses or
re-delivers a member around a general-path one, or walks the members
of a run that arms none of them, moves these counts.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import pytest

from repro.core.receiver import Cohort, LbrmReceiver
from repro.simnet import node as node_module
from repro.simnet.node import SimNode
from repro.simnet.topology import Network

_LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "workloads.py"


def _tally(keys) -> list[int]:
    """How many of ``keys`` are equal to each distinct one (state keys
    compare by contents but do not hash)."""
    distinct: list = []
    counts: list[int] = []
    for key in keys:
        for at, seen in enumerate(distinct):
            if seen == key:
                counts[at] += 1
                break
        else:
            distinct.append(key)
            counts.append(1)
    return counts


def _receiver_of(host):
    node = host.endpoint
    if isinstance(node, SimNode) and len(node.machines) == 1:
        machine = node.machines[0]
        if type(machine) is LbrmReceiver:
            return machine
    return None


def count_traffic(monkeypatch, name: str, size: str = "smoke") -> dict:
    """Build and run ledger workload ``name`` (seed 1995) with the counters
    installed; ``size="full"`` gives DESIGN §6's tables.

    Returns, per packet type name, ``lockstep`` = [members sharing their
    segment's modal state, members alone] and ``runs`` = [receiver
    deliveries absorbed in cohort runs, cohort runs, receiver deliveries
    absorbed by lone members, ``absorb_run`` calls for lone members,
    receiver deliveries through ``handle``]; ``cohorts`` = [cohorts
    formed, splits, members that left one]; and ``settles`` = [cohort runs
    settled, of which visit no member]."""
    lockstep: dict[str, list[int]] = {}
    runs: dict[str, list[int]] = {}
    cohorts = [0, 0, 0]
    settles = [0, 0]
    arrive_batch, absorb_run, handle = Network._arrive_batch, node_module.absorb_run, LbrmReceiver.handle
    init, split, catch_up = Cohort.__init__, Cohort.split, LbrmReceiver._catch_up
    settle = SimNode._settle_span

    def counted_arrive_batch(self, co_timed, endpoints, n_cross, packet, src_name):
        tally = lockstep.setdefault(type(packet).__name__, [0, 0])
        for _site, hosts in itertools.groupby(co_timed, key=lambda host: host.site):
            states = _tally(r.state_key() for r in map(_receiver_of, hosts) if r is not None)
            modal = max(states, default=0)
            shared = modal if modal > 1 else 0
            tally[0] += shared
            tally[1] += sum(states) - shared
        arrive_batch(self, co_timed, endpoints, n_cross, packet, src_name)

    def counted_absorb_run(receivers, packet, now):
        delivery, dues = absorb_run(receivers, packet, now)
        tally = runs.setdefault(type(packet).__name__, [0, 0, 0, 0, 0])
        if type(receivers[0]) is Cohort:
            if dues:
                tally[0] += len(receivers[0].ends)
                tally[1] += 1
        else:
            tally[2] += len(dues)
            tally[3] += 1
        return delivery, dues

    def counted_handle(self, packet, src, now):
        runs.setdefault(type(packet).__name__, [0, 0, 0, 0, 0])[4] += 1
        return handle(self, packet, src, now)

    def counted_init(self, source, members, ends):
        cohorts[0] += 1
        init(self, source, members, ends)

    def counted_split(self, at):
        cohorts[0] -= 1  # the tail is no formation
        cohorts[1] += 1
        return split(self, at)

    def counted_catch_up(self):
        cohorts[2] += 1
        catch_up(self)

    def counted_settle(cohort, span, packet, due, src, now):
        settles[0] += 1
        settles[1] += span is cohort.ends and due >= cohort.armed
        settle(cohort, span, packet, due, src, now)

    monkeypatch.setattr(Network, "_arrive_batch", counted_arrive_batch)
    monkeypatch.setattr(node_module, "absorb_run", counted_absorb_run)
    monkeypatch.setattr(LbrmReceiver, "handle", counted_handle)
    monkeypatch.setattr(Cohort, "__init__", counted_init)
    monkeypatch.setattr(Cohort, "split", counted_split)
    monkeypatch.setattr(LbrmReceiver, "_catch_up", counted_catch_up)
    monkeypatch.setattr(SimNode, "_settle_span", staticmethod(counted_settle))
    spec = importlib.util.spec_from_file_location("ledger_workloads", _LEDGER)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOAD_CLASSES[name](1995, workloads.SIZES[name][size])
    workload.setup()
    workload.run(lambda: None)
    assert not workload.finish()["errors"]
    return {"lockstep": lockstep, "runs": runs, "cohorts": cohorts, "settles": settles}


# Per packet type, counted over the world's set-up and its timed run.
# Lockstep: [members sharing their segment's modal state, members alone]
# over the receivers of every multicast batch; runs: [receiver deliveries
# absorbed in cohort runs, cohort runs, receiver deliveries absorbed by
# lone members, lone absorb_run calls, receiver deliveries through
# handle()] over every delivery, unicast included; cohorts: [formed,
# splits, members that left one]; settles: [cohort runs settled, of which
# visit no member].  Only data and heartbeats are
# absorbed; a receiver's first packet sets its baseline and goes through
# handle().  Receivers whose guard fails leave their cohort, and every
# member leaves when finish() reads its stats.  ``tree_outage`` runs at
# full size: the smoke world has one receiver per site, so its runs are
# of one whatever the loop does; at full size the hierarchy runtime's
# observer must leave a co-timed batch whole (DESIGN §6, "One network
# observer").  Against the member-by-member loop, the absorbed and
# handle() totals per packet type are the same: only who absorbs moved.
_PINNED = {
    "exact_fanout": {
        "lockstep": {"DataPacket": [5000, 0], "HeartbeatPacket": [150, 0]},
        "runs": {"DataPacket": [4900, 980, 50, 60, 50], "HeartbeatPacket": [150, 30, 0, 0, 0]},
        "cohorts": [10, 0, 50],
        "settles": [1010, 1010],
    },
    "exact_lossy": {
        "lockstep": {
            "AckerSelectPacket": [49, 1],
            "DataPacket": [1946, 31],
            "HeartbeatPacket": [2165, 18],
            "ProbePacket": [347, 1],
            "RetransPacket": [35, 20],
        },
        "runs": {
            "AckerSelectPacket": [0, 0, 0, 0, 50],
            "DataPacket": [1843, 378, 78, 94, 56],
            "HeartbeatPacket": [1985, 407, 126, 72, 72],
            "ProbePacket": [0, 0, 0, 0, 348],
            "RetransPacket": [0, 0, 0, 0, 113],
        },
        "cohorts": [22, 14, 140],
        "settles": [785, 394],
    },
    "tree_outage": {
        "lockstep": {
            "DataPacket": [3000, 0],
            "HeartbeatPacket": [18000, 0],
            "RetransPacket": [1000, 0],
        },
        "runs": {
            "DataPacket": [1000, 200, 0, 2000, 2000],
            "HeartbeatPacket": [14000, 2800, 3000, 600, 1000],
            "RetransPacket": [0, 0, 0, 0, 1000],
        },
        "cohorts": [600, 0, 3000],
        "settles": [3000, 2800],
    },
}
_SIZE = {"tree_outage": "full"}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_lockstep_share_and_run_traffic_are_pinned(monkeypatch, name):
    counts = count_traffic(monkeypatch, name, _SIZE.get(name, "smoke"))
    assert counts == _PINNED[name]
