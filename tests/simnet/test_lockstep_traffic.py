"""The traffic run-level delivery rests on (DESIGN §6, "Co-timed receivers
are absorbed run by run").

A multicast crosses a site's tail circuit once and reaches everyone
behind it at the same instant (§2.2.2, Figure 1), so the receivers of one
*segment* — a run of consecutive members behind one site inside one
co-timed batch — are mostly in the same protocol state when it arrives.
This file pins how often, per packet type, on the ledger's ``exact_fanout``
and ``exact_lossy`` smoke worlds: how many segment members share their
segment's modal canonical receiver state (everything the receiver's next
transition can read, below) and how many are alone in theirs.  That share
is what a cohort of receivers sharing one state could save (ROADMAP item
15, step 2).

It pins, too, what ``SimNode.receive_batch`` does with the same traffic:
how many receiver deliveries ``absorb_run`` took run by run and how many
went down the per-node path (``LbrmReceiver.handle``), per packet type.
A delivery loop that stops absorbing, or loses or re-delivers a member
around a general-path one, moves these counts.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
from collections import Counter
from pathlib import Path

import pytest

from repro.core.receiver import LbrmReceiver
from repro.simnet import node as node_module
from repro.simnet.node import SimNode
from repro.simnet.topology import Network

_LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "workloads.py"


def _canonical(r: LbrmReceiver) -> tuple:
    """A receiver's state as its next transition can read it: tracker
    highest, first and missing; fresh; on-channel; repeat count; expected
    interval; watchdog deadline; last rx; recoveries; NACK timers; chain."""
    tracker = r._tracker
    return (
        tracker._highest,
        tracker._first,
        frozenset(tracker._missing),
        r._fresh,
        r._on_channel,
        r._repeat_count,
        r._expected_interval,
        r._maxit_deadline,
        r._last_rx,
        tuple(sorted(dataclasses.astuple(rec) for rec in r._recoveries.values())),
        tuple(sorted(r.timers._deadlines.items())),
        r._chain,
    )


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
    deliveries absorbed run by run, receiver deliveries through
    ``handle``]."""
    lockstep: dict[str, list[int]] = {}
    runs: dict[str, list[int]] = {}
    arrive_batch, absorb_run, handle = Network._arrive_batch, node_module.absorb_run, LbrmReceiver.handle

    def counted_arrive_batch(self, co_timed, packet, src_name):
        tally = lockstep.setdefault(type(packet).__name__, [0, 0])
        for _site, hosts in itertools.groupby(co_timed, key=lambda host: host.site):
            states = Counter(_canonical(r) for r in map(_receiver_of, hosts) if r is not None)
            modal = max(states.values(), default=0)
            shared = modal if modal > 1 else 0
            tally[0] += shared
            tally[1] += sum(states.values()) - shared
        arrive_batch(self, co_timed, packet, src_name)

    def counted_absorb_run(receivers, packet, now):
        delivery, dues = absorb_run(receivers, packet, now)
        runs.setdefault(type(packet).__name__, [0, 0])[0] += len(dues)
        return delivery, dues

    def counted_handle(self, packet, src, now):
        runs.setdefault(type(packet).__name__, [0, 0])[1] += 1
        return handle(self, packet, src, now)

    monkeypatch.setattr(Network, "_arrive_batch", counted_arrive_batch)
    monkeypatch.setattr(node_module, "absorb_run", counted_absorb_run)
    monkeypatch.setattr(LbrmReceiver, "handle", counted_handle)
    spec = importlib.util.spec_from_file_location("ledger_workloads", _LEDGER)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOAD_CLASSES[name](1995, workloads.SIZES[name][size])
    workload.setup()
    workload.run(lambda: None)
    assert not workload.finish()["errors"]
    return {"lockstep": lockstep, "runs": runs}


# Per packet type, counted over the world's set-up and its timed run.
# Lockstep: [members sharing their segment's modal state, members alone]
# over the receivers of every multicast batch; runs: [receiver deliveries
# absorbed run by run, receiver deliveries through handle()] over every
# delivery, unicast included.  Only data and heartbeats are absorbed; a
# receiver's first packet sets its baseline and goes through handle().
_PINNED = {
    "exact_fanout": {
        "lockstep": {"DataPacket": [5000, 0], "HeartbeatPacket": [150, 0]},
        "runs": {"DataPacket": [4950, 50], "HeartbeatPacket": [150, 0]},
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
            "AckerSelectPacket": [0, 50],
            "DataPacket": [1921, 56],
            "HeartbeatPacket": [2111, 72],
            "ProbePacket": [0, 348],
            "RetransPacket": [0, 113],
        },
    },
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_lockstep_share_and_run_traffic_are_pinned(monkeypatch, name):
    counts = count_traffic(monkeypatch, name)
    assert counts == _PINNED[name]
