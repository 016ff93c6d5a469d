"""Lockstep cohorts against the per-member path, under faults (DESIGN §6).

Co-site receivers in the same state share it as a ``Cohort``, and
``SimNode.receive_batch`` absorbs a cohort's co-timed run once.  The
oracle of ``tests/_oracles/fanout.py`` delivers receiver by receiver, so
no cohort of two ever forms on its leg: a small world run both ways must
agree on every node's stats, deliveries and events, the trace counts,
every mid-run read, the order of every poll and send and every wakeup
the nodes and the mux arm — whatever
per-member faults land between packets: a member's own loss draws, a
pause and resume, a clock skew, a crash and restart, a site outage, a
recovery given up, a read of its counters or tracker, a tap on a node
that left, and a late joiner.  The deliveries agree record for record
and in which records are one shared ``Deliver`` object: a cohort keeps
its members' deliveries once, in its log, and a member's node takes
them when it is read or leaves.  Reading a node's ``delivered`` at any
point moves nothing, not even a cohort.
(The fan-out's own property, ``test_segment_walk_matches_the_per_receiver_loop``,
sits beside this one in ``test_loss_batch.py``.)
"""

from __future__ import annotations

import contextlib
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.receiver import Cohort, LbrmReceiver
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment
from repro.simnet.node import SimNode
from tests._oracles.fanout import use_reference
from tests.simnet.test_loss_batch import _outcome

_KINDS = ("loss", "pause", "skew", "crash", "outage", "abandon", "read", "tap", "join")
_TRAIN = 6  # packets, twice: at 0.2 s and, after the heartbeats back off, at 2.5 s
_SPACING = 0.05
_TRAINS = (0.2, 2.5)


@st.composite
def _worlds(draw):
    sites = draw(st.integers(1, 3))
    per_site = draw(st.integers(2, 6))
    faults = draw(st.lists(
        st.tuples(
            st.sampled_from(_KINDS),
            st.floats(0.21, _TRAINS[-1] + 2.0, allow_nan=False),  # to the backed-off heartbeats
            st.integers(0, sites * per_site - 1),  # which receiver (or site)
            st.floats(0.01, 0.3, allow_nan=False),  # a duration, a skew or a loss rate
        ),
        max_size=6,
    ))
    return {"sites": sites, "per_site": per_site, "faults": faults, "seed": draw(st.integers(0, 2**16))}


def _run(world: dict, reference: bool, peeks: tuple = (), peek: bool = True) -> dict:
    """The train through ``world`` with its faults; everything observable.
    Each of ``peeks``, ``(at, receiver)``, reads that node's ``delivered``
    at ``at`` (or, without ``peek``, makes the same engine event idle)."""
    with obs.recording() as reg, contextlib.ExitStack() as patches:
        dep = LbrmDeployment(DeploymentSpec(
            n_sites=world["sites"], receivers_per_site=world["per_site"], seed=world["seed"],
        ))
        net = use_reference(dep.network) if reference else dep.network
        sim = dep.sim
        order: list[tuple] = []  # every poll and every send, in engine order
        arms: list[tuple] = []  # every wakeup armed: the one mux a cohort must not move
        arm = type(net.wakeup_mux).arm

        def traced_arm(mux, node, due):
            arms.append((sim.now, node.name, due))
            arm(mux, node, due)

        patches.enter_context(mock.patch.object(type(net.wakeup_mux), "arm", traced_arm))
        reads: list[tuple] = []
        joiners: list[SimNode] = []
        for name in ("send_unicast", "send_multicast"):
            send = getattr(net, name)

            def traced(src, dest, packet, *rest, send=send, name=name):
                order.append((sim.now, name, src, dest, type(packet).__name__, getattr(packet, "seq", None)))
                send(src, dest, packet, *rest)

            setattr(net, name, traced)
        for node in dep.all_nodes():
            poll = node.poll

            def traced_poll(node=node, poll=poll):
                order.append((sim.now, "poll", node.name))
                poll()

            node.poll = traced_poll
        nodes = dep.receiver_nodes
        rng = random.Random(world["seed"])

        def fault(kind: str, target: int, amount: float) -> None:
            node = nodes[target]
            receiver = node.machines[0] if node.machines else None
            if kind == "loss":
                net.host(node.name).inbound_loss = BernoulliLoss(amount, random.Random(rng.random()))
            elif kind == "pause":
                node.pause()
                sim.schedule(sim.now + amount, node.resume)
            elif kind == "skew":
                node.clock_skew = amount - 0.15
            elif kind == "crash":
                node.crash()
                sim.schedule(sim.now + amount, node.restart)
            elif kind == "outage":
                dep.burst_site(node.host.site.name, amount)
            elif kind == "abandon" and receiver is not None:
                node.run_machine(lambda: receiver.abandon(tuple(receiver.missing)) or [])
            elif kind == "read" and receiver is not None:
                reads.append((sim.now, node.name, dict(receiver.stats), receiver.tracker.highest))
            elif kind == "tap" and receiver is not None:  # out of its cohort, with a tap
                reads.append((sim.now, node.name, dict(receiver.stats)))
                node.on_event = lambda event, now: None
            elif kind == "join":
                template = dep.receivers[0]
                host = net.add_host(f"{node.host.site.name}-late{len(joiners)}", node.host.site)
                joiner = SimNode(net, host, [LbrmReceiver(
                    dep.spec.group, template._config, logger_chain=template.logger_chain,
                    source="source", heartbeat=dep.spec.config.heartbeat,
                )])
                joiner.start()
                joiners.append(joiner)

        for kind, at, target, amount in world["faults"]:
            sim.schedule(at, fault, kind, target, amount)
        for at, target in peeks:
            node = nodes[target % len(nodes)]
            sim.schedule(at, (lambda node=node: node.delivered) if peek else (lambda: None))
        dep.start()
        for start in _TRAINS:
            dep.advance(start - sim.now)
            for i in range(_TRAIN):
                dep.send(f"packet-{start}-{i}".encode())
                dep.advance(_SPACING)
        dep.advance(6.0)
        outcome = _outcome(dep)
        outcome["shared"] = _sharing([*dep.all_nodes(), *joiners])
        for joiner in joiners:
            outcome["delivered"][joiner.name] = [tuple(d) for d in joiner.delivered]
            outcome["events"][joiner.name] = list(joiner.events)
            outcome["machines"][joiner.name] = [dict(joiner.machines[0].stats)]
        # The engine's own instruments count its events, which the
        # reference leg has one per receiver of; every protocol counter
        # (the receivers' registry mirrors among them) must agree.
        registry = {
            section: {key: value for key, value in instruments.items() if not key.startswith("sim.")}
            for section, instruments in reg.snapshot().items()
        }
        return {"order": order, "arms": arms, "reads": reads, "trace": reg.trace.events(), "registry": registry, **outcome}


def _sharing(nodes: list) -> dict:
    """Which delivery records are one object: each record labelled by its
    object's first place, node by node."""
    first: dict[int, int] = {}
    return {n.name: [first.setdefault(id(d), len(first)) for d in n.delivered] for n in nodes}


@contextlib.contextmanager
def _cohort_ops():
    """Count what cohorts do: formations, splits (and the tails they
    leave), dissolutions, admissions at a run's front, back or inside,
    and members leaving."""
    ops: Counter = Counter()
    init, split, dissolve, admit = Cohort.__init__, Cohort.split, Cohort.dissolve, Cohort.admit
    leave = LbrmReceiver._leave_cohort

    def counted_init(self, source, members, ends):
        ops["formed" if type(source) is LbrmReceiver else "split"] += 1
        init(self, source, members, ends)

    def counted_split(self, at):
        tail = split(self, at)
        ops["tails of two or more"] += tail is not None
        return tail

    def counted_dissolve(self):
        ops["dissolved"] += 1
        dissolve(self)

    def counted_admit(self, at, r, end):
        where = "front" if at == 0 else "back" if at == len(self.ends) else "inside"
        admitted = admit(self, at, r, end)
        ops[f"admitted at the {where}"] += admitted
        return admitted

    def counted_leave(self):
        ops["left"] += self._cohort is not None
        leave(self)

    with mock.patch.multiple(Cohort, __init__=counted_init, split=counted_split,
                             dissolve=counted_dissolve, admit=counted_admit), \
            mock.patch.object(LbrmReceiver, "_leave_cohort", counted_leave):
        yield ops


def _one(fault: tuple) -> dict:
    return {"sites": 1, "per_site": 4, "faults": [fault], "seed": 5}


@settings(max_examples=60, deadline=None)
@given(_worlds())
# Pinned: a member paused mid-train, a member's counters read mid-train,
# and an outage that leaves a site's members stale together after the
# second train's arms (their polls come in arm order).
@example(_one(("pause", 0.4, 1, 0.2)))
@example(_one(("read", 0.4, 1, 0.1)))
@example(_one(("outage", 2.9, 0, 0.3)))
def test_cohorts_match_the_per_member_path_under_faults(world):
    """The batched leg forms cohorts, splits and dissolves them as the
    faults land; the reference leg never forms one.  Nothing anyone
    could observe differs."""
    assert _run(world, reference=False) == _run(world, reference=True)


def test_a_quiet_world_runs_in_cohorts():
    """The property above is about cohorts: with no fault, every site's
    receivers share one state for the whole train."""
    world = {"sites": 2, "per_site": 4, "faults": [], "seed": 3}
    dep_run = _run(world, reference=False)
    assert dep_run == _run(world, reference=True)
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=4, seed=3))
    dep.start()
    dep.advance(0.2)
    for i in range(3):
        dep.send(b"x")
        dep.advance(_SPACING)
    cohorts = {id(r._cohort) for r in dep.receivers}
    assert len(cohorts) == 2 and None not in {r._cohort for r in dep.receivers}


_PEEKS = st.lists(st.tuples(st.floats(0.2, _TRAINS[-1] + 3.0, allow_nan=False), st.integers(0, 17)),
                  min_size=1, max_size=8)


@settings(max_examples=30, deadline=None)
@given(_worlds(), _PEEKS)
def test_reading_delivered_moves_no_digest_and_no_cohort(world, peeks):
    """A member's node catches up when ``delivered`` is read, and stays a
    member: the same world with and without the reads (each an engine
    event either way) agrees on everything, cohorts included."""
    with _cohort_ops() as quiet_ops:
        quiet = _run(world, reference=False, peeks=peeks, peek=False)
    with _cohort_ops() as read_ops:
        read = _run(world, reference=False, peeks=peeks)
    assert read == quiet and read_ops == quiet_ops


_SIX = {"sites": 1, "per_site": 6, "seed": 5}


@pytest.mark.parametrize("fault, op", [
    (("tap", 0.33, 2, 0.1), "tails of two or more"),  # rx3-5 split off behind the tap
    (("outage", 0.3, 0, 0.03), "dissolved"),  # a gap every member sees
    (("read", 0.33, 0, 0.1), "admitted at the front"),  # rx0 leaves, then joins before the run
    (("read", 0.33, 5, 0.1), "admitted at the back"),  # rx5 leaves, then joins after it
    (("crash", 0.33, 3, 0.3), "left"),  # a member crashes mid-train and restarts
], ids=["split", "dissolve", "admit-front", "admit-back", "crash-restart"])
def test_each_catch_up_point_delivers_what_the_per_member_path_does(fault, op):
    """Each place a member's node takes the log back, on a 1 x 6 site:
    every node's deliveries equal the per-member path's, record for
    record and in which are one shared object."""
    with _cohort_ops() as ops:
        batched = _run({**_SIX, "faults": [fault]}, reference=False)
    with _cohort_ops() as none:
        reference = _run({**_SIX, "faults": [fault]}, reference=True)
    assert batched == reference
    assert ops[op] >= 1 and ops["formed"] >= 1 and sum(none.values()) == 0  # none on that path
    receivers = [name for name in batched["delivered"] if "-rx" in name]
    assert all(len(batched["delivered"][name]) >= 2 * _TRAIN for name in receivers)
    # The train's records are shared across the site, as each member once had them.
    assert len({labels[1] for name, labels in batched["shared"].items() if name in receivers}) == 1
