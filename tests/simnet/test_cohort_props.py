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
that left (which reads the next receiver's counters), a late joiner, the next packets lost to one member (which
recovers inside its cohort's run, a stray where it stood), and a
source and a site re-multicast of a seq the site holds and of one a
member lacks.  The deliveries agree record for record
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
from repro.core.packets import RetransPacket
from repro.core.receiver import Cohort, LbrmReceiver
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment
from repro.simnet import node as node_module
from repro.simnet.node import SimNode
from tests._oracles.fanout import use_reference
from tests.simnet.test_loss_batch import _outcome

_KINDS = ("loss", "pause", "skew", "crash", "outage", "abandon", "read", "tap", "join", "lose", "repair")
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


class _DropNext:
    """A host's inbound loss that drops the next ``count`` packets only."""

    def __init__(self, count: int) -> None:
        self.count = count

    def drops(self, now: float) -> bool:
        self.count -= 1
        return self.count >= 0

    def drops_batch(self, now: float, count: int) -> list[bool]:
        return [self.drops(now) for _ in range(count)]


def _check_kept_span(cohort) -> None:
    """A cohort's kept span is its members' ends in order with its strays
    between them, stray j ``(k, node, here)`` at place ``k + j``, past ``k``
    members and not one of them."""
    if cohort is None or not cohort.members:
        return
    span, ends, strays = cohort.span, cohort.ends, cohort.strays
    assert len(span) == len(ends) + len(strays)
    for j, (k, node, _here) in enumerate(strays):
        assert span[k + j] is node and not any(node is end for end in ends)
    places = {id(node) for _k, node, _here in strays}
    assert [id(end) for end in span if id(end) not in places] == [id(end) for end in ends]


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
        span, settle = SimNode._span, SimNode._settle_span

        def checked_span(cohort, endpoints, i):
            run = span(cohort, endpoints, i)
            _check_kept_span(run[0])
            return run

        def checked_settle(cohort, *rest):
            settle(cohort, *rest)
            _check_kept_span(cohort)

        patches.enter_context(mock.patch.object(SimNode, "_span", staticmethod(checked_span)))
        patches.enter_context(mock.patch.object(SimNode, "_settle_span", staticmethod(checked_settle)))
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
                after = nodes[(target + 1) % len(nodes)]  # whom its events have it read

                def tap(event, now, node=node, after=after):
                    stats = dict(after.machines[0].stats) if after.machines else None
                    reads.append((now, node.name, type(event).__name__, after.name, stats))

                node.on_event = tap
            elif kind == "lose":  # the next one or two packets, whatever they are
                net.host(node.name).inbound_loss = _DropNext(1 + int(amount * 10) % 2)
            elif kind == "repair":
                # The source and the site's logger re-multicast the seq sent
                # before the newest, which the site holds, or (amount >=
                # 0.15) a hole a loser there lacks, else the newest, which
                # is still on its way.
                site = node.host.site
                holes = sorted(seq for n in nodes if n.host.site is site and n.machines
                               for seq in n.machines[0].missing)
                group, newest = dep.spec.group, dep.sender.seq
                seq = newest - 1 if amount < 0.15 else holes[0] if holes else newest
                packet = RetransPacket(group=group, seq=seq, payload=b"r%d" % seq)
                for src, ttl in (("source", None), (f"{site.name}-logger", dep.spec.config.logger.site_ttl)):
                    if seq > 0:
                        net.send_multicast(src, group, packet, ttl)
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
    """Count what cohorts do: formations, dissolutions, admissions at a run's front, back or inside, members
    leaving, repairs a cohort absorbed as one, runs that matched a span
    kept with strays in it, and runs re-cut at their one loser without a
    walk."""
    ops: Counter = Counter()
    init, dissolve, admit = Cohort.__init__, Cohort.dissolve, Cohort.admit
    leave, absorb, still = LbrmReceiver._leave_cohort, node_module.absorb_run, SimNode._still_strays
    span, walk = SimNode._span, SimNode._walk
    walks = [0]

    def counted_absorb(receivers, packet, now):
        delivery, dues = absorb(receivers, packet, now)
        ops["repairs absorbed by a cohort"] += bool(dues) and type(packet) is RetransPacket
        return delivery, dues

    def counted_span(cohort, endpoints, i):
        walked = walks[0]
        run = span(cohort, endpoints, i)
        ops["losers re-cut without a walk"] += run[0] is not None and walks[0] == walked
        return run

    def counted_walk(cohort, endpoints, i):
        walks[0] += 1
        return walk(cohort, endpoints, i)

    def counted_still(cohort):
        kept = still(cohort)
        ops["kept spans matched"] += kept
        return kept

    def counted_init(self, source, members, ends):
        ops["formed"] += 1
        init(self, source, members, ends)

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

    with mock.patch.multiple(Cohort, __init__=counted_init, dissolve=counted_dissolve, admit=counted_admit), \
            mock.patch.object(LbrmReceiver, "_leave_cohort", counted_leave), \
            mock.patch.object(node_module, "absorb_run", counted_absorb), \
            mock.patch.object(SimNode, "_still_strays", staticmethod(counted_still)), \
            mock.patch.object(SimNode, "_span", staticmethod(counted_span)), \
            mock.patch.object(SimNode, "_walk", staticmethod(counted_walk)):
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
# A skewed receiver whose deadline is a rounding error ahead of its own
# clock after an outage: it used to be polled at one instant for ever.
@example({"sites": 1, "per_site": 4, "seed": 41914,
          "faults": [("outage", 3.4306262934839173, 2, 0.15304570239754),
                     ("skew", 0.6430088207210068, 2, 0.03236102601653567)]})
# And the two paths a loss takes inside a cohort (pinned below too): a
# member loses the next packet and recovers as a stray in its cohort's
# kept span, and a re-multicast the site holds is absorbed once.
@example(_one(("lose", 0.33, 2, 0.1)))
@example({"sites": 1, "per_site": 4, "seed": 5, "faults": [("lose", 0.33, 2, 0.05), ("repair", 0.39, 2, 0.2)]})
@example(_one(("repair", 0.33, 2, 0.1)))
# A loser in a kept span whose neighbour leaves, or which gets a tap
# (one that reads the next member's counters) before the next packet.
@example({"sites": 1, "per_site": 4, "seed": 5, "faults": [("lose", 0.33, 2, 0.05), ("read", 0.41, 3, 0.1)]})
@example({"sites": 1, "per_site": 4, "seed": 5, "faults": [("lose", 0.33, 1, 0.05), ("tap", 0.41, 1, 0.1)]})
# A second loser ahead of a first still recovering in the kept span: the
# re-cut moves the first one's place among the members.
@example({"sites": 1, "per_site": 6, "seed": 5, "faults": [("lose", 0.33, 4, 0.05), ("lose", 0.37, 1, 0.05)]})
def test_cohorts_match_the_per_member_path_under_faults(world):
    """The batched leg forms cohorts, and dissolves them as the
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
    # The tap splits the run: rx3-5 behind it leave, then join the cohort again.
    (("tap", 0.33, 2, 0.1), "admitted at the back"),
    (("outage", 0.3, 0, 0.03), "dissolved"),  # a gap every member sees
    (("read", 0.33, 0, 0.1), "admitted at the front"),  # rx0 leaves, then joins before the run
    (("read", 0.33, 5, 0.1), "admitted at the back"),  # rx5 leaves, then joins after it
    (("crash", 0.33, 3, 0.3), "left"),  # a member crashes mid-train and restarts
    (("lose", 0.33, 2, 0.1), "kept spans matched"),  # rx2 recovers where it stood
    (("lose", 0.33, 2, 0.1), "losers re-cut without a walk"),  # its run lost rx2 alone
    (("repair", 0.33, 2, 0.1), "repairs absorbed by a cohort"),  # the site held the seq
    # rx2 lost seq 3 and NACKed it; the re-multicasts of it reach the
    # cohort, which holds it, and rx2 at its place in the kept span.
    ([("lose", 0.33, 2, 0.05), ("repair", 0.39, 2, 0.2)], "repairs absorbed by a cohort"),
], ids=["split", "dissolve", "admit-front", "admit-back", "crash-restart", "lose-recover", "lose-recut", "held-repair",
        "repair-a-stray-lacks"])
def test_each_catch_up_point_delivers_what_the_per_member_path_does(fault, op):
    """Each place a member's node takes the log back, on a 1 x 6 site:
    every node's deliveries equal the per-member path's, record for
    record and in which are one shared object."""
    faults = fault if type(fault) is list else [fault]
    with _cohort_ops() as ops:
        batched = _run({**_SIX, "faults": faults}, reference=False)
    with _cohort_ops() as none:
        reference = _run({**_SIX, "faults": faults}, reference=True)
    assert batched == reference
    assert ops[op] >= 1 and ops["formed"] >= 1 and sum(none.values()) == 0  # none on that path
    receivers = [name for name in batched["delivered"] if "-rx" in name]
    assert all(len(batched["delivered"][name]) >= 2 * _TRAIN for name in receivers)
    # The train's records are shared across the site, as each member once had them.
    assert len({labels[1] for name, labels in batched["shared"].items() if name in receivers}) == 1
