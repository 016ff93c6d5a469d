"""The traffic the wakeup mux's fire loop rests on (DESIGN §6, "A wakeup
enters only a node with something due").

Every data packet and heartbeat pushes a receiver's freshness watchdog
later, so nearly every mux bucket a receiver sits in has gone stale by
the time it fires.  ``WakeupMux._fire`` therefore re-buckets a node
whose deadline — ``_due``, the true-time deadline its machines last
declared, or its cohort's for a cohort member's node, which keeps none
(``effective_due``) — is still ahead, and polls only a node with
something due.  That is sound only while that deadline *is* the
machines' whenever the mux reads it, so this file wraps the fire loop
and checks, at every re-bucket, the deadline the mux read against a
fresh ``next_wakeup()`` over the node's machines
(minus its clock skew), and at every poll the loop makes, that the poll
enters a machine.  It does so on a lossy multi-site world (with the
counts pinned), on every case of the shipped campaigns — ``chaos`` and
``hierarchy-chaos --quick --seed 4``, ``failover-sweep --micro`` and its
``--readopt`` variant, which wipe-restarts a follower in place through
its node's ``run_machine`` — and on a world with clock skew, a skew change, pause/resume,
crash/restart, a site logger killed while armed (which must cost no
extra event) and a two-machine node.  Whoever
brings stale polls back, or adds a path that changes a machine's
deadline without its node asking again, fails it.
"""

from __future__ import annotations

import pytest

from repro.chaos import HIERARCHY_CHAOS, run_campaign
from repro.chaos.sweep import run_sweep_campaign
from repro.core.machine import ProtocolMachine
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment
from repro.simnet.engine import Simulator, WakeupMux
from repro.simnet.node import SimNode
from repro.simnet.topology import Network
from tests._oracles.fanout import effective_due


def _deadline(node: SimNode) -> float | None:
    """The node's earliest machine deadline in true time, asked afresh."""
    dues = [due for due in (m.next_wakeup() for m in node.machines) if due is not None]
    if not dues:
        return None
    return min(dues) - node.clock_skew if node.clock_skew else min(dues)


def _enters_a_machine(node: SimNode, now: float) -> bool:
    """Whether ``node.poll()`` at ``now`` gets past its stale-wakeup branch."""
    dues = [due for due in (m.next_wakeup() for m in node.machines) if due is not None]
    stale = bool(dues) and min(dues) > now + node.clock_skew  # poll's own test
    return bool(node.machines) and not node.paused and not stale


class _FireLoop:
    """What the fire loop did with each node it found armed, counted from
    outside: re-bucketed (and whether ``_due`` was right), or polled (and
    whether the poll entered a machine)."""

    def __init__(self) -> None:
        self.rebucketed = 0
        self.polled = 0
        self.wrong_due: list[tuple] = []
        self.idle_polls: list[tuple] = []
        self.seen: set[str] = set()  # the nodes it re-bucketed or polled
        self._firing = 0
        self._polling = 0


@pytest.fixture
def fire_loop(monkeypatch) -> _FireLoop:
    loop = _FireLoop()
    fire, arm, poll = WakeupMux._fire, WakeupMux.arm, SimNode.poll

    def watched_fire(self, due):
        loop._firing += 1
        try:
            fire(self, due)
        finally:
            loop._firing -= 1

    def watched_arm(self, node, due):
        if loop._firing and not loop._polling:  # the loop itself re-buckets
            loop.rebucketed += 1
            loop.seen.add(node.name)
            if not (effective_due(node) == _deadline(node) == due and due > self._sim.now):
                loop.wrong_due.append((node.name, self._sim.now, due, effective_due(node), _deadline(node)))
        arm(self, node, due)

    def watched_poll(self):
        if loop._firing and not loop._polling:  # the loop polls a node
            loop.polled += 1
            loop.seen.add(self.name)
            if not _enters_a_machine(self, self._sim.now):
                loop.idle_polls.append((self.name, self._sim.now, _deadline(self)))
        loop._polling += 1
        try:
            poll(self)
        finally:
            loop._polling -= 1

    monkeypatch.setattr(WakeupMux, "_fire", watched_fire)
    monkeypatch.setattr(WakeupMux, "arm", watched_arm)
    monkeypatch.setattr(SimNode, "poll", watched_poll)
    return loop


def _clean(loop: _FireLoop) -> None:
    assert loop.wrong_due == []
    assert loop.idle_polls == []
    assert loop.rebucketed > 0 and loop.polled > 0  # the run exercised both branches


# -- the lossy world: counts pinned --------------------------------------------


def _lossy_world() -> LbrmDeployment:
    """test_engine_traffic's world: 4 sites x 5 receivers, statack, 5 %
    independent receiver loss and one site burst; every loss repaired."""
    dep = LbrmDeployment(DeploymentSpec(n_sites=4, receivers_per_site=5, enable_statack=True, seed=5))
    for node in dep.receiver_nodes:
        dep.network.host(node.name).inbound_loss = BernoulliLoss(
            0.05, dep.streams.stream(f"rx-loss:{node.name}")
        )
    dep.start()
    dep.advance(0.2)
    for i in range(20):
        if i == 8:
            dep.burst_site("site2", duration=0.15)
        dep.send(b"p%d" % i)
        dep.advance(0.1)
    dep.advance(10.0)
    assert dep.receivers_missing() == 0 and dep.network.stats["dropped"] > 0
    return dep


def test_only_nodes_with_something_due_are_polled(fire_loop):
    dep = _lossy_world()
    _clean(fire_loop)
    # A loop that polls every armed node makes 213 polls here, and 185 of
    # them re-arm without entering a machine: exactly the re-buckets.
    assert (fire_loop.rebucketed, fire_loop.polled) == (185, 28)
    assert dep.sim.processed == 254  # the events that polling them all makes too


# -- every shipped campaign: _due is right at every re-bucket --------------------


@pytest.mark.parametrize(
    "campaign",
    [
        lambda: run_campaign(4, "quick"),
        lambda: run_campaign(4, "quick", campaign=HIERARCHY_CHAOS),
        lambda: run_sweep_campaign(0, "micro"),
        lambda: run_sweep_campaign(0, "micro", readopt=True),  # wipe_restart in place
    ],
    ids=["chaos", "hierarchy-chaos", "failover-sweep", "failover-sweep-readopt"],
)
def test_every_campaign_case_keeps_due_equal_to_the_machines_deadline(fire_loop, campaign):
    report = campaign()
    assert report["totals"]["violations"] == 0
    _clean(fire_loop)


# -- the odd shapes, in one world ----------------------------------------------


class _Ticker(ProtocolMachine):
    """A second machine on a receiver's node, with a clock of its own."""

    def __init__(self, period: float) -> None:
        super().__init__()
        self._period = period
        self.ticks = 0

    def start(self, now):
        self.timers.set(("tick",), now + self._period)
        return []

    def handle(self, packet, src, now):
        return []

    def poll(self, now):
        if self.timers.pop_due(now):
            self.ticks += 1
            self.timers.set(("tick",), now + self._period)
        return []


class _Watchdog(_Ticker):
    """A deadline every packet pushes later, like a receiver's watchdog:
    keeps a logger's node armed, with a stale bucket pending."""

    def handle(self, packet, src, now):
        self.timers.set(("tick",), now + self._period)
        return []


def test_skew_pause_crash_a_killed_logger_and_two_machines(fire_loop):
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=4, seed=9))
    for node in dep.receiver_nodes:
        dep.network.host(node.name).inbound_loss = BernoulliLoss(
            0.05, dep.streams.stream(f"rx-loss:{node.name}")
        )
    ticker = _Ticker(0.37)
    dep.node("site2-rx0").add_machine(ticker)
    logger = dep.site_logger_nodes[2]
    logger.add_machine(_Watchdog(0.5))
    skewed = dep.node("site3-rx1")
    skewed.clock_skew = 0.013
    dep.start()
    dep.advance(0.2)
    for i in range(24):
        if i == 4:
            dep.node("site1-rx2").pause()
            dep.node("site2-rx3").crash()
        if i == 9:
            skewed.clock_skew = -0.021  # the chaos controller's skew fault (re-arms)
            stale = logger._mux_due
            assert effective_due(logger) > stale  # armed, and its pending bucket stale
            # Cut its site off until that bucket fires: no arrival gets to
            # disarm the dead node first.
            dep.burst_site("site3", stale - dep.sim.now + 0.001)
            dep.kill_site_logger(2)
            fire_loop.seen.clear()
            dep.advance(stale - dep.sim.now)
        if i == 12:
            dep.node("site1-rx2").resume()
            dep.node("site2-rx3").restart()
        dep.send(b"p%d" % i)
        dep.advance(0.15)
    dep.advance(8.0)
    assert ticker.ticks > 20  # the node's earlier deadline was its second machine's
    _clean(fire_loop)
    # The killed logger's pending bucket found it disarmed: never
    # re-bucketed, so it cost no schedule call and no extra event.
    assert logger.name not in fire_loop.seen and logger._mux_due is None


def test_a_direct_poll_that_finds_nothing_due_records_what_it_arms():
    """``poll`` is one of the calls that ask the machines again: a timer
    set behind a node's back is found by the next direct poll, which arms
    the mux at it — and must record it as ``_due`` too."""
    sim = Simulator()
    net = Network(sim)
    ticker = _Ticker(0.5)
    node = SimNode(net, net.add_host("h", net.add_site("s")), [ticker])  # never started
    ticker.timers.set(("tick",), 0.9)
    node.poll()  # at 0.0 nothing is due: the node re-arms itself without entering a machine
    assert node._due == node._mux_due == 0.9
    sim.run_until(1.0)
    assert ticker.ticks == 1
