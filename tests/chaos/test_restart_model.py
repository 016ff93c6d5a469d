"""Restarts in mid-repair: what a crash keeps, and liveness after it.

A machine declares what a crash loses by building it in
``_init_volatile`` (DESIGN §7, "What a crash keeps"); ``restart``
rebuilds that and runs ``start`` again.  The campaign samplers almost
never crash a node while it is repairing, so each case here puts one
there on purpose — a receiver with an open recovery, a site logger with
requesters waiting on an upstream fetch, a depth-3 hub with an upstream
NACK outstanding — and grades the run with the chaos oracle (I1–I6 plus
liveness: every receiver ends up holding the whole stream).
"""

from __future__ import annotations

from repro.chaos import Fault
from repro.core.packets import NackPacket
from repro.simnet import DeploymentSpec, LbrmDeployment

from tests.integration._chaos import arm

RESTART_AFTER = 0.3
SEND_AT = (0.2, 0.7, 1.2, 1.7)  # seq 1..4; seq 2 is the one lost


def _crash_in_repair(dep, sender: str, victim: str, delay: float, probe) -> dict:
    """Crash ``victim`` ``delay`` after ``sender`` first sends a NACK, and
    restart it ``RESTART_AFTER`` later.  Returns the record the two
    events fill in: their times, and ``probe(victim's machine)`` just
    before the crash and just after the restart."""
    machine, node = dep.members[victim]
    seen: dict = {"armed": False}

    def crash() -> None:
        seen["crashed_at"], seen["at_crash"] = dep.sim.now, probe(machine)
        node.crash()

    def restart() -> None:
        node.restart()
        seen["restarted_at"], seen["at_restart"] = dep.sim.now, probe(machine)

    tap_node = dep.node(sender)
    chained = tap_node.on_send

    def tap(action, now: float) -> None:
        if chained is not None:
            chained(action, now)
        if not seen["armed"] and type(action.packet) is NackPacket:
            seen["armed"] = True
            dep.sim.schedule(now + delay, crash)
            dep.sim.schedule(now + delay + RESTART_AFTER, restart)

    tap_node.on_send = tap
    return seen


def _logger_state(logger) -> tuple:
    """(repair bookkeeping and timers, durable state) of a log server."""
    repair = (
        {seq: set(who) for seq, who in logger._pending.items()}, logger.upstream_outstanding,
        set(logger._self_lost), len(logger.timers),
    )
    durable = (
        logger.log, [s for s in range(1, (logger.log.highest or 0) + 1) if s in logger.log], logger.tracker, logger.tracker.highest,
        logger.tracker.missing, logger._log_epoch, logger._commit_learned,
    )
    return repair, durable


def _run(dep, drain: float = 10.0) -> None:
    dep.start()
    for i, at in enumerate(SEND_AT):
        dep.advance(at - dep.sim.now)
        dep.send(b"pkt-%d" % i)
    dep.advance(drain)


def test_restarted_receiver_reopens_its_open_recovery():
    """site1-rx0 loses seq 2, NACKs its logger and crashes before the
    repair lands.  The restart loses the recovery with the rest of the
    volatile state; ``start`` re-opens it from the durable tracker, so
    seq 2 is still recovered."""
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=2, seed=3))
    oracle = arm(dep, [Fault("corrupt", SEND_AT[1], "site1-rx0", duration=0.2, amount=1.0)])
    seen = _crash_in_repair(
        dep, "site1-rx0", "site1-rx0", 0.0,
        lambda rx: (sorted(rx._recoveries), rx.next_wakeup()),
    )
    _run(dep)
    assert seen["at_crash"][0] == [2]  # crashed with its one recovery open
    # Re-opened at the restart, its NACK due then (the receiver's next wakeup).
    assert seen["at_restart"] == ([2], seen["restarted_at"])
    oracle.assert_ok()
    receiver = dep.members["site1-rx0"][0]
    assert receiver.tracker.has(2) and not receiver.missing
    assert dep.receivers_with(2) == len(dep.receivers)


def test_restarted_site_logger_loses_repair_state_and_keeps_its_log():
    """site1 loses seq 2 on its tail circuit.  Its logger fetches it from
    the primary, and a receiver's NACK waits on that fetch in
    ``_pending``.  The logger crashes before the repair arrives: the
    restart empties the repair bookkeeping and the timers, and keeps
    the log, tracker, epoch and commit point as they were (§2.2: the log
    is on disk).  The receivers' retries re-make the fetch."""
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=2, seed=3))
    oracle = arm(dep)
    dep.burst_site("site1", 0.1, start=SEND_AT[1])
    seen = _crash_in_repair(dep, "site1-rx0", "site1-logger", 0.01, _logger_state)
    _run(dep)
    repair, durable = seen["at_crash"]
    assert repair[0] == {2: {"site1-rx0", "site1-rx1"}} and repair[1] == 1  # mid-repair
    assert durable[4] == {2}  # the logger itself was missing seq 2
    assert seen["at_restart"] == (({}, 0, set(), 0), durable)
    oracle.assert_ok()
    assert dep.receivers_with(2) == len(dep.receivers)
    assert dep.members["site1-logger"][0].tracker.has(2)


def test_restarted_hub_with_an_upstream_nack_outstanding():
    """Depth 3: hub1-0-logger sits at site1 and loses seq 2 with it.
    site1-logger's NACK waits on the hub's upstream fetch when the hub
    crashes; after the restart the tree still delivers seq 2 everywhere."""
    dep = LbrmDeployment(DeploymentSpec(n_sites=4, receivers_per_site=1, depth=3, fanout=2, seed=3))
    assert dep.site_loggers[0]._parent == "hub1-0-logger"
    oracle = arm(dep)
    dep.burst_site("site1", 0.1, start=SEND_AT[1])
    seen = _crash_in_repair(dep, "site1-logger", "hub1-0-logger", 0.01, _logger_state)
    _run(dep, drain=15.0)
    repair, durable = seen["at_crash"]
    assert repair[0] == {2: {"site1-logger"}} and repair[1] == 1  # upstream NACK outstanding
    assert seen["at_restart"] == (({}, 0, set(), 0), durable)
    oracle.assert_ok()
    assert dep.receivers_with(2) == len(dep.receivers)
    assert dep.members["hub1-0-logger"][0].tracker.has(2)

