"""Site loggers follow a promotion (§2.2.3).

After the primary crashes and a replica is promoted, a site logger that
was fetching its own losses from the dead primary must find the new one
the way a receiver does: once its upstream retries run out it asks the
source who the primary is, re-points its parent at the answer and sends
every outstanding request there with a fresh retry budget.  Before it
did, it kept NACKing the dead node until the budget ran out and then
dropped the receivers waiting on it: the campaign's full shape with 5 %
shared tail loss and one primary crash broke ``log-completeness`` (and
``delivery``) in 22 of 24 cases over seeds 0-11 and crashes at 2 s and
4 s, against none of the 12 seeds without the crash.
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos.campaign import TIERS, run_case
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.logger import LogServer
from repro.core.packets import NackPacket, PrimaryInfoPacket, PrimaryQueryPacket

LOSSY_FULL = replace(TIERS["full"], spec=replace(TIERS["full"].spec, shared_loss=0.05))


def test_site_loggers_refetch_from_the_promoted_primary():
    schedule = FaultSchedule((Fault("crash", 2.0, "primary"),), seed=0)
    outcome = run_case(LOSSY_FULL, schedule, case_seed=0)
    assert outcome.faults_injected == 1
    assert outcome.violations == []


def test_an_exhausted_fetch_asks_the_source_then_moves_to_the_new_primary():
    logger = LogServer("g", "lg", parent="primary", source="src")
    logger.start(0.0)
    limit = logger._config.logger.max_upstream_retries
    retry = logger._config.logger.upstream_retry
    logger.handle(PrimaryInfoPacket(group="g", primary_addr="nobody"), "src", 0.0)  # unasked: ignored
    now = 0.0
    logger._request_upstream((3, 4), now)
    for _ in range(limit):
        now += retry
        assert [(a.dest, type(a.packet)) for a in logger.poll(now)] == [("primary", NackPacket)] * 2
    now += retry
    sent = [action.packet for action in logger.poll(now)]
    assert [type(p) for p in sent] == [PrimaryQueryPacket]  # once, for both seqs
    actions = logger.handle(PrimaryInfoPacket(group="g", primary_addr="replica1"), "src", now)
    assert [(a.dest, a.packet.seqs) for a in actions] == [("replica1", (3, 4))]
    assert logger.upstream_outstanding == 2
    assert logger._upstream_retries == {3: 0, 4: 0}


def test_no_new_primary_means_the_fetch_gives_up():
    logger = LogServer("g", "lg", parent="primary", source="src")
    logger.start(0.0)
    limit = logger._config.logger.max_upstream_retries
    retry = logger._config.logger.upstream_retry
    now = 0.0
    logger._request_upstream((3,), now)
    for _ in range(limit + 1):
        now += retry
        logger.poll(now)
    assert logger.handle(PrimaryInfoPacket(group="g", primary_addr="primary"), "src", now) == []
    now += retry
    assert logger.poll(now) == []
    assert logger.upstream_outstanding == 0
