"""The bytes a site and a receiver cost (DESIGN §6, "Where the bytes are").

LBRM is built for one logging server per site and thousands of
receivers per group (§2.2), so what the exact engine holds per site
and per receiver sets how big a world one process can simulate.  This
file pins both with ``tracemalloc``, through the measurement
``tools/bytes_census.py`` prints: the bytes a settled world (2.5 s of
simulated time) holds at two sizes, per site or receiver added.  It
also pins what a lockstep train adds per receiver and packet, and what
a log server holds per logged packet.

Each bound is ~1.25x the value measured when it was set; the value
before the log held one slot per packet and a tracker held its sets
only while non-empty is beside it.  A change that
gives every site or receiver its own copy of something again (an RNG
stream per link, a memo per receiver) fails here, and should say in
DESIGN §6 what the bytes buy.
"""

from __future__ import annotations

import importlib.util
import tracemalloc
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "bytes_census.py"
_spec = importlib.util.spec_from_file_location("bytes_census", _PATH)
bytes_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bytes_census)

KB = 1000


@pytest.mark.parametrize(
    "receivers_per_site, bound",
    [
        (1, 10.0 * KB),  # measured 7.94 KB; 9.06 KB with a LogEntry per packet
        (5, 19.0 * KB),  # measured 15.06 KB; 17.91 KB before
    ],
    ids=["1-receiver", "5-receivers"],
)
def test_bytes_per_exact_site_behind_a_depth_3_tree(receivers_per_site, bound):
    per_site = bytes_census.added_bytes(
        lambda n: bytes_census.exact_world(n, receivers_per_site, depth=3, fanout=20), 20, 40
    )
    assert 0 < per_site <= bound


def test_bytes_per_aggregate_site():
    per_site = bytes_census.added_bytes(bytes_census.aggregate_world, 20, 40)
    assert 0 < per_site <= 15.0 * KB  # measured 11.83 KB; 12.92 KB before


def test_bytes_per_exact_receiver():
    per_receiver = bytes_census.added_bytes(
        lambda n: bytes_census.exact_world(10, n // 10), 50, 100
    )
    assert 0 < per_receiver <= 2.4 * KB  # measured 1.94 KB; 2.34 KB with empty sets per tracker


def test_bytes_per_logged_packet():
    """Every log server logs every packet (§2.2), so a log entry's cost
    is paid once per site per packet: one mapping slot, the payload
    shared with the packet."""
    per_entry = bytes_census.logged_packet_bytes()
    assert 0 < per_entry <= 43.0  # measured 34.2 B; 146.1 B with a LogEntry, time and order node


def test_bytes_per_lockstep_delivery():
    """What a loss-free train of 20 packets adds per (receiver, packet)
    on 10 sites x 20 receivers, after a warm-up that formed the cohorts:
    a cohort logs each shared delivery once, so its members' nodes hold
    nothing per packet until read; what is left is the loggers' and the
    sender's per-packet state over 200 receivers."""
    dep = bytes_census.exact_world(10, 20)
    dep.start()
    dep.advance(0.2)
    for i in range(5):
        dep.send(b"warm-up %d" % i)
        dep.advance(0.05)
    dep.advance(1.0)
    tracemalloc.start()
    try:
        for i in range(20):
            dep.send(b"packet %02d" % i)
            dep.advance(0.05)
        dep.advance(1.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dep.receivers_missing() == 0
    per_delivery = held / (len(dep.receivers) * 20)
    assert 0 < per_delivery <= 6.6  # measured 5.30 B; 11.97 B with a LogEntry per logged packet
