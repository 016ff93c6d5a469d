"""The bytes a site and a receiver cost (DESIGN §6, "Where the bytes are").

LBRM is built for one logging server per site and thousands of
receivers per group (§2.2), so what the exact engine holds per site
and per receiver sets how big a world one process can simulate.  This
file pins both with ``tracemalloc``, through the measurement
``tools/bytes_census.py`` prints: the bytes a settled world (2.5 s of
simulated time) holds at two sizes, per site or receiver added.

Each bound is ~1.25x the value measured when it was set; the value
before the RNG streams were made on first draw and the heartbeat
schedule became one table per config is beside it.  A change that
gives every site or receiver its own copy of something again (an RNG
stream per link, a memo per receiver) fails here, and should say in
DESIGN §6 what the bytes buy.
"""

from __future__ import annotations

import importlib.util
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
        (1, 11.0 * KB),  # measured 8.7 KB; 21.7 KB with a stream per link and per logger
        (5, 23.5 * KB),  # measured 18.3 KB; 34.3 KB before
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
    assert 0 < per_site <= 16.0 * KB  # measured 13.0 KB; 25.0 KB before


def test_bytes_per_exact_receiver():
    per_receiver = bytes_census.added_bytes(
        lambda n: bytes_census.exact_world(10, n // 10), 50, 100
    )
    assert 0 < per_receiver <= 3.2 * KB  # measured 2.53 KB; 3.33 KB with a memo per receiver
