"""Table 3 — secondary logging server response time for a 128-byte packet.

Paper (IBM RS/6000-370, AIX 3.2.5, 10 Mbit Ethernet):

    Server request processing        102 µs
    Ethernet transmission            390 µs
    Network interrupts, ctx, misc   1090 µs
    Total                           1582 µs

Substitution (DESIGN.md): we measure our logger's *request processing*
directly on this host (decode NACK → log lookup → encode RETRANS) and
model the 1995 wire and OS costs with the paper's own constants, so the
structural conclusion — server processing is a small fraction of the
total, which is itself tiny next to the 250 ms detection time — is
checked against live code.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.core.config import LbrmConfig
from repro.core.logger import LoggerRole, LogServer
from repro.core.packets import NackPacket, decode, encode

ETHERNET_US = 390.0  # 10 Mbit wire time for request+reply, paper-measured
OS_MISC_US = 1090.0  # interrupts, context switch, misc, paper-measured
PAPER_PROCESSING_US = 102.0
PAPER_TOTAL_US = 1582.0


def make_loaded_logger() -> tuple[LogServer, bytes]:
    logger = LogServer("g", addr_token="sec", config=LbrmConfig(),
                       role=LoggerRole.SECONDARY)
    payload = b"x" * 128
    for seq in range(1, 1001):
        logger.log.append(seq, payload, now=0.0)
        logger.tracker.observe_data(seq)
    request = encode(NackPacket(group="g", seqs=(500,)))
    return logger, request


def serve_request(logger: LogServer, request: bytes) -> bytes:
    """The full server-side path: decode, look up, encode the repair."""
    packet = decode(request)
    actions = logger.handle(packet, "rx1", 0.5)
    return encode(actions[0].packet)


def test_table3_logger_response_time(benchmark, report, mean_seconds):
    logger, request = make_loaded_logger()

    reply = benchmark(serve_request, logger, request)
    assert len(reply) > 128  # the repair carries the payload

    processing_us = mean_seconds(serve_request, logger, request) * 1e6
    total_us = processing_us + ETHERNET_US + OS_MISC_US
    rows = [
        ("server request processing (µs)", PAPER_PROCESSING_US, f"{processing_us:.0f}"),
        ("Ethernet transmission (µs)", ETHERNET_US, f"{ETHERNET_US:.0f} (modeled, paper constant)"),
        ("interrupts/ctx/misc (µs)", OS_MISC_US, f"{OS_MISC_US:.0f} (modeled, paper constant)"),
        ("total (µs)", PAPER_TOTAL_US, f"{total_us:.0f}"),
    ]
    text = "# Table 3: logging server response time, 128-byte packet\n"
    text += format_table(["operation", "paper (µs)", "measured (µs)"], rows)
    text += (
        "\n\nstructural check: processing << total << 250 ms heartbeat detection: "
        f"{processing_us:.0f}µs << {total_us:.0f}µs << 250000µs"
    )
    report("table3_logger_service", text)

    # The paper's conclusion: loss detection and network transmission,
    # not server processing, dominate recovery latency.
    assert processing_us < 2000  # same order as 1995 hardware or better
    assert processing_us < 0.6 * total_us
    assert total_us < 0.05 * 250_000
