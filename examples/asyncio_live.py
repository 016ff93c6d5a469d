#!/usr/bin/env python3
"""LBRM on real UDP multicast (loopback) — no simulator involved.

Starts a primary logger, a source, and two receivers as asyncio
endpoints with actual sockets; one receiver drops off the group for a
packet and recovers it from the logging server.

Run:  python examples/asyncio_live.py
"""

from __future__ import annotations

import asyncio

from repro.aio import AioNode, GroupDirectory, parse_token
from repro.core.config import LbrmConfig, ReceiverConfig
from repro.core.logger import LoggerRole, LogServer
from repro.core.receiver import LbrmReceiver
from repro.core.sender import LbrmSender

GROUP = "live/demo/1"


async def start_receiver(directory, cfg, logger_addr, name):
    node = AioNode(directory=directory)
    await node.start()
    receiver = LbrmReceiver(
        GROUP,
        ReceiverConfig(nack_retry=0.2),
        logger_chain=(logger_addr,),
        heartbeat=cfg.heartbeat,
        parse_token=parse_token,
    )
    node.add_machine(receiver)
    node.run_machine(receiver.start, node.now)
    print(f"  {name} listening on {node.token}")
    return node, receiver


async def main() -> None:
    directory = GroupDirectory()
    cfg = LbrmConfig()
    maddr, mport = directory.resolve(GROUP)
    print(f"group {GROUP!r} -> multicast {maddr}:{mport}")

    logger_node = AioNode(directory=directory)
    await logger_node.start()
    logger = LogServer(GROUP, addr_token=logger_node.token, config=cfg,
                       role=LoggerRole.PRIMARY, level=0)
    logger_node.add_machine(logger)
    logger_node.run_machine(logger.start, logger_node.now)
    print(f"primary logger on {logger_node.token}")

    sender_node = AioNode(directory=directory)
    await sender_node.start()
    sender = LbrmSender(GROUP, cfg, primary=logger_node.address,
                        addr_token=sender_node.token)
    sender_node.add_machine(sender)
    sender_node.run_machine(sender.start, sender_node.now)
    logger.set_source(sender_node.address)
    print(f"source on {sender_node.token}")

    rx1_node, rx1 = await start_receiver(directory, cfg, logger_node.address, "receiver-1")
    rx2_node, rx2 = await start_receiver(directory, cfg, logger_node.address, "receiver-2")
    await asyncio.sleep(0.1)

    print("\nsending update 1 ...")
    sender_node.send_app(sender, b"terrain: bridge intact")
    for name, node in (("receiver-1", rx1_node), ("receiver-2", rx2_node)):
        d = await asyncio.wait_for(node.delivery_queue.get(), 2.0)
        print(f"  {name} got seq {d.seq}: {d.payload.decode()}")
    await asyncio.sleep(0.1)
    print(f"  source buffer released through seq {sender.released_up_to} (logger ACKed)")

    print("\nreceiver-2 walks out of range; sending update 2 ...")
    rx2_node.leave_group(GROUP)
    await asyncio.sleep(0.05)
    sender_node.send_app(sender, b"terrain: bridge DESTROYED")
    d = await asyncio.wait_for(rx1_node.delivery_queue.get(), 2.0)
    print(f"  receiver-1 got seq {d.seq}: {d.payload.decode()}")

    print("receiver-2 reconnects; the next packet reveals its gap ...")
    rx2_node.join_group(GROUP)
    await asyncio.sleep(0.05)
    sender_node.send_app(sender, b"terrain: crater smoking")
    got = {}
    for _ in range(2):
        d = await asyncio.wait_for(rx2_node.delivery_queue.get(), 3.0)
        got[d.seq] = (d.payload.decode(), d.recovered)
    for seq in sorted(got):
        payload, recovered = got[seq]
        tag = "RECOVERED from logger" if recovered else "live multicast"
        print(f"  receiver-2 got seq {seq}: {payload}  [{tag}]")
    print(f"  receiver-2 recoveries: {rx2.stats['recoveries']}, "
          f"NACKs sent: {rx2.stats['nacks_sent']}")

    for node in (logger_node, sender_node, rx1_node, rx2_node):
        await node.close()
    print("\ndone — everything above crossed real UDP sockets.")


if __name__ == "__main__":
    asyncio.run(main())
