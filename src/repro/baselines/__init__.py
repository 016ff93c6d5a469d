"""Baseline protocols the paper compares LBRM against.

* :mod:`repro.baselines.fixed_heartbeat` — the basic receiver-reliable
  scheme with a constant heartbeat period (§2.1.2).
* :mod:`repro.baselines.centralized` — recovery without secondary
  loggers: every NACK goes to the primary (§2.2.2, Fig 7a).
* :mod:`repro.baselines.srm` — wb/SRM-style unorganized recovery with
  multicast requests and repairs (§6).
* :mod:`repro.baselines.senderreliable` — conventional positive-ACK
  multicast with per-receiver state and ACK implosion (§1, §5).
"""

from repro.baselines.centralized import centralized_spec
from repro.baselines.fixed_heartbeat import FIXED_DEFAULT, fixed_heartbeat_config
from repro.baselines.senderreliable import (
    PosAckDataPacket,
    PosAckPacket,
    PosAckReceiver,
    PosAckSender,
)
from repro.baselines.srm import (
    SrmMember,
    SrmRepairPacket,
    SrmRequestPacket,
    SrmSender,
    SrmSessionPacket,
)

__all__ = [
    "centralized_spec",
    "FIXED_DEFAULT",
    "fixed_heartbeat_config",
    "PosAckDataPacket",
    "PosAckPacket",
    "PosAckReceiver",
    "PosAckSender",
    "SrmMember",
    "SrmRepairPacket",
    "SrmRequestPacket",
    "SrmSender",
    "SrmSessionPacket",
]
