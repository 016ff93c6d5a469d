"""LBRM protocol core — sans-IO machines, wire format, and policies.

This package implements every mechanism in Holbrook, Singhal &
Cheriton's LBRM paper: the receiver-reliable base protocol, variable
heartbeats, distributed logging with replication and failover, and
statistical acknowledgement.  See the package-level re-exports for the
public API; :mod:`repro.simnet` and :mod:`repro.aio` provide harnesses
that carry these machines over a simulated or a real network.
"""

from repro.core.actions import (
    Action,
    Address,
    Deliver,
    GroupId,
    JoinGroup,
    LeaveGroup,
    Notify,
    SendMulticast,
    SendUnicast,
)
from repro.core.config import (
    DiscoveryConfig,
    HeartbeatConfig,
    HierarchyConfig,
    LbrmConfig,
    LoggerConfig,
    ReceiverConfig,
    ReplicationConfig,
    StatAckConfig,
)
from repro.core.hierarchy import (
    LinkEstimate,
    LoggerTree,
    Reparent,
    TreeManager,
    build_tree,
    interior_name,
    plan_level_sizes,
    tree_logger,
)
from repro.core.errors import (
    ConfigError,
    DecodeError,
    EncodeError,
    LbrmError,
    LogMissError,
)
from repro.core.heartbeat import (
    FixedHeartbeatSchedule,
    HeartbeatSchedule,
    VariableHeartbeatSchedule,
    heartbeat_times,
    make_schedule,
)
from repro.core.discovery import DiscoveryClient
from repro.core.log_store import LogEntry, PacketLog
from repro.core.logger import LoggerRole, LogServer
from repro.core.machine import ProtocolMachine, TimerSet
from repro.core.process import MultiGroupProcess
from repro.core.ratecontrol import AimdRateController, RateControlConfig
from repro.core.receiver import LbrmReceiver
from repro.core.retranschannel import RetransChannelConfig, RetransChannelSender, retrans_group
from repro.core.rotation import RotatingLogServer, RotationSchedule
from repro.core.sender import FailoverPhase, LbrmSender
from repro.core.sequence import GapReport, SequenceTracker
from repro.core.statack import RetransmitOrder, StatAckPhase, StatAckSource

__all__ = [
    # actions
    "Action",
    "Address",
    "Deliver",
    "GroupId",
    "JoinGroup",
    "LeaveGroup",
    "Notify",
    "SendMulticast",
    "SendUnicast",
    # config
    "DiscoveryConfig",
    "HeartbeatConfig",
    "HierarchyConfig",
    "LbrmConfig",
    "LoggerConfig",
    "ReceiverConfig",
    "ReplicationConfig",
    "StatAckConfig",
    # hierarchy
    "LinkEstimate",
    "LoggerTree",
    "Reparent",
    "TreeManager",
    "build_tree",
    "interior_name",
    "plan_level_sizes",
    "tree_logger",
    # errors
    "ConfigError",
    "DecodeError",
    "EncodeError",
    "LbrmError",
    "LogMissError",
    # heartbeat
    "FixedHeartbeatSchedule",
    "HeartbeatSchedule",
    "VariableHeartbeatSchedule",
    "heartbeat_times",
    "make_schedule",
    # storage & machines
    "LogEntry",
    "PacketLog",
    "ProtocolMachine",
    "TimerSet",
    "GapReport",
    "SequenceTracker",
    # protocol endpoints
    "MultiGroupProcess",
    "AimdRateController",
    "RateControlConfig",
    "DiscoveryClient",
    "LoggerRole",
    "LogServer",
    "LbrmReceiver",
    "LbrmSender",
    "FailoverPhase",
    "RetransChannelConfig",
    "RetransChannelSender",
    "retrans_group",
    "RotatingLogServer",
    "RotationSchedule",
    "RetransmitOrder",
    "StatAckPhase",
    "StatAckSource",
]
