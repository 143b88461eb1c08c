"""Simulated network substrate (S7): DES kernel, transport, sizes, stats,
contention, seeded fault plans and the per-peer health ledger."""

from .contention import ContentionModel, ResourceQueue
from .faults import FaultInjector, FaultPlan, FaultRule, chaos_plan
from .health import HealthLedger, PeerHealth
from .sim import AllOf, AnyOf, Event, Process, SimError, Simulator, Timeout
from .sizes import HEADER_BYTES, size_of
from .stats import NetworkStats
from .transport import (
    LinkModel,
    Network,
    Node,
    NodeUnknown,
    RemoteError,
    RetryPolicy,
    RpcError,
    RpcTimeout,
)

__all__ = [
    "ContentionModel",
    "ResourceQueue",
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimError",
    "size_of",
    "HEADER_BYTES",
    "NetworkStats",
    "LinkModel",
    "Network",
    "Node",
    "RetryPolicy",
    "RpcError",
    "RpcTimeout",
    "RemoteError",
    "NodeUnknown",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "chaos_plan",
    "HealthLedger",
    "PeerHealth",
]
