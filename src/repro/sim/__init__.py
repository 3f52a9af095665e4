"""Discrete-event cluster simulator: the paper's testbed substitute."""

from .background import BackgroundTraffic
from .cluster import (
    ClusterConfig,
    ClusterSim,
    PlanArtifacts,
    RunResult,
    build_plan,
    plan_signature,
    simulate,
)
from .engine import EventHandle, SimulationError, Simulator
from .faults import (
    ChaosFault,
    FaultInjector,
    FaultOccurrence,
    FaultPlan,
    LinkFault,
    ServerStallFault,
    StragglerFault,
    fault_node,
    fault_tag,
    occurrences,
)
from .invariants import InvariantMonitor, InvariantViolation, simulate_checked
from .network import (
    Channel,
    FifoQueue,
    Message,
    MsgKind,
    PriorityQueue,
    Role,
    Transport,
    gbps_to_bytes_per_s,
    make_queue,
)
from .trace import IterationRecord, IterationTrace, UtilizationTrace, utilization_summary

__all__ = [
    "BackgroundTraffic",
    "Channel",
    "ChaosFault",
    "ClusterConfig",
    "ClusterSim",
    "EventHandle",
    "FaultInjector",
    "FaultOccurrence",
    "FaultPlan",
    "FifoQueue",
    "InvariantMonitor",
    "InvariantViolation",
    "IterationRecord",
    "IterationTrace",
    "LinkFault",
    "Message",
    "MsgKind",
    "PlanArtifacts",
    "PriorityQueue",
    "Role",
    "RunResult",
    "ServerStallFault",
    "SimulationError",
    "Simulator",
    "StragglerFault",
    "Transport",
    "UtilizationTrace",
    "build_plan",
    "fault_node",
    "fault_tag",
    "gbps_to_bytes_per_s",
    "make_queue",
    "occurrences",
    "plan_signature",
    "simulate",
    "simulate_checked",
    "utilization_summary",
]
