"""Cycle-accurate flit-level NoC simulation."""

from repro.sim.simulator import (
    DEFAULT_KERNEL,
    KERNELS,
    DrainTimeoutError,
    NocSimulator,
    RecoveryOutcome,
)
from repro.sim.experiments import (
    LoadPoint,
    load_latency_curve,
    saturation_throughput,
)
from repro.sim.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    RecoveryController,
    RetransmissionPolicy,
)
from repro.sim.stats import (
    DegradedLatencyReport,
    FaultRecord,
    LatencySummary,
    PacketRecord,
    RecoveryRecord,
    StatsCollector,
)
from repro.sim.tracing import FlitEvent, TraceEventKind, TraceRecorder
from repro.sim.traffic import (
    CompositeTraffic,
    RequestResponseTraffic,
    Flow,
    FlowGraphTraffic,
    SyntheticTraffic,
    TraceEvent,
    TraceTraffic,
)

__all__ = [
    "DEFAULT_KERNEL",
    "KERNELS",
    "DrainTimeoutError",
    "NocSimulator",
    "RecoveryOutcome",
    "LoadPoint",
    "load_latency_curve",
    "saturation_throughput",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "RecoveryController",
    "RetransmissionPolicy",
    "DegradedLatencyReport",
    "FaultRecord",
    "LatencySummary",
    "PacketRecord",
    "RecoveryRecord",
    "StatsCollector",
    "FlitEvent",
    "TraceEventKind",
    "TraceRecorder",
    "CompositeTraffic",
    "RequestResponseTraffic",
    "Flow",
    "FlowGraphTraffic",
    "SyntheticTraffic",
    "TraceEvent",
    "TraceTraffic",
]
