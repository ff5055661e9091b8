"""Discrete-event simulation of cause-effect systems."""

from repro.sim.channels import ChannelState
from repro.sim.engine import (
    Job,
    Observer,
    SimulationResult,
    SimulationStats,
    Simulator,
    randomize_offsets,
    simulate,
)
from repro.sim.exec_time import (
    ExecTimePolicy,
    bcet_policy,
    extremes_policy,
    named_policy,
    per_task_policy,
    uniform_policy,
    wcet_policy,
)
from repro.sim.faults import DropoutWindow, FaultPlan, StalenessMonitor
from repro.sim.gantt import render_gantt
from repro.sim.metrics import (
    BackwardTimeMonitor,
    DataAgeMonitor,
    DisparityMonitor,
    JobRecord,
    JobTableMonitor,
    ObservedRange,
)
from repro.sim.provenance import (
    Provenance,
    Token,
    disparity_of,
    merge_provenance,
    pairwise_disparity_of,
    source_token,
)

__all__ = [
    "ChannelState",
    "Job",
    "Observer",
    "SimulationResult",
    "SimulationStats",
    "Simulator",
    "randomize_offsets",
    "simulate",
    "ExecTimePolicy",
    "bcet_policy",
    "extremes_policy",
    "named_policy",
    "per_task_policy",
    "uniform_policy",
    "wcet_policy",
    "DropoutWindow",
    "FaultPlan",
    "StalenessMonitor",
    "render_gantt",
    "BackwardTimeMonitor",
    "DataAgeMonitor",
    "DisparityMonitor",
    "JobRecord",
    "JobTableMonitor",
    "ObservedRange",
    "Provenance",
    "Token",
    "disparity_of",
    "merge_provenance",
    "pairwise_disparity_of",
    "source_token",
]
