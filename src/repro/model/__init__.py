"""System model: tasks, graphs, chains, platforms, validation."""

from repro.model.chain import (
    Chain,
    PairDecomposition,
    common_tasks,
    decompose_pair,
    enumerate_all_chains,
    enumerate_source_chains,
)
from repro.model.graph import CauseEffectGraph, Channel
from repro.model.platform import (
    DEFAULT_FRAME_TIME,
    Platform,
    ProcessingUnit,
    assign_random,
    assign_round_robin,
    insert_message_tasks,
)
from repro.model.system import System
from repro.model.task import (
    PERIODIC_RELEASE,
    ModelError,
    ReleaseModel,
    Task,
    message_task,
    source_task,
)
from repro.model.validation import (
    ValidationReport,
    validate_deployment,
    validate_schedulability,
    validate_structure,
    validate_system,
)

__all__ = [
    "Chain",
    "PairDecomposition",
    "common_tasks",
    "decompose_pair",
    "enumerate_all_chains",
    "enumerate_source_chains",
    "CauseEffectGraph",
    "Channel",
    "DEFAULT_FRAME_TIME",
    "Platform",
    "ProcessingUnit",
    "assign_random",
    "assign_round_robin",
    "insert_message_tasks",
    "System",
    "ModelError",
    "PERIODIC_RELEASE",
    "ReleaseModel",
    "Task",
    "message_task",
    "source_task",
    "ValidationReport",
    "validate_deployment",
    "validate_schedulability",
    "validate_structure",
    "validate_system",
]
