"""Structural and scheduling validation of cause-effect systems.

Collects every model constraint in one place so that graph builders,
generators, and the :class:`repro.model.system.System` constructor can
produce actionable error messages instead of failing deep inside an
analysis:

* source tasks must have ``W = B = 0`` (paper's convention);
* every task must be mapped and prioritized (unique per unit);
* the graph should be weakly connected (a warning-level issue surfaced
  as a report, not an exception);
* every task must satisfy ``R(tau) <= T(tau)`` under NP-FP — the paper's
  standing schedulability assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.model.graph import CauseEffectGraph
from repro.model.task import ModelError
from repro.sched.response_time import (
    ResponseTimeTable,
    SchedulabilityError,
    analyze_all,
)


@dataclass
class ValidationReport:
    """Outcome of validating a graph: hard errors and soft warnings."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: The NP-FP response-time table the schedulability check computed
    #: (``None`` when that check did not run or failed).
    response_times: Optional[ResponseTimeTable] = None

    @property
    def ok(self) -> bool:
        """True when no hard error was recorded."""
        return not self.errors

    def raise_if_failed(self) -> None:
        """Raise :class:`ModelError` summarizing all recorded errors."""
        if self.errors:
            raise ModelError("; ".join(self.errors))


def validate_structure(graph: CauseEffectGraph) -> ValidationReport:
    """Check graph-level constraints (no scheduling analysis)."""
    report = ValidationReport()
    if len(graph) == 0:
        report.errors.append("graph has no tasks")
        return report

    for name in graph.task_names:
        task = graph.task(name)
        if graph.is_source(name):
            if task.wcet != 0 or task.bcet != 0:
                report.errors.append(
                    f"source task {name!r} must have W=B=0 "
                    f"(got W={task.wcet}, B={task.bcet})"
                )
        elif task.wcet == 0:
            report.warnings.append(
                f"non-source task {name!r} has zero WCET; it will behave "
                f"like an instantaneous relay"
            )

    if not graph.sources():
        report.errors.append("graph has no source task")
    if not graph.sinks():
        report.errors.append("graph has no sink task")
    if not graph.is_weakly_connected():
        report.warnings.append("graph is not weakly connected")

    # Non-source tasks unreachable from any source never receive data.
    sources = set(graph.sources())
    reachable = set(sources)
    for source in sources:
        reachable |= graph.descendants(source)
    unreachable = [n for n in graph.task_names if n not in reachable]
    if unreachable:
        report.warnings.append(
            f"tasks unreachable from any source: {sorted(unreachable)}"
        )
    return report


def validate_deployment(graph: CauseEffectGraph) -> ValidationReport:
    """Check mapping and priority constraints."""
    report = ValidationReport()
    seen: dict = {}
    for task in graph.tasks:
        if task.ecu is None:
            report.errors.append(f"task {task.name!r} is not mapped to a unit")
            continue
        if task.priority is None:
            report.errors.append(f"task {task.name!r} has no priority")
            continue
        key = (task.ecu, task.priority)
        if not task.is_instantaneous:
            if key in seen:
                report.errors.append(
                    f"tasks {seen[key]!r} and {task.name!r} share priority "
                    f"{task.priority} on unit {task.ecu!r}"
                )
            seen[key] = task.name
    return report


def validate_schedulability(graph: CauseEffectGraph) -> ValidationReport:
    """Check the paper's standing assumption ``R(tau) <= T(tau)``."""
    report = ValidationReport()
    try:
        report.response_times = analyze_all(graph.tasks)
    except SchedulabilityError as exc:
        report.errors.append(str(exc))
    except ModelError as exc:
        report.errors.append(str(exc))
    return report


def validate_system(graph: CauseEffectGraph) -> ValidationReport:
    """Run all validation stages, accumulating errors and warnings."""
    combined = ValidationReport()
    for stage in (validate_structure, validate_deployment, validate_schedulability):
        partial = stage(graph)
        combined.errors.extend(partial.errors)
        combined.warnings.extend(partial.warnings)
        combined.response_times = partial.response_times
        if partial.errors and stage is not validate_schedulability:
            # Scheduling analysis requires a well-formed deployment;
            # stop early to avoid cascading errors.
            break
    return combined
