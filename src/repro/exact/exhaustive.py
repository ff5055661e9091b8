"""Exhaustive offset-space verification for small systems.

For a *small* system, the disparity-relevant behaviour is determined by
the release offsets (mod periods) and the execution times.  Fixing a
deterministic execution-time policy and sweeping offsets over a grid
covering each task's period yields the **exact maximum** steady-state
disparity over that grid — ground truth to measure how tight the
analytical bounds really are, and a brutal regression test for the
whole stack (any unsound bound shows up as grid point above it).

The grid is exponential in the task count — intended for systems of up
to ~5 tasks with coarse steps.  :func:`grid_size` lets callers check
the cost before committing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List

from repro.exact.hyperperiod import steady_state_disparity
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.exec_time import ExecTimePolicy, wcet_policy
from repro.units import Time


@dataclass(frozen=True)
class ExhaustiveResult:
    """Exact grid maximum and the witnessing offsets."""

    disparity: Time
    offsets: Dict[str, Time]
    points_evaluated: int
    all_converged: bool


def _offset_grid(period: Time, steps: int) -> List[Time]:
    """``steps`` offsets spread uniformly over ``[0, period)``."""
    return [period * k // steps for k in range(steps)]


def grid_size(system: System, steps: int) -> int:
    """Number of offset combinations a sweep would evaluate."""
    return steps ** len(system.graph.tasks)


def exhaustive_offset_disparity(
    system: System,
    task: str,
    *,
    steps: int = 4,
    policy: ExecTimePolicy = wcet_policy,
    max_points: int = 4096,
    max_windows: int = 6,
) -> ExhaustiveResult:
    """Exact maximum steady-state disparity over the offset grid.

    Args:
        system: The analyzed system (its own offsets are ignored).
        task: Task whose disparity is maximized.
        steps: Grid resolution per task (offsets at ``k*T/steps``).
        policy: Deterministic execution-time policy.
        max_points: Hard cap on grid size; exceeding it raises instead
            of silently running for hours.
        max_windows: Steady-state detection budget per point.
    """
    if steps < 1:
        raise ModelError(f"steps must be >= 1, got {steps}")
    total = grid_size(system, steps)
    if total > max_points:
        raise ModelError(
            f"offset grid has {total} points (> max_points={max_points}); "
            f"reduce steps or use the coordinate search instead"
        )
    names = [t.name for t in system.graph.tasks]
    grids = [_offset_grid(system.T(name), steps) for name in names]

    best: Time = -1
    best_offsets: Dict[str, Time] = {}
    evaluated = 0
    all_converged = True
    for combo in product(*grids):
        offsets = dict(zip(names, combo))
        result = steady_state_disparity(
            system.with_offsets(offsets),
            task,
            policy=policy,
            max_windows=max_windows,
        )
        evaluated += 1
        all_converged = all_converged and result.converged
        if result.disparity > best:
            best = result.disparity
            best_offsets = offsets
    return ExhaustiveResult(
        disparity=best,
        offsets=best_offsets,
        points_evaluated=evaluated,
        all_converged=all_converged,
    )
