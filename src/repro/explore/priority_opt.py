"""Priority assignment optimization for disparity (extension).

The paper optimizes buffers; priorities are another lever.  Lemma 4's
same-unit hop budget drops from ``T + R − (W + B)`` to ``T`` when the
producer has *higher* priority than its consumer, so priority orders
that respect the data flow shrink the backward-time windows — and the
disparity bound with them.  But priorities also set response times
(the ``R`` terms everywhere), so the effect is global and non-convex;
this module provides a deterministic local search:

* start from the current assignment (typically rate-monotonic);
* repeatedly try swapping priority levels of task pairs sharing a
  unit, keeping a swap when the target task's S-diff bound improves
  and the system stays schedulable;
* stop at a local optimum or after ``max_rounds``.

This never degrades the bound (the search is monotone) and keeps every
intermediate assignment schedulable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.core.disparity import disparity_bound
from repro.model.system import System
from repro.model.task import ModelError
from repro.units import Time


@dataclass(frozen=True)
class PriorityOptResult:
    """Outcome of the priority search.

    ``observed_before`` / ``observed_after`` are the max observed
    disparities of the start and final assignments over paired batched
    replications (same seeds and offset draws on both sides, so the
    pair is directly comparable); ``None`` unless the search requested
    them via ``observed_sims``.
    """

    system: System
    bound_before: Time
    bound_after: Time
    swaps_applied: Tuple[Tuple[str, str], ...]
    evaluations: int
    observed_before: Optional[Time] = None
    observed_after: Optional[Time] = None

    @property
    def improved(self) -> bool:
        """True when the search strictly reduced the bound."""
        return self.bound_after < self.bound_before


def _swap_priorities(system: System, a: str, b: str) -> Optional[System]:
    """A new system with the priorities of ``a`` and ``b`` exchanged.

    Returns ``None`` when the swapped system is unschedulable.
    """
    graph = system.graph.copy()
    task_a = graph.task(a)
    task_b = graph.task(b)
    graph.replace_task(task_a.with_priority(task_b.priority))
    graph.replace_task(task_b.with_priority(task_a.priority))
    try:
        return System.build(graph)
    except ModelError:
        return None


def _observed_pair(
    system: System,
    final: System,
    task: str,
    sims: int,
    duration: Optional[Time],
    warmup: Time,
    seed: int,
) -> Tuple[Time, Time]:
    """Paired observed disparities of the start and final assignments.

    The base scenario is compiled once; the final assignment is a
    ``priorities`` edit of it (only the per-unit rank tables are
    rebuilt — release grids, stream tables, the provenance domain and
    the monitored closure stay shared).  Both sides replay the same
    ``(seed, offsets)`` draws, so the pair isolates the effect of the
    reassignment.
    """
    if duration is None or duration <= 0:
        raise ModelError(
            "observed_sims > 0 requires a positive observed_duration"
        )
    from repro.sim.batch import CompiledScenario, run_batch

    base = CompiledScenario(system, task)
    before = run_batch(
        system,
        task,
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=random.Random(seed),
        compiled=base,
    ).max_disparity
    changed = {
        t.name: t.priority
        for t in final.graph.tasks
        if t.priority != system.graph.task(t.name).priority
    }
    after_compiled = base.edit(priorities=changed) if changed else base
    after = run_batch(
        final,
        task,
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=random.Random(seed),
        compiled=after_compiled,
    ).max_disparity
    return before, after


def optimize_priorities(
    system: System,
    task: str,
    *,
    max_rounds: int = 4,
    method: str = "forkjoin",
    observed_sims: int = 0,
    observed_duration: Optional[Time] = None,
    observed_warmup: Time = 0,
    observed_seed: int = 0,
) -> PriorityOptResult:
    """Local search over same-unit priority swaps minimizing S-diff.

    Only tasks that actually execute (non-instantaneous) are swapped;
    message tasks participate (reordering CAN identifiers is a real
    design lever).  With ``observed_sims > 0`` the start and final
    assignments are additionally measured by paired batched
    replications (``observed_duration`` horizon, shared draws), the
    final one evaluated through a ``priorities`` edit of the start's
    compiled scenario — see :class:`PriorityOptResult`.
    """
    if max_rounds < 1:
        raise ModelError(f"max_rounds must be >= 1, got {max_rounds}")
    current = system
    bound_before = disparity_bound(system, task, method=method)
    best = bound_before
    applied: List[Tuple[str, str]] = []
    evaluations = 1

    by_unit: Dict[str, List[str]] = {}
    for t in system.graph.tasks:
        if t.is_instantaneous or t.ecu is None:
            continue
        by_unit.setdefault(t.ecu, []).append(t.name)

    for _round in range(max_rounds):
        improved = False
        for unit_tasks in by_unit.values():
            for a, b in combinations(sorted(unit_tasks), 2):
                candidate = _swap_priorities(current, a, b)
                if candidate is None:
                    continue
                evaluations += 1
                value = disparity_bound(candidate, task, method=method)
                if value < best:
                    current, best = candidate, value
                    applied.append((a, b))
                    improved = True
        if not improved:
            break
    observed_before = observed_after = None
    if observed_sims > 0:
        observed_before, observed_after = _observed_pair(
            system,
            current,
            task,
            observed_sims,
            observed_duration,
            observed_warmup,
            observed_seed,
        )
    return PriorityOptResult(
        system=current,
        bound_before=bound_before,
        bound_after=best,
        swaps_applied=tuple(applied),
        evaluations=evaluations,
        observed_before=observed_before,
        observed_after=observed_after,
    )
