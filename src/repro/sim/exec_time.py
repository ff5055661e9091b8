"""Execution-time policies for simulated jobs.

The analysis bounds hold for every run-time behaviour with execution
times in ``[B(tau), W(tau)]``; the simulator draws per-job execution
times from a policy.  The paper's evaluation simulates randomized runs
(its ``Sim`` series is "a lower bound of the worst-case time disparity
instead of a safe upper-bound"), so the default policy is uniform.
Adversarial policies (always-WCET, always-BCET, extremes) help push the
observed disparity closer to the analytical worst case in tests.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.model.task import ModelError, Task
from repro.units import Time

#: A policy maps (task, job_index, rng) to an execution time.
ExecTimePolicy = Callable[[Task, int, random.Random], Time]


def uniform_policy(task: Task, job_index: int, rng: random.Random) -> Time:
    """Uniform draw from ``[B(tau), W(tau)]`` (the default).

    The draw is ``bcet + int(rng.random() * span)`` — the exact stream
    the columnar kernel inlines — so the simulator and the batch tier
    consume the same number of RNG states and produce identical
    schedules for the same seed.  Degenerate ranges
    (``bcet == wcet``) consume no randomness at all.
    """
    if task.bcet == task.wcet:
        return task.wcet
    return task.bcet + int(rng.random() * (task.wcet - task.bcet + 1))


def wcet_policy(task: Task, job_index: int, rng: random.Random) -> Time:
    """Every job takes its WCET."""
    return task.wcet


def bcet_policy(task: Task, job_index: int, rng: random.Random) -> Time:
    """Every job takes its BCET."""
    return task.bcet


def extremes_policy(task: Task, job_index: int, rng: random.Random) -> Time:
    """Each job takes either BCET or WCET with equal probability.

    Extremal execution times maximize jitter, which widens the observed
    backward-time range and typically raises the observed disparity —
    useful for stress tests that push the simulated lower bound toward
    the analytical bound.
    """
    return task.bcet if rng.random() < 0.5 else task.wcet


def per_task_policy(assignments: Dict[str, ExecTimePolicy],
                    default: ExecTimePolicy = uniform_policy) -> ExecTimePolicy:
    """Compose a policy from per-task overrides (failure injection etc.)."""

    def policy(task: Task, job_index: int, rng: random.Random) -> Time:
        chosen = assignments.get(task.name, default)
        return chosen(task, job_index, rng)

    return policy


#: Columnar-kernel encoding of the named policies: how the kernel
#: turns one ``random()`` variate of the sim's own MT19937 stream (or
#: none) into an execution time.  0 — ``bcet + int(u * span)``, one
#: variate per job of a task with ``span > 1``; 1/2 — WCET/BCET, no
#: variates; 3 — one variate per job, ``bcet if u < 0.5 else wcet``.
#: Policies not listed here (arbitrary callables, per-task
#: compositions) are not batchable and keep the per-replication
#: engines.
BATCH_POLICY_MODES: Dict[ExecTimePolicy, int] = {
    uniform_policy: 0,
    wcet_policy: 1,
    bcet_policy: 2,
    extremes_policy: 3,
}


_NAMED: Dict[str, ExecTimePolicy] = {
    "uniform": uniform_policy,
    "wcet": wcet_policy,
    "bcet": bcet_policy,
    "extremes": extremes_policy,
}


def named_policy(name: str) -> ExecTimePolicy:
    """Look up a policy by name (CLI / config plumbing)."""
    try:
        return _NAMED[name]
    except KeyError:
        raise ModelError(
            f"unknown execution-time policy {name!r}; "
            f"choose from {sorted(_NAMED)}"
        ) from None
