"""Offset search: a stronger empirical lower bound on disparity.

The paper's ``Sim`` series draws release offsets uniformly at random —
a weak explorer of the worst case, since the worst alignment of a long
chain needs many per-hop coincidences.  This module searches the offset
space directly: the objective is the (deterministic) steady-state
disparity of :mod:`repro.exact.hyperperiod`, and the optimizer is a
seeded multi-start coordinate ascent — for each task in turn, try a
handful of candidate offsets and keep the best.

Two structural properties make the search fast and parallel:

* **Compiled objective.** Every evaluation re-simulates the same
  system with nothing but the offset vector changed — exactly the
  shape :class:`repro.sim.batch.CompiledScenario` amortizes.  The
  scenario is compiled once per restart and each candidate is replayed
  at its own offset vector: the precomputed release-stream tables are
  rebased by vector shift and
  the steady-state probe runs through the compiled replication loop
  (results are pinned equal to
  :func:`~repro.exact.hyperperiod.steady_state_disparity`); systems
  the compiled loop cannot handle fall back to the unoptimized
  reference :class:`~repro.sim.engine.Simulator` per evaluation, which
  costs several times more per evaluation.

* **Independent restarts.** Each restart runs from its own seed,
  derived up front from the caller's ``rng``, so restarts can fan out
  across :class:`repro.parallel.PoolRunner` workers and the result is
  bit-identical for any ``jobs`` value.  Restart costs are highly
  heterogeneous (early termination, fallback evaluations), which is
  exactly what the pool's adaptive chunk resizing absorbs: observed
  restart timings shrink or grow the chunks in flight so no worker
  idles behind one slow restart.  Within a sweep, the candidate
  offsets of one task are drawn as a batch before any is evaluated and
  acceptance is replayed as a running max afterwards — equivalent to
  the serial draw-then-test loop, with every evaluation of the batch
  independent.

The result is still a *lower* bound on the true worst case (execution
times are pinned to WCET during the search), but a substantially
tighter one than random draws, which narrows the measured gap to the
analytical upper bounds (see ``benchmarks/test_bench_offset_search.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from repro.exact.hyperperiod import steady_state_disparity
from repro.model.system import System
from repro.model.task import ModelError
from repro.parallel.engine import PoolRunner
from repro.sim.batch import CompiledScenario
from repro.sim.exec_time import ExecTimePolicy, wcet_policy
from repro.units import Time


@dataclass(frozen=True)
class OffsetSearchResult:
    """Best offsets found and the disparity they exhibit."""

    offsets: Dict[str, Time]
    disparity: Time
    evaluations: int


def _apply_offsets(system: System, offsets: Dict[str, Time]) -> System:
    graph = system.graph.copy()
    for name, offset in offsets.items():
        graph.replace_task(graph.task(name).with_offset(offset))
    return System(graph=graph, response_times=system.response_times)


def _random_offsets(system: System, rng: random.Random) -> Dict[str, Time]:
    return {
        task.name: rng.randint(1, task.period) for task in system.graph.tasks
    }


class _CompiledObjective:
    """The steady-state objective, evaluated on a compiled scenario.

    Replays :func:`~repro.exact.hyperperiod.steady_state_disparity`
    (seed 0, implicit semantics) with everything offset-independent
    hoisted out of the per-evaluation path: the hyperperiod, the
    offset-free part of the warmup horizon, and the response-time gate
    of the two-window convergence probe.  Ineligible scenarios (see
    :attr:`CompiledScenario.ineligible_reason`) evaluate through the
    reference implementation instead, so results never depend on
    eligibility.
    """

    def __init__(
        self,
        system: System,
        task: str,
        policy: ExecTimePolicy,
        max_windows: int,
    ) -> None:
        self.system = system
        self.task = task
        self.policy = policy
        self.max_windows = max_windows
        self.compiled = CompiledScenario(system, task)
        graph = system.graph
        self.order = [t.name for t in graph.tasks]
        self.hyperperiod = graph.hyperperiod()
        # warmup_horizon(system) minus its max-offset term; offsets
        # are the search variables, the rest is fixed per system.
        self.warmup_base = 2 * sum(t.period for t in graph.tasks) + sum(
            (channel.capacity - 1) * graph.task(channel.src).period
            for channel in graph.channels
        )
        self.probe_ok = max_windows >= 3 and all(
            system.R(t.name) <= self.hyperperiod for t in graph.tasks
        )

    def value(self, offsets: Dict[str, Time]) -> Time:
        if not self.compiled.eligible:
            return steady_state_disparity(
                _apply_offsets(self.system, offsets),
                self.task,
                policy=self.policy,
                max_windows=self.max_windows,
            ).disparity
        # One candidate = one offset vector replayed on the shared
        # compiled tables; the release grid is rebased by vector shift
        # instead of being regenerated per evaluation (candidates are
        # drawn in [1, T], so every replay takes the delta path).  The
        # scenario's schedule memo does not pay here: re-drawn
        # duplicates are rare and the two probe horizons differ, so it
        # measured 0 hits in 2,724 lookups.
        vector = tuple(offsets[name] for name in self.order)
        compiled = self.compiled
        horizon = self.hyperperiod
        warmup = max(vector) + self.warmup_base
        if self.probe_ok:
            first = compiled.windowed_maxima(
                vector,
                warmup + 3 * horizon,
                warmup,
                horizon,
                2,
                policy=self.policy,
            )
            if first[0] == first[1]:
                return first[1]
        count = self.max_windows
        values = compiled.windowed_maxima(
            vector,
            warmup + count * horizon,
            warmup,
            horizon,
            count,
            policy=self.policy,
        )
        for index in range(1, count):
            if values[index] == values[index - 1]:
                return values[index]
        return max(values)


def _run_restart(
    seed: int,
    *,
    system: System,
    task: str,
    sweeps: int,
    candidates_per_task: int,
    policy: ExecTimePolicy,
    max_windows: int,
) -> Tuple[Dict[str, Time], Time, int]:
    """One coordinate-ascent restart from its own derived seed.

    Top-level (hence picklable) so restarts can run in pool workers;
    the scenario is compiled inside the worker, never shipped.
    Returns ``(best offsets, best value, evaluations)``.
    """
    rng = random.Random(seed)
    objective = _CompiledObjective(system, task, policy, max_windows)
    evaluations = 1
    offsets = _random_offsets(system, rng)
    value = objective.value(offsets)
    for _sweep in range(sweeps):
        improved = False
        order = list(objective.order)
        rng.shuffle(order)
        for name in order:
            period = system.graph.task(name).period
            # Draw the task's whole candidate batch before evaluating
            # any of it (every candidate replaces only ``name``, so
            # acceptance cannot change later candidates), then replay
            # the serial running-max acceptance over the batch.
            draws = [
                rng.randint(1, period) for _ in range(candidates_per_task)
            ]
            batch_values = [
                objective.value({**offsets, name: off}) for off in draws
            ]
            evaluations += len(draws)
            for off, candidate_value in zip(draws, batch_values):
                if candidate_value > value:
                    offsets = {**offsets, name: off}
                    value = candidate_value
                    improved = True
        if not improved:
            break
    return offsets, value, evaluations


def maximize_disparity_offsets(
    system: System,
    task: str,
    rng: random.Random,
    *,
    restarts: int = 3,
    sweeps: int = 2,
    candidates_per_task: int = 4,
    policy: ExecTimePolicy = wcet_policy,
    max_windows: int = 4,
    jobs: int = 1,
) -> OffsetSearchResult:
    """Coordinate-ascent search for offsets maximizing the disparity.

    Restarts are independent (each gets a seed derived up front from
    ``rng``) and run across ``jobs`` worker processes; the result is
    identical for any ``jobs`` value.

    Args:
        system: The analyzed system (offsets in it are ignored).
        task: Task whose disparity is maximized.
        rng: Randomness source; consumed only to derive one seed per
            restart.
        restarts: Independent random starting points.
        sweeps: Coordinate-ascent passes over all tasks per restart.
        candidates_per_task: Offsets tried per task per pass.
        policy: Deterministic execution-time policy for the objective.
        max_windows: Steady-state detection budget per evaluation.
        jobs: Worker processes for the restarts (1 = inline serial;
            0/None = all CPUs, as in the CLI).
    """
    if restarts < 1 or sweeps < 1 or candidates_per_task < 1:
        raise ModelError("restarts, sweeps and candidates_per_task must be >= 1")
    if max_windows < 2:
        raise ModelError(f"max_windows must be >= 2, got {max_windows}")
    restart_seeds = [rng.randrange(2**31) for _ in range(restarts)]
    worker = partial(
        _run_restart,
        system=system,
        task=task,
        sweeps=sweeps,
        candidates_per_task=candidates_per_task,
        policy=policy,
        max_windows=max_windows,
    )
    with PoolRunner(jobs) as runner:
        results, _stats = runner.map_ordered(worker, restart_seeds)

    best_offsets: Optional[Dict[str, Time]] = None
    best_value: Time = -1
    evaluations = 0
    for offsets, value, restart_evals in results:
        evaluations += restart_evals
        if value > best_value:
            best_offsets, best_value = offsets, value

    assert best_offsets is not None
    return OffsetSearchResult(
        offsets=best_offsets, disparity=best_value, evaluations=evaluations
    )
