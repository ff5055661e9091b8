"""Design-space exploration around the disparity bounds (extension).

Section IV's message is that some intuitive design levers (raising a
task's sampling frequency) do not move the worst-case time disparity,
while others (buffer sizing) do.  These helpers turn that observation
into tooling a system designer can sweep:

* :func:`period_sensitivity` — re-analyze a task's disparity bound for
  several candidate periods of one task (the Fig. 4 experiment as a
  reusable function);
* :func:`buffer_capacity_sweep` — disparity bound as a function of one
  channel's FIFO capacity, exposing the sawtooth the window alignment
  produces (optimal at Algorithm 1's choice, worse beyond it);
* :func:`disparity_margins` — per-task slack against a requirement,
  for requirement budgeting across an application.

All sweeps re-run the full analysis per candidate (response times
included, since periods change them), so results are exact rather than
incremental approximations.  Each sweep can additionally measure an
*observed* disparity per candidate (``observed_sims`` batched
replications through
:meth:`repro.api.AnalysisSession.observed_disparity`, which compiles
the candidate system once and replays every replication against it).
Per-candidate seeds are derived up front from ``seed`` in input order,
and every candidate runs the same code inline or in a worker process,
so the observed column is identical for any ``jobs``.

Both sweeps accept ``semantics="let"`` to retarget the candidate
analysis to the LET backward bounds (:mod:`repro.let`) *and* replay
the observed replications under LET data flow: each candidate opens
one :class:`~repro.api.AnalysisSession` under the sweep's semantics,
which yields both its bound and its observed column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import AnalysisSession
from repro.core.disparity import disparity_bound
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.batch import check_observed_duration
from repro.sim.engine import check_semantics
from repro.units import Time


@dataclass(frozen=True)
class SweepPoint:
    """One candidate design and its resulting disparity bound.

    ``observed`` is the max disparity over the candidate's batched
    replications (``None`` unless the sweep requested them and the
    candidate is schedulable) — the empirical lower bound next to the
    analytic upper bound.
    """

    value: int
    bound: Optional[Time]
    schedulable: bool
    observed: Optional[Time] = None


@dataclass(frozen=True)
class _ObservedSpec:
    """Per-sweep replication request plus one candidate's seed."""

    sims: int
    duration: Time
    warmup: Time
    point_seed: int


def _candidate_point(
    candidate: System,
    value: int,
    analyzed_task: str,
    method: str,
    semantics: str,
    spec: Optional[_ObservedSpec],
) -> SweepPoint:
    """One candidate's bound and observed column, from one session."""
    session = AnalysisSession(candidate, semantics=semantics)
    bound = session.disparity(analyzed_task, method=method)
    observed = None
    if spec is not None:
        observed = session.observed_disparity(
            analyzed_task,
            sims=spec.sims,
            duration=spec.duration,
            warmup=spec.warmup,
            rng=random.Random(spec.point_seed),
        )
    return SweepPoint(
        value=value, bound=bound, schedulable=True, observed=observed
    )


def _observed_specs(
    n_points: int,
    sims: int,
    duration: Optional[Time],
    warmup: Time,
    seed: int,
) -> List[Optional[_ObservedSpec]]:
    """One spec per candidate, seeds derived up front in input order."""
    if sims <= 0:
        return [None] * n_points
    check_observed_duration(duration)
    rng = random.Random(seed)
    return [
        _ObservedSpec(
            sims=sims,
            duration=duration,
            warmup=warmup,
            point_seed=rng.randrange(2**31),
        )
        for _ in range(n_points)
    ]


def _period_point(
    params: Tuple[System, str, str, Time, str, str, Optional[_ObservedSpec]],
) -> SweepPoint:
    """One candidate of :func:`period_sensitivity` (pool-safe)."""
    system, task, analyzed_task, period, method, semantics, spec = params
    graph = system.graph.copy()
    original = graph.task(task)
    try:
        graph.replace_task(replace(original, period=period))
        candidate = System.build(graph)
        return _candidate_point(
            candidate, period, analyzed_task, method, semantics, spec
        )
    except ModelError:
        return SweepPoint(value=period, bound=None, schedulable=False)


def period_sensitivity(
    system: System,
    task: str,
    analyzed_task: str,
    candidate_periods: Sequence[Time],
    *,
    method: str = "forkjoin",
    semantics: str = "implicit",
    jobs: int = 1,
    observed_sims: int = 0,
    observed_duration: Optional[Time] = None,
    observed_warmup: Time = 0,
    seed: int = 0,
) -> List[SweepPoint]:
    """Disparity bound of ``analyzed_task`` per candidate ``T(task)``.

    Candidates that make the system unschedulable are reported with
    ``schedulable=False`` and no bound instead of raising, so a sweep
    over an aggressive range still yields a complete picture.
    Candidates are independent full re-analyses, so ``jobs > 1`` fans
    them across worker processes with identical results.  With
    ``observed_sims > 0`` each schedulable candidate also runs that
    many batched replications of ``observed_duration`` (warmup
    ``observed_warmup``) and reports the max observed disparity.
    ``semantics="let"`` evaluates both the bound (LET backward bounds)
    and the observed replications under LET data flow.
    """
    from repro.parallel.engine import PoolRunner

    check_semantics(semantics)
    specs = _observed_specs(
        len(candidate_periods),
        observed_sims,
        observed_duration,
        observed_warmup,
        seed,
    )
    params = [
        (system, task, analyzed_task, period, method, semantics, spec)
        for period, spec in zip(candidate_periods, specs)
    ]
    with PoolRunner(jobs) as pool:
        results, _ = pool.map_ordered(_period_point, params)
    return results


def _capacity_point(
    params: Tuple[System, str, str, str, int, str, str, Optional[_ObservedSpec]],
) -> SweepPoint:
    """One candidate of :func:`buffer_capacity_sweep` (pool-safe)."""
    system, src, dst, analyzed_task, capacity, method, semantics, spec = params
    candidate = system.with_channel_capacity(src, dst, capacity)
    return _candidate_point(
        candidate, capacity, analyzed_task, method, semantics, spec
    )


def buffer_capacity_sweep(
    system: System,
    channel: Tuple[str, str],
    analyzed_task: str,
    *,
    max_capacity: int = 12,
    method: str = "forkjoin",
    semantics: str = "implicit",
    jobs: int = 1,
    observed_sims: int = 0,
    observed_duration: Optional[Time] = None,
    observed_warmup: Time = 0,
    seed: int = 0,
) -> List[SweepPoint]:
    """Disparity bound of ``analyzed_task`` per capacity of ``channel``.

    Buffers do not affect scheduling, so response times are reused.
    The resulting curve is typically V-shaped: the bound falls while
    the buffered chain's sampling window approaches the other chains'
    windows and rises again once it overshoots — with the minimum at
    the capacity Algorithm 1 computes for the binding pair.
    ``jobs > 1`` evaluates the capacities across worker processes.
    With ``observed_sims > 0`` every capacity additionally reports the
    max observed disparity over that many batched replications.
    ``semantics="let"`` evaluates both the bound (LET backward bounds)
    and the observed replications under LET data flow.
    """
    if max_capacity < 1:
        raise ModelError(f"max_capacity must be >= 1, got {max_capacity}")
    src, dst = channel
    system.graph.channel(src, dst)  # existence check
    from repro.parallel.engine import PoolRunner

    check_semantics(semantics)
    capacities = list(range(1, max_capacity + 1))
    specs = _observed_specs(
        len(capacities),
        observed_sims,
        observed_duration,
        observed_warmup,
        seed,
    )
    params = [
        (system, src, dst, analyzed_task, capacity, method, semantics, spec)
        for capacity, spec in zip(capacities, specs)
    ]
    with PoolRunner(jobs) as pool:
        results, _ = pool.map_ordered(_capacity_point, params)
    return results


def best_capacity(points: Sequence[SweepPoint]) -> SweepPoint:
    """The sweep point with the smallest bound (ties: smallest value)."""
    feasible = [p for p in points if p.bound is not None]
    if not feasible:
        raise ModelError("no feasible sweep point")
    return min(feasible, key=lambda p: (p.bound, p.value))


@dataclass(frozen=True)
class Margin:
    """Requirement slack of one task: ``threshold - bound``."""

    task: str
    bound: Time
    threshold: Time

    @property
    def slack(self) -> Time:
        """Remaining budget: ``threshold - bound``."""
        return self.threshold - self.bound

    @property
    def satisfied(self) -> bool:
        """True when the bound meets the threshold."""
        return self.bound <= self.threshold


def disparity_margins(
    system: System,
    requirements: Dict[str, Time],
    *,
    method: str = "forkjoin",
) -> List[Margin]:
    """Check several per-task disparity requirements at once."""
    from repro.chains.backward import BackwardBoundsCache

    cache = BackwardBoundsCache(system)
    margins = []
    for task, threshold in sorted(requirements.items()):
        bound = disparity_bound(system, task, method=method, cache=cache)
        margins.append(Margin(task=task, bound=bound, threshold=threshold))
    return margins
