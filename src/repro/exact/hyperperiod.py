"""Steady-state disparity of a fully determined system (extension).

With fixed release offsets and a *deterministic* execution-time policy
(e.g. every job at WCET), a schedulable periodic system reaches a
steady state in which its behaviour repeats with the hyperperiod ``H``
(the channel contents, ready queues, and token ages all become
periodic).  The maximum disparity observed over one steady-state
hyperperiod is then the *exact* worst-case disparity of that concrete
system — not a bound, not a sample.

:class:`SteadyStateRule` is the one home of the steady-state rule: each row
of a batch warms up for :func:`warmup_horizon`, a two-window probe to
``warmup + 3H`` settles the rows whose first two windows agree, and the
rest replay window after window of length ``H`` until two consecutive
windows agree (with a cap); the result is flagged ``converged``.  The
windows themselves come from a per-row source:
:func:`steady_state_disparity` feeds it one
:class:`~repro.sim.engine.Simulator` run, and the offset search of
:mod:`repro.exact.search` feeds it a whole candidate batch through the
columnar kernel (:func:`repro.sim.columnar.run_windowed`), so both
measure the same well-defined objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.engine import Job, Observer, Simulator
from repro.sim.exec_time import ExecTimePolicy, wcet_policy
from repro.sim.provenance import Token, disparity_of
from repro.units import Time


class _WindowedDisparity(Observer):
    """Max disparity of one task per consecutive time window."""

    def __init__(self, task: str, window: Time, start: Time) -> None:
        self._task = task
        self._window = window
        self._start = start
        self.per_window: Dict[int, Time] = {}

    def on_job_complete(self, job: Job, token: Token) -> None:
        if job.task.name != self._task or job.release < self._start:
            return
        disparity = disparity_of(token.provenance)
        if disparity is None:
            return
        index = (job.release - self._start) // self._window
        if disparity > self.per_window.get(index, -1):
            self.per_window[index] = disparity


@dataclass(frozen=True)
class SteadyStateResult:
    """Outcome of the steady-state measurement."""

    disparity: Time
    converged: bool
    windows_used: int
    hyperperiod: Time


def warmup_horizon(system: System) -> Time:
    """A horizon after which the pipeline is plausibly in steady state.

    Covers the largest offset, the deepest chain's propagation (two
    producer periods per hop is the LET/implicit worst case), and the
    fill time of every FIFO.
    """
    max_offset = max((task.offset for task in system.graph.tasks), default=0)
    return max_offset + _offset_free_warmup(system)


def _offset_free_warmup(system: System) -> Time:
    """:func:`warmup_horizon` without its max-offset term."""
    graph = system.graph
    # Longest path propagation: bounded by 2*sum of all periods along
    # the deepest chain; bounded above by 2*sum over all tasks.
    propagation = 2 * sum(task.period for task in graph.tasks)
    fill = sum(
        (channel.capacity - 1) * graph.task(channel.src).period
        for channel in graph.channels
    )
    return propagation + fill


#: ``(rows, starts, cutoffs, duration, window, count)`` -> one list of
#: ``count`` window maxima per row of ``rows``: row ``rows[i]`` counts
#: the completed jobs released at or after ``starts[i]`` and finished
#: by ``cutoffs[i]`` (every cutoff is at most ``duration``) into
#: consecutive windows of length ``window``; an empty window reads 0.
#: :func:`repro.sim.columnar.run_windowed` takes the same window arguments.
WindowSource = Callable[
    [List[int], List[Time], List[Time], Time, Time, int], List[List[Time]]
]


class SteadyStateRule:
    """The steady-state rule of one system, applied a batch of rows at a time.

    A row is one offset vector of the system, given by its largest
    offset; its windows of length ``H`` start at its warmup horizon
    (that offset plus the offset-free terms of :func:`warmup_horizon`),
    and a run of ``k`` windows cuts off ``k*H`` later.  The window
    source replays the rows of one phase to one shared horizon: the
    latest warmup any row with offsets in ``[0, T]`` can have, plus
    ``k*H``, so a source that keeps one plan per horizon reuses it for
    every such batch.

    Convergence is decided by the *first two* windows agreeing, so
    when every response-time bound fits inside one hyperperiod a
    ``warmup + 3H`` prefix already contains every completion of a job
    released in those two windows: the probe values are exactly the
    values the full horizon would yield, and the (typical) converging
    row never pays for ``max_windows`` hyperperiods.  The gate needs
    ``max_windows >= 3`` so the probe horizon never exceeds the full
    one with different window values.  The rows the probe does not
    settle replay ``max_windows`` windows and settle on the first value
    two consecutive windows agree on, else on the maximum, unconverged.
    """

    def __init__(self, system: System, max_windows: int) -> None:
        if max_windows < 2:
            raise ModelError(f"max_windows must be >= 2, got {max_windows}")
        tasks = system.graph.tasks
        self.max_windows = max_windows
        self.hyperperiod = system.graph.hyperperiod()
        self._base = _offset_free_warmup(system)
        self._latest = self._base + max((t.period for t in tasks), default=0)
        self._probe = max_windows >= 3 and all(
            system.R(t.name) <= self.hyperperiod for t in tasks
        )

    def settle(
        self, max_offsets: Sequence[Time], windows: WindowSource
    ) -> List[SteadyStateResult]:
        """One result per row of ``max_offsets``, windows from ``windows``."""
        hyperperiod = self.hyperperiod
        starts = [offset + self._base for offset in max_offsets]
        latest = max([self._latest, *starts])
        results: List[Optional[SteadyStateResult]] = [None] * len(starts)

        def phase(rows: List[int], horizon_windows: int, count: int):
            span = horizon_windows * hyperperiod
            return windows(
                rows,
                [starts[row] for row in rows],
                [starts[row] + span for row in rows],
                latest + span,
                hyperperiod,
                count,
            )

        rows = list(range(len(starts)))
        if rows and self._probe:
            for row, (first, second) in zip(rows, phase(rows, 3, 2)):
                if first == second:
                    results[row] = SteadyStateResult(
                        disparity=second,
                        converged=True,
                        windows_used=2,
                        hyperperiod=hyperperiod,
                    )
            rows = [row for row in rows if results[row] is None]
        if rows:
            count = self.max_windows
            for row, values in zip(rows, phase(rows, count, count)):
                results[row] = _settle(values, hyperperiod)
        return results


def _settle(values: List[Time], hyperperiod: Time) -> SteadyStateResult:
    for index in range(1, len(values)):
        if values[index] == values[index - 1]:
            return SteadyStateResult(
                disparity=values[index],
                converged=True,
                windows_used=index + 1,
                hyperperiod=hyperperiod,
            )
    return SteadyStateResult(
        disparity=max(values),
        converged=False,
        windows_used=len(values),
        hyperperiod=hyperperiod,
    )


def steady_state_disparity(
    system: System,
    task: str,
    *,
    policy: ExecTimePolicy = wcet_policy,
    seed: int = 0,
    max_windows: int = 8,
    semantics: str = "implicit",
) -> SteadyStateResult:
    """Exact steady-state disparity under a deterministic policy.

    Simulates ``warmup + k*H`` and returns the per-hyperperiod maximum
    once two consecutive windows agree (:class:`SteadyStateRule` on one
    :class:`~repro.sim.engine.Simulator` row).  With a *randomized*
    policy the result is still a valid observed lower bound, but the
    ``converged`` flag loses its exactness meaning.
    """
    rule = SteadyStateRule(system, max_windows)

    def simulated(rows, starts, cutoffs, duration, window, count):
        monitor = _WindowedDisparity(task, window, starts[0])
        Simulator(
            system,
            cutoffs[0],
            seed=seed,
            policy=policy,
            observers=[monitor],
            semantics=semantics,
        ).run()
        return [[monitor.per_window.get(i, 0) for i in range(count)]]

    max_offset = max((t.offset for t in system.graph.tasks), default=0)
    return rule.settle([max_offset], simulated)[0]
