"""Discrete-event simulator for cause-effect systems.

Simulates the run-time behaviour of Section II-B exactly:

* every task releases jobs periodically from its offset;
* each ECU (and the bus) schedules its jobs **non-preemptively by fixed
  priority**: when the unit idles, the highest-priority ready job
  starts and runs to completion;
* **implicit communication**: a job reads all of its input channels
  when it *starts* and writes its output token to all of its output
  channels when it *finishes*;
* channels are overwrite registers (capacity 1) or FIFOs (Section IV),
  see :mod:`repro.sim.channels`;
* source tasks are external stimuli: their jobs complete instantly at
  release, off-CPU, producing a token stamped with the release time.

Event ordering at equal timestamps is chosen so that "finishes no later
than the start" (Definition 1) is honoured: at each time point all
releases are processed first, then all finishes (which perform writes),
then zero-execution-time completions in topological order, and only
then are idle units dispatched (whose starting jobs perform reads).  A
write at time ``t`` is therefore always visible to a read at time ``t``.

Per-job execution times are drawn from an
:mod:`execution-time policy <repro.sim.exec_time>`; the simulated
disparity is a *lower* bound on the true worst case (as the paper's
``Sim`` series is), while the analytical bounds are upper bounds.

**LET semantics (extension).**  With ``semantics="let"`` the simulator
follows the Logical Execution Time paradigm instead: a job reads all
inputs at its *release* and its output token is published at its
*deadline* (release + period), independent of when the job actually
executes.  Scheduling still happens (the job must finish before its
deadline — violating that raises), but the data flow becomes fully
time-deterministic.  Source tasks still publish at release (a sensor
stamps and emits immediately).  Per-instant ordering: publishes first,
then releases, then source emissions, then the LET reads of the jobs
released at this instant.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task
from repro.sim.channels import ChannelState
from repro.sim.exec_time import ExecTimePolicy, uniform_policy
from repro.sim.provenance import Token, merge_provenance, source_token
from repro.sim.release import kept_mask, needs_tables, release_table
from repro.units import Time

_PHASE_PUBLISH = 0
_PHASE_RELEASE = 1
_PHASE_FINISH = 2

_SEMANTICS = ("implicit", "let")


def check_semantics(semantics: str) -> None:
    """Raise :class:`ModelError` unless ``semantics`` is a known model."""
    if semantics not in _SEMANTICS:
        raise ModelError(
            f"unknown semantics {semantics!r}; choose from {_SEMANTICS}"
        )


class Job:
    """One activation of a task at run time."""

    __slots__ = ("task", "index", "release", "start", "finish", "exec_time", "reads")

    def __init__(self, task: Task, index: int, release: Time) -> None:
        self.task = task
        self.index = index
        self.release = release
        self.start: Optional[Time] = None
        self.finish: Optional[Time] = None
        self.exec_time: Optional[Time] = None
        self.reads: Tuple[Token, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.task.name}#{self.index} r={self.release})"


class Observer:
    """Base class for simulation observers (metrics collectors).

    Subclasses override the hooks they need; the engine calls
    ``on_job_complete`` for *every* completed job (including
    instantaneous source jobs) with the output token the job wrote.
    """

    def on_job_complete(self, job: Job, token: Token) -> None:  # pragma: no cover
        pass

    def on_end(self, now: Time) -> None:  # pragma: no cover
        pass


class _UnitState:
    """Run-time state of one processing unit."""

    __slots__ = ("name", "ready", "running", "busy_time", "dispatches")

    def __init__(self, name: str) -> None:
        self.name = name
        # Heap of (priority, seq, job); priorities are unique per unit.
        self.ready: List[Tuple[int, int, Job]] = []
        self.running: Optional[Job] = None
        self.busy_time: Time = 0
        self.dispatches = 0


@dataclass
class SimulationStats:
    """Aggregate counters of one simulation run."""

    duration: Time = 0
    jobs_released: int = 0
    jobs_completed: int = 0
    jobs_dropped: int = 0
    events_processed: int = 0
    busy_time: Dict[str, Time] = field(default_factory=dict)

    def utilization(self, unit: str) -> float:
        """Fraction of the horizon ``unit`` spent executing."""
        if self.duration == 0:
            return 0.0
        return self.busy_time.get(unit, 0) / self.duration


@dataclass
class SimulationResult:
    """Everything a run produced: stats plus the observers (queried by caller)."""

    stats: SimulationStats
    observers: Tuple[Observer, ...]


class Simulator:
    """Event-driven simulator for one cause-effect system.

    This is the unoptimized semantic reference for both semantics: one
    event loop over jobs, tokens and channel buffers, with every
    observer notified on every completion.  It is kept plain on
    purpose.  Campaigns, sweeps and searches replay through the
    columnar C kernel (:func:`repro.sim.batch.run_batch`,
    :func:`repro.sim.columnar.run_windowed`), whose differential
    suites compare it against this loop.

    Args:
        system: The validated system (or use :meth:`from_graph`).
        duration: Simulated horizon in nanoseconds; events beyond it are
            not processed (running jobs may be left unfinished).
        seed: Seed for the per-run random generator (offsets are *not*
            randomized here — set task offsets before building the
            system, or use :func:`randomize_offsets`).
        policy: Execution-time policy; default uniform in [BCET, WCET].
        observers: Metric collectors notified on each job completion.
        semantics: ``"implicit"`` (AUTOSAR read-at-start /
            write-at-finish, the paper's model) or ``"let"`` (Logical
            Execution Time: read at release, publish at deadline).
        faults: Optional release-dropout schedule
            (:class:`repro.sim.faults.FaultPlan`); suppressed releases
            produce no job, so consumers keep reading stale data.

    Raises:
        ModelError: At construction, for a non-positive ``duration``,
            an unknown ``semantics``, a fault plan naming unknown
            tasks, or a compute task without a unit assignment.
    """

    def __init__(
        self,
        system: System,
        duration: Time,
        *,
        seed: int = 0,
        policy: ExecTimePolicy = uniform_policy,
        observers: Sequence[Observer] = (),
        semantics: str = "implicit",
        faults=None,
    ) -> None:
        if duration <= 0:
            raise ModelError(f"duration must be positive, got {duration}")
        check_semantics(semantics)
        unmapped = [
            task.name
            for task in system.graph.tasks
            if not task.is_instantaneous and task.ecu is None
        ]
        if unmapped:
            raise ModelError(
                "; ".join(
                    f"compute task {name!r} has no unit assignment"
                    for name in unmapped
                )
            )
        self._semantics = semantics
        self._faults = faults
        if faults is not None:
            faults.validate(system.graph.task_names)
        self._graph = system.graph
        self._duration = duration
        self._rng = random.Random(seed)
        self._policy = policy
        self._observers: Tuple[Observer, ...] = tuple(observers)

        self._channels: Dict[Tuple[str, str], ChannelState] = {
            (c.src, c.dst): ChannelState(c.src, c.dst, c.capacity)
            for c in self._graph.channels
        }
        self._in_channels: Dict[str, List[ChannelState]] = {
            name: [self._channels[(p, name)] for p in self._graph.predecessors(name)]
            for name in self._graph.task_names
        }
        self._out_channels: Dict[str, List[ChannelState]] = {
            name: [self._channels[(name, s)] for s in self._graph.successors(name)]
            for name in self._graph.task_names
        }
        self._topo_index = {
            name: i for i, name in enumerate(self._graph.topological_order())
        }
        units = {
            task.ecu for task in self._graph.tasks if task.ecu is not None
        }
        self._units: Dict[str, _UnitState] = {u: _UnitState(u) for u in sorted(units)}
        self._events: List[Tuple[Time, int, int, object]] = []
        self._seq = 0
        self._job_counters: Dict[str, int] = {}
        self._stats = SimulationStats(duration=duration)
        # Release tables: when any task releases non-periodically or a
        # fault plan is active, every release instant (and its "kept"
        # flag) is pre-drawn here.  The batch tiers consume the same
        # tables, which keeps every tier byte-identical to this loop.
        # Strictly periodic fault-free runs skip the tables entirely
        # and release arithmetically.
        self._use_tables = needs_tables(self._graph.tasks, faults)
        self._rel_full: Dict[str, List[Time]] = {}
        self._rel_keep: Dict[str, List[bool]] = {}
        self._rel_idx: Dict[str, int] = {}
        if self._use_tables:
            for task in self._graph.tasks:
                full = release_table(task, seed, duration)
                self._rel_full[task.name] = full
                self._rel_keep[task.name] = kept_mask(faults, task.name, full)
                self._rel_idx[task.name] = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: CauseEffectGraph,
        duration: Time,
        **kwargs,
    ) -> "Simulator":
        """Build a simulator from a raw graph (validates and analyzes it)."""
        return cls(System.build(graph), duration, **kwargs)

    def channel_state(self, src: str, dst: str) -> ChannelState:
        """Inspect a channel's run-time state (tests/debugging)."""
        return self._channels[(src, dst)]

    def run(self) -> SimulationResult:
        """Run to the horizon and return stats plus the observers."""
        for task in self._graph.tasks:
            if self._use_tables:
                table = self._rel_full[task.name]
                if table:
                    self._rel_idx[task.name] = 1
                    self._push(table[0], _PHASE_RELEASE, task)
            else:
                self._push(task.offset, _PHASE_RELEASE, task)
        self._run_events()
        for unit in self._units.values():
            self._stats.busy_time[unit.name] = unit.busy_time
        for observer in self._observers:
            observer.on_end(self._duration)
        return SimulationResult(stats=self._stats, observers=self._observers)

    def _run_events(self) -> None:
        """The event loop, for every semantics/fault combination."""
        let_mode = self._semantics == "let"
        while self._events:
            now = self._events[0][0]
            if now > self._duration:
                break
            publishes: List[Tuple[str, Token]] = []
            releases: List[Task] = []
            finishes: List[Tuple[str, Job]] = []
            instantaneous: List[Job] = []
            released_jobs: List[Job] = []
            while self._events and self._events[0][0] == now:
                _, phase, _, payload = heapq.heappop(self._events)
                self._stats.events_processed += 1
                if phase == _PHASE_PUBLISH:
                    publishes.append(payload)  # type: ignore[arg-type]
                elif phase == _PHASE_RELEASE:
                    releases.append(payload)  # type: ignore[arg-type]
                else:
                    finishes.append(payload)  # type: ignore[arg-type]

            # 1. LET publications become visible first: a job released
            #    at t reads tokens published no later than t.
            for name, token in publishes:
                self._write_outputs(name, token)

            touched: List[str] = []
            for task in releases:
                job = self._release(task, now)
                if job is None:
                    continue  # release suppressed by the fault plan
                if task.is_instantaneous:
                    instantaneous.append(job)
                else:
                    assert task.ecu is not None
                    unit = self._units[task.ecu]
                    heapq.heappush(
                        unit.ready, (task.priority or 0, self._next_seq(), job)
                    )
                    released_jobs.append(job)
                    touched.append(task.ecu)

            # 2. Under implicit semantics, finished jobs write before
            #    anything dispatched at this instant reads.  Under LET,
            #    a finish only schedules the publication at the
            #    deadline.
            for unit_name, job in finishes:
                self._complete(job, now)
                self._units[unit_name].running = None
                touched.append(unit_name)

            # 3. Source emissions (and zero-WCET relays) in topological
            #    order, so a sensor sample stamped at t is readable at t.
            instantaneous.sort(key=lambda j: self._topo_index[j.task.name])
            for job in instantaneous:
                self._run_instantaneous(job, now)

            # 4. LET reads happen at release, after all same-instant
            #    publications and source emissions.
            if let_mode:
                for job in released_jobs:
                    job.reads = self._read_inputs(job.task.name)

            for unit_name in touched:
                self._dispatch(self._units[unit_name], now)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, time: Time, phase: int, payload: object) -> None:
        heapq.heappush(self._events, (time, phase, self._next_seq(), payload))

    def _release(self, task: Task, now: Time) -> Optional[Job]:
        name = task.name
        if self._use_tables:
            # Table mode: successor and "kept" flag come from the
            # pre-drawn release table (the fault plan is already folded
            # into the keep mask).
            table = self._rel_full[name]
            nxt = self._rel_idx[name]
            self._rel_idx[name] = nxt + 1
            if nxt < len(table):
                self._push(table[nxt], _PHASE_RELEASE, task)
            if not self._rel_keep[name][nxt - 1]:
                self._stats.jobs_dropped += 1
                return None
        else:
            next_release = now + task.period
            if next_release <= self._duration:
                self._push(next_release, _PHASE_RELEASE, task)
            if self._faults is not None and self._faults.is_dropped(name, now):
                self._stats.jobs_dropped += 1
                return None
        index = self._job_counters.get(name, 0)
        self._job_counters[name] = index + 1
        self._stats.jobs_released += 1
        return Job(task, index, now)

    def _read_inputs(self, name: str) -> Tuple[Token, ...]:
        tokens = []
        for channel in self._in_channels[name]:
            token = channel.read()
            if token is not None:
                tokens.append(token)
        return tuple(tokens)

    def _run_instantaneous(self, job: Job, now: Time) -> None:
        """Source / zero-WCET jobs: read, produce, finish — all at ``now``.

        Sources publish immediately under both semantics (a sensor
        stamps and emits at sampling time).  Zero-WCET relays follow
        the active semantics: immediate write under implicit
        communication, deadline publication under LET.
        """
        job.start = now
        job.finish = now
        job.exec_time = 0
        name = job.task.name
        if self._graph.is_source(name):
            token = source_token(name, job.release)
            self._write_outputs(name, token)
        else:
            job.reads = self._read_inputs(name)
            token = Token(
                produced_at=now,
                producer=name,
                producer_release=job.release,
                provenance=merge_provenance(t.provenance for t in job.reads),
            )
            if self._semantics == "let":
                self._push(
                    job.release + job.task.period, _PHASE_PUBLISH, (name, token)
                )
            else:
                self._write_outputs(name, token)
        self._notify(job, token)

    def _dispatch(self, unit: _UnitState, now: Time) -> None:
        if unit.running is not None or not unit.ready:
            return
        _, _, job = heapq.heappop(unit.ready)
        job.start = now
        if self._semantics != "let":
            # Implicit communication reads at start; under LET the
            # inputs were already captured at release.
            job.reads = self._read_inputs(job.task.name)
        exec_time = self._policy(job.task, job.index, self._rng)
        if not job.task.bcet <= exec_time <= job.task.wcet:
            raise ModelError(
                f"policy returned execution time {exec_time} outside "
                f"[{job.task.bcet}, {job.task.wcet}] for {job.task.name!r}"
            )
        job.exec_time = exec_time
        unit.running = job
        unit.busy_time += exec_time
        unit.dispatches += 1
        self._push(now + exec_time, _PHASE_FINISH, (unit.name, job))

    def _complete(self, job: Job, now: Time) -> None:
        job.finish = now
        token = Token(
            produced_at=now,
            producer=job.task.name,
            producer_release=job.release,
            provenance=merge_provenance(t.provenance for t in job.reads),
        )
        if self._semantics == "let":
            deadline = job.release + job.task.period
            if now > deadline:
                raise ModelError(
                    f"LET violation: job {job.task.name}#{job.index} "
                    f"finished at {now} past its deadline {deadline}"
                )
            self._push(deadline, _PHASE_PUBLISH, (job.task.name, token))
        else:
            self._write_outputs(job.task.name, token)
        self._notify(job, token)

    def _write_outputs(self, name: str, token: Token) -> None:
        for channel in self._out_channels[name]:
            channel.write(token)

    def _notify(self, job: Job, token: Token) -> None:
        self._stats.jobs_completed += 1
        for observer in self._observers:
            observer.on_job_complete(job, token)


def randomize_offsets(
    graph: CauseEffectGraph, rng: random.Random
) -> CauseEffectGraph:
    """Give every task a random release offset in ``[1, T(tau)]``.

    Matches the paper's evaluation setup ("the release offset of each
    task is randomly picked from the range of [1, T_i]").
    """
    return graph.with_offsets(
        {task.name: rng.randint(1, task.period) for task in graph.tasks}
    )


def simulate(
    system: System,
    duration: Time,
    *,
    seed: int = 0,
    policy: ExecTimePolicy = uniform_policy,
    observers: Sequence[Observer] = (),
    semantics: str = "implicit",
    faults=None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(
        system,
        duration,
        seed=seed,
        policy=policy,
        observers=observers,
        semantics=semantics,
        faults=faults,
    ).run()
