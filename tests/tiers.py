"""Differential harness: the columnar replay tier against the simulator.

:class:`~repro.sim.engine.Simulator` is the one semantic reference
loop.  The columnar kernel behind :func:`~repro.sim.batch.run_batch`
and the offset search's windowed probe must agree with it exactly:

* :func:`assert_tiers_match` draws randomized replications the way
  :func:`~repro.sim.batch.run_batch` does (per replication an
  execution-time seed, then one offset in ``[1, T]`` per task in graph
  order) and compares the columnar tier's per-replication disparities
  with sequential simulator runs, for every task that reads two or
  more sources;
* :func:`assert_provenance_matches` replays the system at its own
  offsets and compares, job by job, the columnar kernel's per-job
  disparity column of the monitored task with the disparity of the
  token the simulator hands to observers for the same job, under any
  semantics, release model and fault plan; then the columnar
  disparity with the simulator's;
* :func:`assert_equivalent` runs both, the latter for every sink;
* :func:`assert_split_invariant` runs the kernel at every thread count
  of :data:`THREAD_COUNTS` (every batch split, however small): each
  count must write the same bytes, and ``run_batch`` must match
  sequential simulator runs at each.

Every comparison needs the columnar kernel; where it cannot load, the
test skips with the kernel's reason instead of comparing nothing.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import Task
from repro.sim import ckernel, columnar
from repro.sim.batch import CompiledScenario, run_batch
from repro.sim.columnar import run_columnar
from repro.sim.engine import Observer, Simulator, randomize_offsets
from repro.sim.exec_time import ExecTimePolicy, uniform_policy
from repro.sim.metrics import DisparityMonitor
from repro.sim.provenance import disparity_of
from repro.units import Time


#: Kernel thread counts whose outputs must be the same bytes.
THREAD_COUNTS = (1, 2, 3)


def require_columnar() -> None:
    """Skip the calling test, with the kernel's reason, if it cannot load."""
    kernel, why = ckernel.load_kernel()
    if kernel is None:
        pytest.skip(f"columnar kernel unavailable: {why}")


def random_system(seed: int, n_tasks: int) -> System:
    """A generated system with random offsets in ``[1, T]``."""
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = randomize_offsets(scenario.system.graph, rng)
    return System(graph=graph, response_times=scenario.system.response_times)


def zero_bcet_system(seed: int, n_tasks: int) -> System:
    """A random system where some CPU tasks can execute in zero time.

    The generator's synchronous (all-zero) offsets are kept: releases
    coincide on every unit, so zero-time finishes cascade across units
    at the same instant far more often than under random offsets.
    Response times depend on WCETs only, so the analyzed table carries
    over unchanged when BCETs are lowered.
    """
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = scenario.system.graph
    zeroed = graph.copy()
    hit = False
    for task in graph.tasks:
        if task.is_instantaneous:
            continue
        if not hit or rng.random() < 0.5:
            zeroed.replace_task(replace(task, bcet=0))
            hit = True
    return System(graph=zeroed, response_times=scenario.system.response_times)


def buffered_system(seed: int, n_tasks: int) -> System:
    """A random system whose every channel buffers 1 to 4 tokens.

    The FIFO head of a capacity-``c`` channel is the ``c``-th newest
    write, so reads step back ``c - 1`` jobs from the newest one (the
    S-diff-B buffering of Fig. 6(c)/(d)).  Offsets are random in
    ``[1, T]``, as in :func:`random_system`.
    """
    rng = random.Random(seed)
    system = random_system(seed, n_tasks)
    graph = system.graph.copy()
    for channel in system.graph.channels:
        graph.set_channel_capacity(
            channel.src, channel.dst, rng.randint(1, 4)
        )
    return System(graph=graph, response_times=system.response_times)


def instantaneous_sink_system(seed: int, n_tasks: int) -> Tuple[System, str]:
    """A random system plus an instantaneous task fusing two others.

    The added task ``inst_sink`` has zero execution time, so it
    completes at release without occupying the unit it is nominally
    mapped to; it reads two distinct random tasks, so its tokens can
    carry two or more sources.  Returns the system (response times
    re-analyzed) and the task's name.
    """
    rng = random.Random(seed)
    system = random_system(seed, n_tasks)
    graph = system.graph.copy()
    producers = rng.sample(list(graph.task_names), 2)
    period = graph.task(producers[0]).period
    unit = next(t.ecu for t in graph.tasks if t.ecu is not None)
    graph.add_task(
        Task(
            "inst_sink", period, 0, 0, ecu=unit, priority=10**6,
            offset=rng.randint(1, period),
        )
    )
    for name in producers:
        graph.add_channel(name, "inst_sink")
    return System.build(graph), "inst_sink"


def fused_tasks(system: System) -> List[str]:
    """Tasks whose tokens can carry two or more source stamps."""
    graph = system.graph
    return [
        name
        for name in graph.task_names
        if len(graph.source_ancestors(name)) >= 2
    ]


def simulator_disparities(
    system: System,
    tasks: Sequence[str],
    *,
    sims: int,
    duration: Time,
    warmup: Time,
    seed: int,
    policy: ExecTimePolicy = uniform_policy,
    semantics: str = "implicit",
    faults=None,
) -> Dict[str, Tuple[Time, ...]]:
    """Per-task disparities of ``sims`` sequential simulator runs."""
    rng = random.Random(seed)
    out: Dict[str, List[Time]] = {task: [] for task in tasks}
    for _ in range(sims):
        run_seed = rng.randrange(2**31)
        run_system = System(
            graph=randomize_offsets(system.graph, rng),
            response_times=system.response_times,
        )
        monitor = DisparityMonitor(tasks, warmup=warmup)
        Simulator(
            run_system,
            duration,
            seed=run_seed,
            policy=policy,
            observers=[monitor],
            semantics=semantics,
            faults=faults,
        ).run()
        for task in tasks:
            out[task].append(monitor.disparity(task))
    return {task: tuple(values) for task, values in out.items()}


def assert_tiers_match(
    system: System,
    *,
    sims: int,
    duration: Time,
    seed: int,
    policy: ExecTimePolicy = uniform_policy,
    semantics: str = "implicit",
    faults=None,
    tasks: Optional[Sequence[str]] = None,
) -> None:
    """Columnar tier == sequential simulator runs, per replication."""
    require_columnar()
    tasks = list(tasks) if tasks is not None else fused_tasks(system)
    warmup = duration // 4
    expected = simulator_disparities(
        system,
        tasks,
        sims=sims,
        duration=duration,
        warmup=warmup,
        seed=seed,
        policy=policy,
        semantics=semantics,
        faults=faults,
    )
    for task in tasks:
        result = run_batch(
            system,
            task,
            sims=sims,
            duration=duration,
            warmup=warmup,
            rng=random.Random(seed),
            policy=policy,
            semantics=semantics,
            faults=faults,
        )
        assert result.engine == "columnar", result.reason
        assert result.disparities == expected[task], task


class _TokenLog(Observer):
    """Provenance of every completed job of one task, by job index."""

    def __init__(self, task: str) -> None:
        self._task = task
        self.provenance: Dict[int, dict] = {}

    def on_job_complete(self, job, token) -> None:
        if job.task.name == self._task:
            self.provenance[job.index] = dict(token.provenance)


def columnar_job_disparities(
    compiled: CompiledScenario,
    offsets: Tuple[Time, ...],
    seed: int,
    duration: Time,
    policy: ExecTimePolicy,
) -> List[int]:
    """The kernel's per-job disparity column of the monitored task.

    One row, replayed exactly as :func:`run_columnar` does before its
    warmup fold: entry ``k`` is job ``k``'s disparity, or ``-1`` when
    it read no source or did not complete in the horizon.
    """
    draws = [(seed, offsets)]
    offs = np.array([offsets], dtype=np.int64)
    plan = columnar._plan(compiled, duration)
    disp, _fins, _viol, _tables = columnar._replay(
        compiled, plan, draws, offs, duration, policy
    )
    return disp[0].tolist()


def assert_provenance_matches(
    system: System,
    task: str,
    *,
    seed: int,
    duration: Time,
    policy: ExecTimePolicy = uniform_policy,
    semantics: str = "implicit",
    faults=None,
) -> None:
    """Columnar per-job disparities and disparity == simulator.

    Both replay ``system`` at its own offsets under ``seed``.  Job
    ``k`` of the kernel's disparity column must equal the disparity of
    the simulator's token for job ``k`` of ``task``, with ``-1`` for a
    token without sources (``None``) or a job that did not complete.
    """
    require_columnar()
    log = _TokenLog(task)
    warmup = duration // 4
    monitor = DisparityMonitor([task], warmup=warmup)
    Simulator(
        system,
        duration,
        seed=seed,
        policy=policy,
        observers=[log, monitor],
        semantics=semantics,
        faults=faults,
    ).run()

    compiled = CompiledScenario(system, task, semantics=semantics, faults=faults)
    offsets = tuple(t.offset for t in system.graph.tasks)
    assert compiled.eligible, compiled.ineligible_reason
    assert compiled.in_domain(offsets)
    column = columnar_job_disparities(compiled, offsets, seed, duration, policy)
    assert set(log.provenance) <= set(range(len(column)))
    for k, got in enumerate(column):
        token = log.provenance.get(k)
        want = None if token is None else disparity_of(token)
        assert got == (-1 if want is None else want), (task, k)

    expected = monitor.disparity(task)
    assert compiled.disparity(offsets, seed, duration, warmup, policy) == expected
    assert run_columnar(
        compiled, [(seed, offsets)], duration, warmup, policy
    ) == [expected]


def assert_equivalent(
    system: System,
    duration: Time,
    seed: int,
    *,
    policy: ExecTimePolicy = uniform_policy,
    semantics: str = "implicit",
) -> None:
    """Randomized replications plus job-by-job sink provenance."""
    assert_tiers_match(
        system, sims=2, duration=duration, seed=seed, policy=policy,
        semantics=semantics,
    )
    for task in system.graph.sinks():
        assert_provenance_matches(
            system, task, seed=seed, duration=duration, policy=policy,
            semantics=semantics,
        )


@contextmanager
def kernel_threads(count: int):
    """Split every kernel call across ``count`` threads, however small.

    Sets the process's thread budget (inherited by forked ``--jobs``
    workers as their share) and lowers the split threshold to 0.
    """
    budget, floor = ckernel.thread_budget(), columnar.SPLIT_MIN_WORK
    ckernel.set_thread_budget(count)
    columnar.SPLIT_MIN_WORK = 0
    try:
        yield
    finally:
        ckernel.set_thread_budget(budget)
        columnar.SPLIT_MIN_WORK = floor


def batch_draws(
    system: System, sims: int, seed: int
) -> List[Tuple[int, Tuple[Time, ...]]]:
    """``run_batch``'s draws: per sim a seed, then an offset per task."""
    rng = random.Random(seed)
    return [
        (
            rng.randrange(2**31),
            tuple(rng.randint(1, t.period) for t in system.graph.tasks),
        )
        for _ in range(sims)
    ]


def kernel_bytes(
    compiled: CompiledScenario,
    draws: Sequence[Tuple[int, Tuple[Time, ...]]],
    duration: Time,
    policy: ExecTimePolicy,
) -> Tuple[bytes, ...]:
    """Every byte the kernel writes for ``draws``.

    The monitored task's disparity and finish columns, and the
    LET-violation rows (all ``-1`` when no sim missed a deadline).
    """
    offs = np.array([offsets for _seed, offsets in draws], dtype=np.int64)
    plan = columnar._plan(compiled, duration)
    disp, fins, viol, _tables = columnar._replay(
        compiled, plan, draws, offs, duration, policy
    )
    return disp.tobytes(), fins.tobytes(), viol.tobytes()


def assert_split_invariant(
    system: System,
    task: str,
    *,
    sims: int,
    duration: Time,
    seed: int,
    policy: ExecTimePolicy = uniform_policy,
    semantics: str = "implicit",
    faults=None,
) -> None:
    """The kernel writes the same bytes at every thread count.

    At each count of :data:`THREAD_COUNTS`, :func:`kernel_bytes` of
    ``run_batch``'s draws must equal the single-threaded bytes, and
    ``run_batch`` must match ``sims`` sequential simulator runs.
    """
    require_columnar()
    warmup = duration // 4
    expected = simulator_disparities(
        system, [task], sims=sims, duration=duration, warmup=warmup,
        seed=seed, policy=policy, semantics=semantics, faults=faults,
    )[task]
    compiled = CompiledScenario(system, task, semantics=semantics, faults=faults)
    draws = batch_draws(system, sims, seed)
    outputs = []
    for threads in THREAD_COUNTS:
        with kernel_threads(threads):
            outputs.append(kernel_bytes(compiled, draws, duration, policy))
            result = run_batch(
                system, task, sims=sims, duration=duration, warmup=warmup,
                rng=random.Random(seed), policy=policy, semantics=semantics,
                faults=faults,
            )
        assert result.engine == "columnar", result.reason
        assert result.disparities == expected, threads
        assert outputs[-1] == outputs[0], threads
