"""Differential harness: the columnar replay tier against the simulator.

:class:`~repro.sim.engine.Simulator` is the one semantic reference
loop.  The columnar kernel behind :func:`~repro.sim.batch.run_batch`
and the offset search's compiled probe loop must agree with it
exactly:

* :func:`assert_tiers_match` draws randomized replications the way
  :func:`~repro.sim.batch.run_batch` does (per replication an
  execution-time seed, then one offset in ``[1, T]`` per task in graph
  order) and compares the columnar tier's per-replication disparities
  with sequential simulator runs, for every task that reads two or
  more sources;
* :func:`assert_provenance_matches` replays the system at its own
  offsets and compares the columnar disparity with the simulator's;
  for implicit, periodic, fault-free systems (the compiled probe's
  domain) it also compares, job by job, the provenance the compiled
  loop resolves from its recorded schedule with the tokens the
  simulator hands to observers;
* :func:`assert_equivalent` runs both, the latter for every sink.

Every comparison needs the columnar kernel; where it cannot load, the
test skips with the kernel's reason instead of comparing nothing.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.sim import ckernel
from repro.sim.batch import CompiledScenario, run_batch
from repro.sim.columnar import run_columnar
from repro.sim.engine import Observer, Simulator, randomize_offsets
from repro.sim.exec_time import ExecTimePolicy, uniform_policy
from repro.sim.metrics import DisparityMonitor
from repro.units import Time


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
            engine="columnar",
        )
        assert result.disparities == expected[task], task


class _TokenLog(Observer):
    """Provenance of every completed job of one task, by job index."""

    def __init__(self, task: str) -> None:
        self._task = task
        self.provenance: Dict[int, dict] = {}

    def on_job_complete(self, job, token) -> None:
        if job.task.name == self._task:
            self.provenance[job.index] = dict(token.provenance)


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
    """Columnar disparity == simulator, plus job-by-job probe provenance.

    Both replay ``system`` at its own offsets under ``seed``.  Under
    implicit semantics with periodic releases and no fault plan, the
    provenance the compiled probe loop resolves for every job of
    ``task`` must also equal the simulator's tokens.
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
    if semantics == "implicit" and not compiled._needs_tables:
        starts, fins, completed, casc = compiled._schedule(
            offsets, seed, duration, policy
        )
        prov = compiled._prov_resolver(offsets, starts, fins, casc)
        count = compiled._monitored_count(offsets, duration, completed)
        resolved = {
            k: compiled.packer.unpack(prov(compiled.m_gid, k))
            for k in range(count)
        }
        assert resolved == log.provenance

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
