"""Differential harness: the batched replay tiers against the simulator.

:class:`~repro.sim.engine.Simulator` is the one semantic reference
loop.  The compiled batch loop and, where numpy and the C kernel load,
the columnar kernel must agree with it exactly:

* :func:`assert_tiers_match` draws randomized replications the way
  :func:`~repro.sim.batch.run_batch` does (per replication an
  execution-time seed, then one offset in ``[1, T]`` per task in graph
  order) and compares every batched tier's per-replication disparities
  with sequential simulator runs, for every task that reads two or
  more sources;
* :func:`assert_provenance_matches` replays the system at its own
  offsets and compares, job by job, the provenance the compiled loop
  resolves from its recorded schedule with the tokens the simulator
  hands to observers — plus the disparity every batched tier reports;
* :func:`assert_equivalent` runs both, the latter for every sink.

Columnar comparisons drop out when the columnar tier cannot run (no
numpy, or no C toolchain); the compiled-vs-simulator comparisons always
run.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.sim import batch as batch_mod
from repro.sim.batch import CompiledScenario, run_batch
from repro.sim.engine import Observer, Simulator, randomize_offsets
from repro.sim.exec_time import ExecTimePolicy, uniform_policy
from repro.sim.metrics import DisparityMonitor
from repro.units import Time


def columnar_available() -> bool:
    if batch_mod._np is None:
        return False
    from repro.sim import ckernel

    kernel, _why = ckernel.load_kernel()
    return kernel is not None


#: The batched tiers every comparison covers here.
BATCH_TIERS: Tuple[str, ...] = (
    ("compiled", "columnar") if columnar_available() else ("compiled",)
)


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
    """Every batched tier == sequential simulator runs, per replication."""
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
        for engine in BATCH_TIERS:
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
                engine=engine,
            )
            assert result.engine == engine, result.reason
            assert result.disparities == expected[task], (task, engine)


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
    """Compiled-loop provenance == simulator tokens, job by job.

    Both replay ``system`` at its own offsets under ``seed``; the
    batched tiers' disparity of ``task`` must also equal the
    simulator's.
    """
    log = _TokenLog(task)
    monitor = DisparityMonitor([task], warmup=duration // 4)
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
    view = compiled.with_offsets({t.name: t.offset for t in system.graph.tasks})
    assert view.delta_replay, view.reason
    offsets = view.offsets
    starts, fins, completed, casc, rels = compiled._schedule_cached(
        offsets, seed, duration, policy
    )
    prov = compiled._prov_resolver(offsets, starts, fins, completed, casc, rels)
    count = compiled._monitored_count(offsets, duration, completed, rels)
    resolved = {
        k: compiled.packer.unpack(prov(compiled.m_gid, k)) for k in range(count)
    }
    assert resolved == log.provenance

    expected = monitor.disparity(task)
    warmup = duration // 4
    assert view.disparity(seed, duration, warmup, policy) == expected
    if "columnar" in BATCH_TIERS:
        from repro.sim.columnar import run_columnar

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
