"""Differential suite for the columnar batch engine.

The columnar tier advances every replication's NP-FP schedule in one
C-kernel call and derives provenance/disparity columns in bulk, so its
correctness contract is strict equality with the tiers below it: for
any eligible scenario, ``run_batch(engine="columnar")`` must return the
same per-replication disparities as the compiled per-replication loop
(``engine="compiled"``), which in turn matches ``sims`` independent
``Simulator`` runs.  The suite pins that identity across implicit and
LET semantics, all four batchable policies, zero-BCET cascades, and
the fallback edges (unbatchable policies, ineligible scenarios, numpy
or C toolchain absent) — plus the jobs-invariance of campaign CSVs
with the columnar engine active underneath.

Columnar-only tests skip when the engine cannot run here (no numpy or
no C toolchain); the fallback-parity tests still run, which is exactly
the coverage the forced no-numpy CI leg relies on.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch_mod
from repro.api import AnalysisSession
from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.batch import run_batch
from repro.sim.exec_time import per_task_policy, wcet_policy
from repro.sim.metrics import DisparityMonitor


def _columnar_available() -> bool:
    if batch_mod._np is None:
        return False
    from repro.sim import ckernel

    kernel, _why = ckernel.load_kernel()
    return kernel is not None


needs_columnar = pytest.mark.skipif(
    not _columnar_available(),
    reason="columnar engine unavailable (numpy or C toolchain missing)",
)


def _scenario(seed: int, n_tasks: int):
    scenario = generate_random_scenario(n_tasks, random.Random(seed))
    return scenario.system, scenario.sink


def _sequential(system, task, *, sims, duration, warmup, rng, policy,
                semantics="implicit"):
    """The ground truth: N independent simulator runs, shared generator."""
    session = AnalysisSession(system, semantics=semantics)
    out = []
    for _ in range(sims):
        monitor = DisparityMonitor([task], warmup=warmup)
        session.simulate(
            duration,
            seed=rng.randrange(2**31),
            policy=policy,
            observers=[monitor],
            offsets_rng=rng,
        )
        out.append(monitor.disparity(task))
    return tuple(out)


def _run(system, task, *, sims, duration, warmup, seed, policy,
         semantics="implicit", engine="auto"):
    return run_batch(
        system,
        task,
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=random.Random(seed),
        policy=policy,
        semantics=semantics,
        engine=engine,
    )


@needs_columnar
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
    policy=st.sampled_from(["uniform", "wcet", "bcet", "extremes"]),
)
def test_columnar_matches_compiled_and_simulator(seed, n_tasks, policy):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    shape = dict(
        sims=3, duration=duration, warmup=duration // 4, seed=seed,
        policy=policy,
    )
    columnar = _run(system, sink, engine="columnar", **shape)
    compiled = _run(system, sink, engine="compiled", **shape)
    simulator = _run(system, sink, engine="simulator", **shape)
    assert columnar.engine == "columnar"
    assert columnar.reason is None
    assert compiled.engine == "compiled"
    assert simulator.engine == "simulator"
    assert columnar.disparities == compiled.disparities
    assert columnar.disparities == simulator.disparities


@needs_columnar
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    policy=st.sampled_from(["uniform", "wcet", "extremes"]),
)
def test_columnar_let_matches_compiled_and_sequential(seed, n_tasks, policy):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    shape = dict(
        sims=3, duration=duration, warmup=duration // 4, seed=seed,
        policy=policy, semantics="let",
    )
    columnar = _run(system, sink, engine="columnar", **shape)
    compiled = _run(system, sink, engine="compiled", **shape)
    assert columnar.engine == "columnar"
    assert compiled.engine == "compiled"
    assert columnar.disparities == compiled.disparities
    expected = _sequential(
        system, sink, sims=3, duration=duration, warmup=duration // 4,
        rng=random.Random(seed), policy=policy, semantics="let",
    )
    assert columnar.disparities == expected


@needs_columnar
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_columnar_zero_bcet_cascades(seed, n_tasks, semantics):
    """Instantaneous finish-cascades order identically in lockstep."""
    system, sink = _scenario(seed, n_tasks)
    graph = system.graph.copy()
    for task in graph.tasks:
        if not task.is_instantaneous:
            graph.replace_task(replace(task, bcet=0))
    lowered = System(graph=graph, response_times=system.response_times)
    duration = 2 * max(task.period for task in graph.tasks)
    for policy in ("uniform", "bcet"):
        shape = dict(
            sims=3, duration=duration, warmup=0, seed=seed, policy=policy,
            semantics=semantics,
        )
        columnar = _run(lowered, sink, engine="columnar", **shape)
        compiled = _run(lowered, sink, engine="compiled", **shape)
        assert columnar.disparities == compiled.disparities


def test_unbatchable_policy_falls_back_to_compiled():
    """Per-task policies (fault injection) keep the compiled tier."""
    system, sink = _scenario(31, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    hog = next(t.name for t in system.graph.tasks if not t.is_instantaneous)
    policy = per_task_policy({hog: wcet_policy})
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy=policy,
    )
    assert result.engine == "compiled"
    # With numpy gated off (REPRO_NO_NUMPY leg) that shortfall is
    # reported before the policy is even examined.
    if batch_mod._np is not None:
        assert "not a batchable named policy" in (result.reason or "")
    else:
        assert "numpy unavailable" in (result.reason or "")
    expected = _sequential(
        system, sink, sims=3, duration=duration, warmup=0,
        rng=random.Random(5), policy=policy,
    )
    assert result.disparities == expected
    with pytest.raises(ModelError) as err:
        _run(
            system, sink, sims=3, duration=duration, warmup=0, seed=5,
            policy=policy, engine="columnar",
        )
    assert "columnar engine unavailable" in str(err.value)


def test_duplicate_priorities_fall_back_to_simulator():
    """Compiled-ineligible scenarios reach the simulator on auto, with
    the same results, and a forced columnar run refuses with reasons."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task
    from repro.units import ms

    graph = CauseEffectGraph()
    graph.add_task(source_task("src", ms(10), ecu="e", priority=0))
    graph.add_task(Task("a", ms(10), ms(2), ms(1), ecu="e", priority=1))
    graph.add_task(Task("b", ms(20), ms(3), ms(1), ecu="e", priority=2))
    graph.add_channel("src", "a")
    graph.add_channel("a", "b")
    built = System.build(graph)
    collided = built.graph.copy()
    collided.replace_task(replace(collided.task("b"), priority=1))
    system = System(graph=collided, response_times=built.response_times)
    auto = _run(
        system, "b", sims=3, duration=ms(200), warmup=ms(40), seed=3,
        policy="uniform",
    )
    assert auto.engine == "simulator"
    assert "duplicate priorities" in (auto.reason or "")
    expected = _sequential(
        system, "b", sims=3, duration=ms(200), warmup=ms(40),
        rng=random.Random(3), policy="uniform",
    )
    assert auto.disparities == expected
    with pytest.raises(ModelError) as err:
        _run(
            system, "b", sims=3, duration=ms(200), warmup=ms(40), seed=3,
            policy="uniform", engine="columnar",
        )
    assert "columnar engine unavailable" in str(err.value)
    assert "duplicate priorities" in str(err.value)


def test_unknown_engine_rejected():
    system, sink = _scenario(4, 6)
    with pytest.raises(ModelError):
        run_batch(system, sink, sims=1, duration=10**9, engine="warp")


@needs_columnar
def test_let_violation_parity_across_engines():
    """All three tiers raise the identical LET-violation ModelError."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task
    from repro.units import ms

    graph = CauseEffectGraph()
    graph.add_task(source_task("src", ms(10), ecu="e", priority=0))
    graph.add_task(Task("hog", ms(10), ms(2), ms(2), ecu="e", priority=1))
    graph.add_task(Task("late", ms(10), ms(2), ms(2), ecu="e", priority=2))
    graph.add_channel("src", "hog")
    graph.add_channel("hog", "late")
    built = System.build(graph)
    overloaded_graph = built.graph.copy()
    overloaded_graph.replace_task(
        replace(overloaded_graph.task("hog"), wcet=ms(9), bcet=ms(9))
    )
    overloaded = System(
        graph=overloaded_graph, response_times=built.response_times
    )
    messages = []
    for engine in ("columnar", "compiled", "simulator"):
        with pytest.raises(ModelError) as err:
            _run(
                overloaded, "late", sims=3, duration=ms(100), warmup=0,
                seed=9, policy="uniform", semantics="let", engine=engine,
            )
        messages.append(str(err.value))
    assert "LET violation" in messages[0]
    assert messages[0] == messages[1] == messages[2]


def test_no_numpy_falls_back_to_compiled(monkeypatch):
    system, sink = _scenario(77, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    reference = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy="uniform", engine="compiled",
    )
    monkeypatch.setattr(batch_mod, "_np", None)
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy="uniform",
    )
    assert result.engine == "compiled"
    assert "numpy unavailable" in (result.reason or "")
    assert result.disparities == reference.disparities
    with pytest.raises(ModelError) as err:
        _run(
            system, sink, sims=3, duration=duration, warmup=0, seed=5,
            policy="uniform", engine="columnar",
        )
    assert "numpy unavailable" in str(err.value)


@pytest.mark.skipif(
    batch_mod._np is None,
    reason="needs numpy so the kernel is the only missing piece",
)
def test_no_ckernel_falls_back_to_compiled(monkeypatch):
    from repro.sim import columnar as columnar_mod

    system, sink = _scenario(78, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    reference = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=6,
        policy="uniform", engine="compiled",
    )
    monkeypatch.setattr(
        columnar_mod.ckernel, "load_kernel", lambda: (None, "cc missing")
    )
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=6,
        policy="uniform",
    )
    assert result.engine == "compiled"
    assert "advance kernel unavailable" in (result.reason or "")
    assert result.disparities == reference.disparities


def test_campaign_csv_is_jobs_invariant():
    """Fig. 6 CSV bytes don't depend on the worker count with the
    columnar engine active underneath the campaign."""
    from repro.experiments.config import Fig6ABConfig
    from repro.experiments.fig6 import run_fig6_ab
    from repro.experiments.reporting import csv_ab
    from repro.units import seconds

    config = Fig6ABConfig(
        x_values=(5, 7),
        graphs_per_point=2,
        sims_per_graph=2,
        sim_duration=seconds(1),
        warmup=seconds(0.5),
        seed=7,
    )
    serial = csv_ab(run_fig6_ab(config))
    parallel = csv_ab(run_fig6_ab(config, jobs=2))
    assert serial == parallel
