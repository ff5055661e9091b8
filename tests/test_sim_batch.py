"""Equivalence of the batched replication engine with sequential runs.

``run_batch`` must be byte-identical to N independent ``simulate()``
calls under the same generator: per replication, an execution-time
seed is drawn first, then one offset in ``[1, T]`` per task in graph
order — exactly the ``AnalysisSession.observed_disparity`` discipline.
The suite pins that identity for the columnar tier (uniform and
WCET-pinned policies) and the per-replication simulator fallback
(ineligible scenarios), plus the argument checks both tiers share.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.batch import BatchResult, CompiledScenario, run_batch
from repro.sim.metrics import DisparityMonitor
from tests.tiers import require_columnar


def _scenario(seed: int, n_tasks: int):
    scenario = generate_random_scenario(n_tasks, random.Random(seed))
    return scenario.system, scenario.sink


def _sequential(system, task, *, sims, duration, warmup, rng, policy):
    """The reference: N independent simulator runs, shared generator."""
    session = AnalysisSession(system)
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


def _assert_batch_matches(system, task, *, sims, duration, warmup, seed,
                          policy, tier="columnar"):
    """``run_batch`` == sequential runs, on the tier the input selects."""
    if tier == "columnar":
        require_columnar()
    result = run_batch(
        system,
        task,
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=random.Random(seed),
        policy=policy,
    )
    expected = _sequential(
        system,
        task,
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=random.Random(seed),
        policy=policy,
    )
    assert result.engine == tier, result.reason
    assert result.disparities == expected
    assert result.max_disparity == max(expected, default=0)
    return result


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
    policy=st.sampled_from(["uniform", "wcet"]),
)
def test_batch_matches_sequential(seed, n_tasks, policy):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_batch_matches(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        seed=seed,
        policy=policy,
    )


def test_zero_bcet_replays_through_compiled_loop():
    """Zero-BCET scenarios stay eligible via the cascade table.

    The columnar kernel records a cascade-depth side table that
    replays the simulator's same-instant finish cascades, so they
    order identically and the per-replication simulator fallback is
    not needed here.
    """
    system, sink = _scenario(13, 8)
    graph = system.graph.copy()
    victim = next(t for t in graph.tasks if not t.is_instantaneous)
    graph.replace_task(replace(victim, bcet=0))
    lowered = System(graph=graph, response_times=system.response_times)
    compiled = CompiledScenario(lowered, sink)
    assert compiled.eligible
    assert compiled.ineligible_reason is None
    duration = 2 * max(task.period for task in graph.tasks)
    for policy in ("uniform", "bcet"):
        _assert_batch_matches(
            lowered,
            sink,
            sims=3,
            duration=duration,
            warmup=0,
            seed=21,
            policy=policy,
        )


def test_ineligible_reason_collects_all_failed_rules():
    """Every failed eligibility rule is reported, not just the first."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task
    from repro.units import ms

    graph = CauseEffectGraph()
    graph.add_task(source_task("src", ms(10), ecu="e", priority=0))
    graph.add_task(Task("a", ms(10), ms(2), ms(1), ecu="e", priority=1))
    graph.add_task(Task("b", ms(20), ms(3), ms(1), ecu="e", priority=2))
    graph.add_task(Task("c", ms(20), ms(1), ms(1), ecu="f", priority=1))
    graph.add_channel("src", "a")
    graph.add_channel("a", "b")
    graph.add_channel("b", "c")
    built = System.build(graph)
    # Collide priorities *and* strip a unit assignment after analysis so
    # two independent rules fail at once (the analysis itself would
    # reject either graph, so surgery happens on the analyzed system).
    mangled = built.graph.copy()
    mangled.replace_task(replace(mangled.task("b"), priority=1))
    mangled.replace_task(replace(mangled.task("c"), ecu=None))
    system = System(graph=mangled, response_times=built.response_times)
    compiled = CompiledScenario(system, "c")
    assert not compiled.eligible
    assert len(compiled.ineligible_reasons) == 2
    assert any("no unit assignment" in r for r in compiled.ineligible_reasons)
    assert any(
        "duplicate priorities" in r for r in compiled.ineligible_reasons
    )
    joined = compiled.ineligible_reason
    for reason in compiled.ineligible_reasons:
        assert reason in joined


@pytest.mark.parametrize("semantics", ["implicit", "let"])
def test_unmapped_compute_task_fails_loudly(semantics):
    """A compute task without a unit raises ``ModelError`` naming it.

    The scenario lists it as an ineligibility reason and ``run_batch``
    falls back to the simulator, so it reaches the simulator's
    construction-time check too.
    """
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task
    from repro.sim.engine import Simulator
    from repro.units import ms

    graph = CauseEffectGraph()
    graph.add_task(source_task("src", ms(10), ecu="e", priority=0))
    graph.add_task(Task("a", ms(10), ms(2), ms(1), ecu="e", priority=1))
    graph.add_task(Task("c", ms(20), ms(1), ms(1), ecu="f", priority=1))
    graph.add_task(Task("d", ms(20), ms(1), ms(1), ecu="f", priority=2))
    graph.add_channel("src", "a")
    graph.add_channel("a", "c")
    graph.add_channel("c", "d")
    built = System.build(graph)
    mangled = built.graph.copy()
    mangled.replace_task(replace(mangled.task("c"), ecu=None))
    mangled.replace_task(replace(mangled.task("d"), ecu=None))
    system = System(graph=mangled, response_times=built.response_times)
    message = (
        "compute task 'c' has no unit assignment; "
        "compute task 'd' has no unit assignment"
    )
    with pytest.raises(ModelError) as err:
        Simulator(system, ms(100), semantics=semantics)
    assert str(err.value) == message
    with pytest.raises(ModelError) as err:
        run_batch(
            system, "d", sims=2, duration=ms(100), semantics=semantics
        )
    assert str(err.value) == message


def test_ineligible_duplicate_priorities_falls_back_identically():
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
    # The response-time analysis itself rejects duplicate priorities,
    # so lower b's priority afterwards and keep the analyzed table
    # (the simulator never consults it).
    collided = built.graph.copy()
    collided.replace_task(replace(collided.task("b"), priority=1))
    system = System(graph=collided, response_times=built.response_times)
    compiled = CompiledScenario(system, "b")
    assert not compiled.eligible
    assert "duplicate priorities" in compiled.ineligible_reason
    _assert_batch_matches(
        system,
        "b",
        sims=3,
        duration=ms(200),
        warmup=ms(40),
        seed=3,
        policy="uniform",
        tier="simulator",
    )


def test_session_observed_batch_caches_compiled_scenario():
    system, sink = _scenario(42, 7)
    duration = 2 * max(task.period for task in system.graph.tasks)
    session = AnalysisSession(system)
    first = session.observed_batch(sink, sims=2, duration=duration, seed=1)
    compiled = session._compiled[sink]
    second = session.observed_batch(sink, sims=2, duration=duration, seed=1)
    # reused, not recompiled
    assert session._compiled[sink] is compiled
    assert first.disparities == second.disparities
    assert second.compile_s == 0.0
    assert session.observed_disparity(
        sink, sims=2, duration=duration, seed=1
    ) == first.max_disparity


def test_run_batch_validation():
    system, sink = _scenario(4, 6)
    with pytest.raises(ModelError):
        run_batch(system, sink, sims=-1, duration=10**9)
    empty = run_batch(system, sink, sims=0, duration=10**9)
    assert empty.sims == 0
    assert empty.max_disparity == 0


@pytest.mark.parametrize("tier", ["auto", "columnar", "simulator"])
@pytest.mark.parametrize("duration", [0, -5])
def test_run_batch_rejects_non_positive_horizon(tier, duration, monkeypatch):
    """Every tier, and the one-replication ``disparity``, refuse a
    horizon of 0 or less with the simulator's message.

    The input picks the tier: ``auto`` leaves the kernel as found,
    ``columnar`` needs it loaded and ``simulator`` reports it missing.
    """
    from repro.sim import columnar

    if tier == "columnar":
        require_columnar()
    elif tier == "simulator":
        monkeypatch.setattr(
            columnar.ckernel, "load_kernel", lambda: (None, "cc missing")
        )
    system, sink = _scenario(4, 6)
    message = f"duration must be positive, got {duration}"
    with pytest.raises(ModelError, match=message):
        run_batch(system, sink, sims=2, duration=duration)
    compiled = CompiledScenario(system, sink)
    offsets = tuple(t.offset for t in system.graph.tasks)
    with pytest.raises(ModelError, match=message):
        compiled.disparity(offsets, 0, duration)


def test_percentiles():
    result = BatchResult(
        task="t",
        disparities=(5, 1, 4, 2, 3),
        engine="columnar",
        compile_s=0.0,
        run_s=0.0,
    )
    assert result.percentile(0) == 1
    assert result.percentile(50) == 3
    assert result.percentile(100) == 5
    assert result.percentiles() == {"p50": 3, "p90": 5, "p99": 5, "max": 5}
    with pytest.raises(ModelError):
        result.percentile(101)
    empty = BatchResult(
        task="t", disparities=(), engine="columnar", compile_s=0.0, run_s=0.0
    )
    assert empty.percentile(90) == 0
    assert empty.max_disparity == 0
