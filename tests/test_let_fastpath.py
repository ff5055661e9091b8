"""Equivalence of LET batch replay with the general loop.

Under LET semantics jobs read at *release* and publish at their
*deadline* (release + period), so data flow is fully determined by the
schedule — exactly the structure the batched fast paths (the compiled
batch loop and the columnar C kernel) exploit.  ``Simulator``, the
general event loop, is the untouched semantic reference: every batched
tier must reproduce its per-replication disparities and, job by job,
its token provenance (see ``tests/tiers.py``), and
``run_batch(semantics="let")`` must be byte-identical to N sequential
``simulate(semantics="let")`` calls under the same generator (the
``AnalysisSession.observed_disparity`` discipline: per replication an
execution-time seed is drawn first, then one offset in ``[1, T]`` per
task in graph order).
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
from repro.sim.batch import CompiledScenario, run_batch
from repro.sim.engine import Simulator, randomize_offsets
from repro.sim.exec_time import bcet_policy, extremes_policy, wcet_policy
from repro.sim.metrics import DisparityMonitor
from tests.tiers import (
    BATCH_TIERS,
    assert_equivalent,
    random_system,
    zero_bcet_system,
)


# ----------------------------------------------------------------------
# batched fast paths vs general loop
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
)
def test_let_fastpath_matches_general_uniform(seed, n_tasks):
    system = random_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    assert_equivalent(system, duration, seed, semantics="let")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_let_fastpath_matches_general_other_policies(seed):
    system = random_system(seed, 8)
    duration = 3 * max(task.period for task in system.graph.tasks)
    assert_equivalent(system, duration, seed, policy=wcet_policy, semantics="let")
    assert_equivalent(system, duration, seed, policy=extremes_policy, semantics="let")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_let_fastpath_matches_general_zero_bcet(seed, n_tasks):
    """Zero-BCET cascades: LET visibility is deadline-driven, so even
    same-instant finish pileups must not perturb the reconstruction."""
    system = zero_bcet_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    assert_equivalent(system, duration, seed, semantics="let")
    assert_equivalent(system, duration, seed, policy=bcet_policy, semantics="let")


def test_let_fastpath_matches_general_with_buffers():
    system = random_system(321, 10)
    plan = {
        (c.src, c.dst): 1 + (i % 3)
        for i, c in enumerate(system.graph.channels)
    }
    buffered = system.with_buffer_plan(plan)
    duration = 4 * max(task.period for task in buffered.graph.tasks)
    assert_equivalent(buffered, duration, 321, semantics="let")


def test_let_deadline_violation_parity():
    """The general loop and every batched tier raise the same
    ModelError when a job misses its LET deadline.

    The generator only produces schedulable systems, so the overload is
    built by surgery: analyze a light system, then inflate the
    high-priority task's WCET so the low-priority sibling's response
    time exceeds its period (the simulator never consults the table).
    """
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
    with pytest.raises(ModelError) as err:
        Simulator(overloaded, ms(100), seed=9, semantics="let").run()
    expected = str(err.value)
    assert "LET violation" in expected
    compiled = CompiledScenario(overloaded, "late", semantics="let")
    offsets = tuple(t.offset for t in overloaded.graph.tasks)
    with pytest.raises(ModelError) as err:
        compiled.disparity(offsets, 9, ms(100))
    assert str(err.value) == expected
    if "columnar" in BATCH_TIERS:
        from repro.sim.columnar import run_columnar
        from repro.sim.exec_time import uniform_policy

        with pytest.raises(ModelError) as err:
            run_columnar(
                compiled, [(9, offsets)], ms(100), 0, uniform_policy
            )
        assert str(err.value) == expected


# ----------------------------------------------------------------------
# compiled batch replay vs sequential LET runs
# ----------------------------------------------------------------------

def _sequential_let(system, task, *, sims, duration, warmup, rng,
                    policy="uniform"):
    """N independent LET simulator runs, shared generator."""
    from repro.sim.exec_time import named_policy

    if isinstance(policy, str):
        policy = named_policy(policy)
    out = []
    for _ in range(sims):
        monitor = DisparityMonitor([task], warmup=warmup)
        run_seed = rng.randrange(2**31)
        run_system = System(
            graph=randomize_offsets(system.graph, rng),
            response_times=system.response_times,
        )
        Simulator(
            run_system,
            duration,
            seed=run_seed,
            policy=policy,
            observers=[monitor],
            semantics="let",
        ).run()
        out.append(monitor.disparity(task))
    return tuple(out)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_let_batch_matches_sequential_general(seed, n_tasks):
    system, sink = (lambda s: (s.system, s.sink))(
        generate_random_scenario(n_tasks, random.Random(seed))
    )
    duration = 3 * max(task.period for task in system.graph.tasks)
    result = run_batch(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
        semantics="let",
    )
    expected = _sequential_let(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
    )
    assert result.engine in ("columnar", "compiled")
    assert result.semantics == "let"
    assert result.disparities == expected


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
)
def test_let_batch_matches_sequential_zero_bcet(seed, n_tasks):
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = scenario.system.graph.copy()
    hit = False
    for task in scenario.system.graph.tasks:
        if task.is_instantaneous:
            continue
        if not hit or rng.random() < 0.5:
            graph.replace_task(replace(task, bcet=0))
            hit = True
    system = System(
        graph=graph, response_times=scenario.system.response_times
    )
    sink = scenario.sink
    duration = 2 * max(task.period for task in graph.tasks)
    compiled = CompiledScenario(system, sink, semantics="let")
    assert compiled.eligible
    result = run_batch(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
        compiled=compiled,
        semantics="let",
    )
    expected = _sequential_let(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
    )
    assert result.engine in ("columnar", "compiled")
    assert result.disparities == expected


def test_let_batch_fallback_matches_sequential():
    """Ineligible scenarios (duplicate priorities) fall back to the
    per-replication simulator *with LET semantics*, never implicit."""
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
    compiled = CompiledScenario(system, "b", semantics="let")
    assert not compiled.eligible
    result = run_batch(
        system,
        "b",
        sims=4,
        duration=ms(200),
        warmup=ms(20),
        rng=random.Random(11),
        compiled=compiled,
        semantics="let",
    )
    expected = _sequential_let(
        system,
        "b",
        sims=4,
        duration=ms(200),
        warmup=ms(20),
        rng=random.Random(11),
    )
    assert result.engine == "simulator"
    assert result.semantics == "let"
    assert result.reason is not None
    assert "duplicate priorities" in result.reason
    assert result.disparities == expected


def test_run_batch_rejects_semantics_mismatch():
    scenario = generate_random_scenario(6, random.Random(8))
    system, sink = scenario.system, scenario.sink
    implicit = CompiledScenario(system, sink)
    with pytest.raises(ModelError):
        run_batch(
            system, sink, sims=1, duration=10**9,
            compiled=implicit, semantics="let",
        )
    with pytest.raises(ModelError):
        CompiledScenario(system, sink, semantics="lett")


# ----------------------------------------------------------------------
# session routing (the observed_batch LET seam)
# ----------------------------------------------------------------------

def test_let_session_observed_batch_replays_let():
    """Regression: a LET session's observed disparities must equal N
    sequential ``simulate(semantics="let")`` calls — never implicit."""
    scenario = generate_random_scenario(9, random.Random(3))
    system, sink = scenario.system, scenario.sink
    duration = 3 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4

    session = AnalysisSession(system, semantics="let")
    assert session.semantics == "let"
    result = session.observed_batch(
        sink, sims=5, duration=duration, warmup=warmup, seed=17
    )
    assert result.semantics == "let"
    expected = _sequential_let(
        system,
        sink,
        sims=5,
        duration=duration,
        warmup=warmup,
        rng=random.Random(17),
    )
    assert result.disparities == expected
    assert session.observed_disparity(
        sink, sims=5, duration=duration, warmup=warmup, seed=17
    ) == max(expected)

    # The compiled scenario is cached per (task, semantics): an explicit
    # implicit-semantics request on the same session compiles separately
    # and does not disturb the LET entry.
    implicit = session.observed_batch(
        sink, sims=5, duration=duration, warmup=warmup, seed=17,
        semantics="implicit",
    )
    assert implicit.semantics == "implicit"
    assert set(session._compiled) == {(sink, "let"), (sink, "implicit")}


def test_session_rejects_unknown_semantics():
    scenario = generate_random_scenario(5, random.Random(2))
    with pytest.raises(ValueError):
        AnalysisSession(scenario.system, semantics="explicit")
