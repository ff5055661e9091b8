"""Differential suite for delta compilation (offset-only candidates).

Replaying a :class:`CompiledScenario` at a new offset vector reuses
its offset-independent tables and the columnar kernel inputs cached
per horizon (one columnar row per :meth:`~CompiledScenario.disparity`
call) — so its results must be byte-identical to

* a *fresh* compile evaluated at the same offset vector
  (pins that the shared per-horizon plan never leaks state between
  candidates), and
* the plain simulator run on a system with the offsets applied to the
  graph (an independent reference that shares none of the delta code).

Both identities are exercised on hypothesis-generated systems, under
both communication semantics, with zero-BCET finish-cascades, with
jittered/sporadic release tables, and for scenarios the columnar tier
cannot replay (offsets outside ``[0, T]``, duplicate priorities on one
unit), where the replay must fall back to the per-replication
simulator rather than replaying the compiled tables.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import ModelError, ReleaseModel
from repro.sim.batch import CompiledScenario
from repro.sim.columnar import run_windowed
from repro.sim.engine import simulate
from repro.sim.exec_time import named_policy, wcet_policy
from repro.sim.metrics import DisparityMonitor
from tests.tiers import require_columnar


def _scenario(seed: int, n_tasks: int):
    scenario = generate_random_scenario(n_tasks, random.Random(seed))
    return scenario.system, scenario.sink


def _offset_vectors(system, seed: int, count: int):
    """``count`` in-domain candidate vectors, offsets in ``[1, T]``."""
    rng = random.Random(seed)
    periods = [task.period for task in system.graph.tasks]
    return [
        tuple(rng.randint(1, period) for period in periods)
        for _ in range(count)
    ]


def _simulator_reference(
    system, task, offsets, *, seed, duration, warmup, policy, semantics
):
    """Independent oracle: offsets applied to the graph, plain simulate."""
    graph = system.graph.copy()
    for tid, t in enumerate(graph.tasks):
        graph.replace_task(t.with_offset(offsets[tid]))
    variant = System(graph=graph, response_times=system.response_times)
    monitor = DisparityMonitor([task], warmup=warmup)
    simulate(
        variant,
        duration,
        seed=seed,
        policy=named_policy(policy),
        observers=[monitor],
        semantics=semantics,
    )
    return monitor.disparity(task)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
    semantics=st.sampled_from(["implicit", "let"]),
    policy=st.sampled_from(["uniform", "wcet"]),
)
def test_delta_replay_matches_fresh_compile_and_simulator(
    seed, n_tasks, semantics, policy
):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4
    shared = CompiledScenario(system, sink, semantics=semantics)
    if not shared.eligible:
        return
    for index, vector in enumerate(_offset_vectors(system, seed ^ 0x5A, 4)):
        assert shared.in_domain(vector)
        run_seed = seed + index
        got = shared.disparity(vector, run_seed, duration, warmup, policy)
        fresh = CompiledScenario(system, sink, semantics=semantics).disparity(
            vector, run_seed, duration, warmup, policy
        )
        assert got == fresh
        assert got == _simulator_reference(
            system,
            sink,
            vector,
            seed=run_seed,
            duration=duration,
            warmup=warmup,
            policy=policy,
            semantics=semantics,
        )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_delta_replay_with_zero_bcet_cascades(seed, semantics):
    """Instantaneous finish-cascades replay identically per candidate."""
    system, sink = _scenario(seed, 8)
    graph = system.graph.copy()
    for t in graph.tasks:
        if not t.is_instantaneous:
            graph.replace_task(replace(t, bcet=0))
    cascaded = System(graph=graph, response_times=system.response_times)
    shared = CompiledScenario(cascaded, sink, semantics=semantics)
    if not shared.eligible:
        return
    duration = 2 * max(task.period for task in graph.tasks)
    for index, vector in enumerate(_offset_vectors(cascaded, seed, 3)):
        got = shared.disparity(
            vector, seed + index, duration, duration // 4, "bcet"
        )
        assert got == _simulator_reference(
            cascaded,
            sink,
            vector,
            seed=seed + index,
            duration=duration,
            warmup=duration // 4,
            policy="bcet",
            semantics=semantics,
        )


def test_out_of_domain_offsets_fall_back_identically():
    """Offsets outside ``[0, T]`` leave the delta path but not the contract."""
    system, sink = _scenario(19, 7)
    duration = 3 * max(task.period for task in system.graph.tasks)
    shared = CompiledScenario(system, sink)
    assert shared.eligible
    periods = [task.period for task in system.graph.tasks]
    vector = tuple(period + 1 for period in periods)  # every offset > T
    assert not shared.in_domain(vector)
    got = shared.disparity(vector, 11, duration, duration // 4, "uniform")
    assert got == _simulator_reference(
        system,
        sink,
        vector,
        seed=11,
        duration=duration,
        warmup=duration // 4,
        policy="uniform",
        semantics="implicit",
    )
    # A single out-of-domain coordinate is enough to force the fallback.
    mixed = tuple(
        period + 1 if tid == 0 else 1 for tid, period in enumerate(periods)
    )
    assert not shared.in_domain(mixed)


def test_duplicate_priority_falls_back_identically():
    """A per-unit priority collision leaves the columnar tier."""
    system, sink = _scenario(19, 9)
    assert CompiledScenario(system, sink).eligible
    by_unit = {}
    for t in system.graph.tasks:
        if not t.is_instantaneous and t.ecu is not None:
            by_unit.setdefault(t.ecu, []).append(t)
    a, b = next(ts for ts in by_unit.values() if len(ts) >= 2)[:2]
    graph = system.graph.copy()
    graph.replace_task(a.with_priority(b.priority))
    edited = System(graph=graph, response_times=system.response_times)
    compiled = CompiledScenario(edited, sink)
    assert not compiled.eligible
    assert "duplicate priorities" in compiled.ineligible_reason
    vector = _offset_vectors(system, 19, 1)[0]
    duration = 2 * max(task.period for task in system.graph.tasks)
    assert compiled.disparity(vector, 5, duration, duration // 4, "uniform") == (
        _simulator_reference(
            edited,
            sink,
            vector,
            seed=5,
            duration=duration,
            warmup=duration // 4,
            policy="uniform",
            semantics="implicit",
        )
    )


def _nonperiodic_variant(system, seed: int):
    """Some tasks re-released with jittered/sporadic models."""
    rng = random.Random(seed)
    graph = system.graph.copy()
    converted = 0
    for task in system.graph.tasks:
        u = rng.random()
        if u < 0.35:
            jitter = max(1, task.period // 4)
            model = ReleaseModel.jittered(min(task.period - 1, jitter))
        elif u < 0.6:
            model = ReleaseModel.sporadic(
                max(1, task.period // 2), task.period + task.period // 2
            )
        else:
            continue
        graph.replace_task(task.with_release_model(model))
        converted += 1
    if not converted:
        first = next(iter(system.graph.tasks))
        graph.replace_task(
            first.with_release_model(
                ReleaseModel.jittered(max(1, first.period // 4))
            )
        )
    return System(graph=graph, response_times=system.response_times)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_offset_edits_redraw_nonperiodic_release_tables(seed, semantics):
    """Offset replays of jittered/sporadic scenarios never reuse stale tables.

    The release streams are keyed on the task *name*, so an offset
    edit must yield the exact tables of a fresh compile of the
    offset-edited system — pinned against both a fresh compile and the
    plain simulator.
    """
    base_system, sink = _scenario(seed, 7)
    system = _nonperiodic_variant(base_system, seed ^ 0x0FF5E7)
    duration = 2 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4
    shared = CompiledScenario(system, sink, semantics=semantics)
    for index in range(2):
        vector = _offset_vectors(system, (seed ^ 0x51) + index, 1)[0]
        got = shared.disparity(vector, seed + index, duration, warmup, "uniform")
        fresh = CompiledScenario(system, sink, semantics=semantics).disparity(
            vector, seed + index, duration, warmup, "uniform"
        )
        assert got == fresh
        assert got == _simulator_reference(
            system,
            sink,
            vector,
            seed=seed + index,
            duration=duration,
            warmup=warmup,
            policy="uniform",
            semantics=semantics,
        )


def test_wrong_length_offsets_raise_model_error():
    """The one-row replay rejects a vector that is not one per task."""
    system, sink = _scenario(5, 6)
    duration = 2 * max(task.period for task in system.graph.tasks)
    shared = CompiledScenario(system, sink)
    n = len(system.graph.tasks)
    vector = _offset_vectors(system, 5, 1)[0]
    for bad in (vector[:-1], vector + (1,)):
        expected = f"expected {n} offsets, got {len(bad)}"
        with pytest.raises(ModelError, match=expected):
            shared.disparity(bad, 3, duration)


def test_windowed_probe_reuses_plan_per_horizon():
    """One probe candidate warms the per-horizon plan; later ones reuse it."""
    require_columnar()
    system, sink = _scenario(31, 7)
    duration = 2 * max(task.period for task in system.graph.tasks)
    compiled = CompiledScenario(system, sink)
    assert compiled._plans == {}
    first, second = _offset_vectors(system, 31, 2)

    def probe(vector):
        return run_windowed(
            compiled, [(0, vector)], [0], [duration], duration, duration, 1,
            wcet_policy,
        )

    a = probe(first)
    assert list(compiled._plans) == [duration]
    cached = compiled._plans[duration]
    b = probe(second)
    assert compiled._plans[duration] is cached
    # Same candidate again: identical result off the warmed cache.
    assert probe(first) == a
    assert probe(second) == b


def test_columnar_plan_cached_per_horizon():
    """The columnar kernel inputs are built once per scenario and horizon."""
    require_columnar()
    system, sink = _scenario(31, 7)
    duration = 2 * max(task.period for task in system.graph.tasks)
    compiled = CompiledScenario(system, sink)
    assert compiled._plans == {}
    first, second = _offset_vectors(system, 31, 2)
    a = compiled.disparity(first, 1, duration)
    plan = compiled._plans[duration]
    b = compiled.disparity(second, 1, duration)
    assert compiled._plans[duration] is plan
    assert compiled.disparity(first, 1, duration) == a
    assert compiled.disparity(second, 1, duration) == b
    # A capacity-edited system compiles with its own (capacity-dependent)
    # plan, built on its first replay.
    edge = system.graph.channels[0]
    edited = CompiledScenario(
        system.with_channel_capacity(edge.src, edge.dst, 3), sink
    )
    assert edited._plans == {}
    edited.disparity(first, 1, duration)
    assert edited._plans[duration] is not plan
