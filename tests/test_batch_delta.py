"""Differential suite for delta compilation (offset-only candidates).

Replaying a :class:`CompiledScenario` at a new offset vector rebases
the precomputed release-stream tables by vector shift instead of
regenerating and re-sorting grids — so its results must be
byte-identical to

* a *fresh* compile evaluated at the same offset vector
  (pins that the shared per-horizon stream cache never leaks state
  between candidates), and
* the plain simulator run on a system with the offsets applied to the
  graph (an independent reference that shares none of the delta code).

Both identities are exercised on hypothesis-generated systems, under
both communication semantics, with zero-BCET finish-cascades, and for
out-of-domain offsets (outside ``[0, T]``), where the replay must fall
back to the per-replication simulator rather than replaying the
compiled tables.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch_mod
from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.batch import CompiledScenario
from repro.sim.engine import simulate
from repro.sim.exec_time import named_policy
from repro.sim.metrics import DisparityMonitor


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


def test_wrong_length_offsets_raise_model_error():
    """Both replay methods reject a vector that is not one per task."""
    system, sink = _scenario(5, 6)
    duration = 2 * max(task.period for task in system.graph.tasks)
    shared = CompiledScenario(system, sink)
    n = len(system.graph.tasks)
    vector = _offset_vectors(system, 5, 1)[0]
    for bad in (vector[:-1], vector + (1,)):
        expected = f"expected {n} offsets, got {len(bad)}"
        with pytest.raises(ModelError, match=expected):
            shared.disparity(bad, 3, duration)
        with pytest.raises(ModelError, match=expected):
            shared.windowed_maxima(bad, duration, 0, duration, 1)
    # Offsets are not an edit: they are passed to each evaluation.
    with pytest.raises(
        ModelError, match=r"\['offsets'\].*'periods', 'priorities', 'capacities'"
    ):
        shared.edit(offsets=vector)


def test_delta_replay_without_numpy(monkeypatch):
    """The sorted()-based stream fallback replays candidates identically."""
    system, sink = _scenario(23, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    vectors = _offset_vectors(system, 23, 3)
    with_numpy = [
        CompiledScenario(system, sink).disparity(
            vector, 9, duration, duration // 4, "uniform"
        )
        for vector in vectors
    ]
    monkeypatch.setattr(batch_mod, "_np", None)
    shared = CompiledScenario(system, sink)
    without_numpy = [
        shared.disparity(vector, 9, duration, duration // 4, "uniform")
        for vector in vectors
    ]
    assert without_numpy == with_numpy


@pytest.mark.skipif(
    batch_mod._np is None,
    reason="stream tables are the numpy delta path (pure-python "
    "fallback regenerates per candidate)",
)
def test_stream_tables_cached_per_horizon():
    """One candidate warms the per-horizon cache; later ones reuse it."""
    system, sink = _scenario(31, 7)
    duration = 2 * max(task.period for task in system.graph.tasks)
    compiled = CompiledScenario(system, sink)
    assert compiled._stream_cache == {}
    first, second = _offset_vectors(system, 31, 2)
    a = compiled.disparity(first, 1, duration)
    assert duration in compiled._stream_cache
    cached = compiled._stream_cache[duration]
    b = compiled.disparity(second, 1, duration)
    assert compiled._stream_cache[duration] is cached
    # Same candidate again: identical result off the warmed cache.
    assert compiled.disparity(first, 1, duration) == a
    assert compiled.disparity(second, 1, duration) == b
