"""Differential suite for structural delta compilation (``edit``).

:meth:`CompiledScenario.edit` derives a sibling compiled scenario that
recomputes only the tables its edit touches — release grids and stream
tables for ``periods``, per-unit rank tables for ``priorities``,
channel tables for ``capacities`` — and shares the rest with its base.
Every derived scenario's results must be byte-identical to

* a *fresh* compile of the edited system evaluated at the same offsets
  (pins that selective invalidation never reuses a stale table), and
* the plain simulator run on the edited system (an independent
  reference that shares none of the delta code).

Both identities are exercised on hypothesis-generated systems, under
both communication semantics, for single, composed and chained edits,
and for edits forced off the delta path (duplicate priorities, offsets
pushed outside ``[0, T]`` by a period shrink), where the replay must
fall back to the per-replication simulator rather than replaying the
compiled tables.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _offset_vector(system, seed: int):
    """One in-domain candidate vector, offsets in ``[1, T]``."""
    rng = random.Random(seed)
    return tuple(
        rng.randint(1, task.period) for task in system.graph.tasks
    )


def _edited_system(
    system, *, periods=None, priorities=None, capacities=None
):
    """The edit applied to the graph directly — the fresh-compile recipe."""
    graph = system.graph.copy()
    for name, period in (periods or {}).items():
        graph.replace_task(replace(graph.task(name), period=period))
    for name, priority in (priorities or {}).items():
        graph.replace_task(graph.task(name).with_priority(priority))
    for (src, dst), capacity in (capacities or {}).items():
        graph.set_channel_capacity(src, dst, capacity)
    return System(graph=graph, response_times=system.response_times)


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


def _structural_edits(system):
    """Representative single and composed edits of ``system``.

    Period edits only scale periods *up*, so base-domain offsets stay
    in the edited domain and replays keep the delta path.
    """
    compute = [t for t in system.graph.tasks if not t.is_instantaneous]
    channel = system.graph.channels[0]
    edge = (channel.src, channel.dst)
    edits = [
        {"periods": {compute[0].name: compute[0].period * 2}},
        {"capacities": {edge: channel.capacity + 2}},
        {
            "periods": {compute[-1].name: compute[-1].period * 3},
            "capacities": {edge: 2},
        },
    ]
    by_unit = {}
    for t in compute:
        if t.ecu is not None:
            by_unit.setdefault(t.ecu, []).append(t)
    for unit_tasks in by_unit.values():
        if len(unit_tasks) >= 2:
            a, b = unit_tasks[0], unit_tasks[1]
            edits.append(
                {"priorities": {a.name: b.priority, b.name: a.priority}}
            )
            break
    return edits


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
    semantics=st.sampled_from(["implicit", "let"]),
    policy=st.sampled_from(["uniform", "wcet"]),
)
def test_structural_views_match_fresh_compile_and_simulator(
    seed, n_tasks, semantics, policy
):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4
    shared = CompiledScenario(system, sink, semantics=semantics)
    vector = _offset_vector(system, seed ^ 0x5A)
    for index, changes in enumerate(_structural_edits(system)):
        derived = shared.edit(**changes)
        assert isinstance(derived, CompiledScenario)
        assert derived is not shared
        run_seed = seed + index
        got = derived.disparity(vector, run_seed, duration, warmup, policy)
        edited = _edited_system(system, **changes)
        fresh = CompiledScenario(edited, sink, semantics=semantics).disparity(
            vector, run_seed, duration, warmup, policy
        )
        assert got == fresh
        assert got == _simulator_reference(
            edited,
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
def test_chained_edits_compose_and_earlier_views_stay_valid(seed, semantics):
    """Edits of edits stack; later edits never corrupt earlier ones."""
    system, sink = _scenario(seed, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4
    shared = CompiledScenario(system, sink, semantics=semantics)
    vector = _offset_vector(system, seed)
    compute = [t for t in system.graph.tasks if not t.is_instantaneous]
    channel = system.graph.channels[-1]
    periods = {compute[0].name: compute[0].period * 2}
    capacities = {(channel.src, channel.dst): 3}

    first = shared.edit(periods=periods)
    before = first.disparity(vector, seed, duration, warmup, "wcet")
    second = first.edit(capacities=capacities)
    combined = _edited_system(system, periods=periods, capacities=capacities)
    assert second.disparity(vector, seed, duration, warmup, "wcet") == (
        CompiledScenario(combined, sink, semantics=semantics).disparity(
            vector, seed, duration, warmup, "wcet"
        )
    )
    # The chained edit derived a sibling; the first one still replays
    # against its own tables and must reproduce its result exactly.
    assert first.disparity(vector, seed, duration, warmup, "wcet") == before


def test_unknown_or_empty_edit_keys_raise_value_error():
    system, sink = _scenario(7, 6)
    shared = CompiledScenario(system, sink)
    with pytest.raises(ValueError, match="capacities"):
        shared.edit(capacity={(1, 2): 3})
    with pytest.raises(ValueError, match="periods"):
        shared.edit(period={"x": 10})
    with pytest.raises(ValueError):
        shared.edit()
    with pytest.raises(ValueError):
        shared.edit(capacities={})
    with pytest.raises(ModelError):
        shared.edit(periods={"no-such-task": 10})


def test_duplicate_priority_falls_back_identically():
    """A priority edit that collides per-unit leaves the delta path."""
    system, sink = _scenario(19, 9)
    shared = CompiledScenario(system, sink)
    assert shared.eligible
    by_unit = {}
    for t in system.graph.tasks:
        if not t.is_instantaneous and t.ecu is not None:
            by_unit.setdefault(t.ecu, []).append(t)
    pair = next(ts for ts in by_unit.values() if len(ts) >= 2)
    a, b = pair[0], pair[1]
    vector = _offset_vector(system, 19)
    derived = shared.edit(priorities={a.name: b.priority})
    assert not derived.eligible
    assert "duplicate priorities" in derived.ineligible_reason
    duration = 2 * max(task.period for task in system.graph.tasks)
    edited = _edited_system(system, priorities={a.name: b.priority})
    assert derived.disparity(vector, 5, duration, duration // 4, "uniform") == (
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


def test_period_shrink_can_push_offsets_out_of_domain():
    """Offsets beyond the edited period force the simulator fallback."""
    system, sink = _scenario(23, 7)
    shared = CompiledScenario(system, sink)
    compute = [t for t in system.graph.tasks if not t.is_instantaneous]
    target = compute[0]
    tid = [t.name for t in system.graph.tasks].index(target.name)
    new_period = max(1, target.period // 2)
    vector = tuple(
        new_period + 1 if index == tid else 1
        for index in range(len(system.graph.tasks))
    )
    derived = shared.edit(periods={target.name: new_period})
    assert shared.in_domain(vector)
    assert not derived.in_domain(vector)
    duration = 2 * max(task.period for task in system.graph.tasks)
    edited = _edited_system(system, periods={target.name: new_period})
    assert derived.disparity(vector, 3, duration, duration // 4, "uniform") == (
        _simulator_reference(
            edited,
            sink,
            vector,
            seed=3,
            duration=duration,
            warmup=duration // 4,
            policy="uniform",
            semantics="implicit",
        )
    )


def test_capacity_view_shares_streams_grids_and_schedule_memo():
    """Capacity edits invalidate only channel tables; the rest aliases."""
    system, sink = _scenario(31, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4
    base = CompiledScenario(system, sink)
    channel = system.graph.channels[0]
    vector = _offset_vector(system, 31)
    base.disparity(vector, 1, duration, warmup, "wcet")
    before = base._sched_cache.stats()
    derived = base.edit(capacities={(channel.src, channel.dst): 4})
    assert derived._grid_cache is base._grid_cache
    assert derived._stream_cache is base._stream_cache
    assert derived._sched_cache is base._sched_cache
    assert derived.in_edges is not base.in_edges
    # WCET is deterministic: the derived scenario's evaluation — even
    # at another seed — replays the memoized schedule instead of
    # re-simulating.
    derived.disparity(vector, 2, duration, warmup, "wcet")
    after = base._sched_cache.stats()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


def test_period_view_gets_fresh_stream_and_schedule_caches():
    """Period edits invalidate streams and schedules but share grids."""
    import repro.sim.batch as batch_mod

    system, sink = _scenario(37, 8)
    base = CompiledScenario(system, sink)
    compute = [t for t in system.graph.tasks if not t.is_instantaneous]
    target = compute[0]
    derived = base.edit(periods={target.name: target.period * 2})
    assert derived._grid_cache is base._grid_cache
    assert derived._stream_cache is not base._stream_cache
    assert derived._sched_cache is not base._sched_cache
    # Unedited tasks reuse the base's cached (period, duration) grids
    # (grids only materialize on the numpy delta path; the pure-python
    # fallback regenerates releases per candidate).
    duration = 2 * max(task.period for task in system.graph.tasks)
    own_offsets = tuple(t.offset for t in derived.graph.tasks)
    derived.disparity(own_offsets, 1, duration, duration // 4, "wcet")
    other = compute[1]
    if batch_mod._np is not None:
        assert (other.period, duration) in base._grid_cache


def _nonperiodic_variant(system, seed: int):
    """Some tasks re-released with jittered/sporadic models."""
    from repro.model.task import ReleaseModel

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
        vector = _offset_vector(system, (seed ^ 0x51) + index)
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


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_structural_edits_on_nonperiodic_tasks_match_fresh_compile(seed):
    """Period/capacity edits compose with non-periodic release tables."""
    base_system, sink = _scenario(seed, 7)
    system = _nonperiodic_variant(base_system, seed ^ 0xE417)
    duration = 2 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4
    shared = CompiledScenario(system, sink)
    vector = _offset_vector(system, seed ^ 0x5A)
    compute = [t for t in system.graph.tasks if not t.is_instantaneous]
    channel = system.graph.channels[0]
    changes = {
        "periods": {compute[0].name: compute[0].period * 2},
        "capacities": {(channel.src, channel.dst): 2},
    }
    got = shared.edit(**changes).disparity(vector, seed, duration, warmup, "wcet")
    edited = _edited_system(system, **changes)
    fresh = CompiledScenario(edited, sink).disparity(
        vector, seed, duration, warmup, "wcet"
    )
    assert got == fresh
    assert got == _simulator_reference(
        edited,
        sink,
        vector,
        seed=seed,
        duration=duration,
        warmup=warmup,
        policy="wcet",
        semantics="implicit",
    )
