"""Differential suite: the offset search's batched objective.

``exact.search._CompiledObjective.values`` evaluates a whole candidate
batch in at most two columnar kernel calls (the two-window convergence
probe, then ``max_windows`` windows for the rows that did not
converge), every row advanced to one shared horizon and folded at its
own warmup and cutoff.  Each candidate must equal
:func:`~repro.exact.hyperperiod.steady_state_disparity` on the
reference :class:`~repro.sim.engine.Simulator`, and rows the columnar
tier cannot run must fall back to exactly that reference.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import search
from repro.exact.hyperperiod import _WindowedDisparity, steady_state_disparity
from repro.exact.search import (
    _CompiledObjective,
    maximize_disparity_offsets,
)
from repro.sim.batch import CompiledScenario
from repro.sim.columnar import run_windowed
from repro.sim.engine import Simulator
from repro.sim.exec_time import uniform_policy, wcet_policy
from tests.tiers import (
    buffered_system,
    fused_tasks,
    instantaneous_sink_system,
    random_system,
    require_columnar,
)


def _batch(system, rng: random.Random, size: int):
    """``size`` random candidates plus the earliest and latest warmups.

    The all-``1`` and all-``T`` vectors have the smallest and largest
    ``max(vector)``, so every batch mixes rows whose windows start at
    different instants.
    """
    tasks = system.graph.tasks
    rows = [{t.name: 1 for t in tasks}, {t.name: t.period for t in tasks}]
    rows += [
        {t.name: rng.randint(1, t.period) for t in tasks} for _ in range(size)
    ]
    return rows


def _reference(system, task, batch, policy, max_windows):
    return [
        steady_state_disparity(
            system.with_offsets(offsets),
            task,
            policy=policy,
            max_windows=max_windows,
        ).disparity
        for offsets in batch
    ]


def _spy_windowed(monkeypatch):
    """Record ``(rows, count)`` of every kernel call the objective makes."""
    calls = []
    original = search.run_windowed

    def spy(compiled, draws, starts, cutoffs, duration, window, count, policy):
        calls.append((len(draws), count))
        return original(
            compiled, draws, starts, cutoffs, duration, window, count, policy
        )

    monkeypatch.setattr(search, "run_windowed", spy)
    return calls


_SYSTEMS = {
    "random": lambda seed, n: _monitored(random_system(seed, n)),
    "buffered": lambda seed, n: _monitored(buffered_system(seed, n)),
    "instantaneous": instantaneous_sink_system,
}


def _monitored(system):
    return system, (fused_tasks(system) or list(system.graph.sinks()))[-1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    kind=st.sampled_from(sorted(_SYSTEMS)),
    policy=st.sampled_from([wcet_policy, uniform_policy]),
)
def test_run_windowed_matches_windowed_observer(seed, n_tasks, kind, policy):
    """Each row == the simulator run to its own cutoff, window by window.

    Rows differ in seed, offsets, window start and cutoff; starts land
    on a release of the monitored task as well as between releases,
    and windows are shorter than a period as well as longer, so jobs
    sit on every window and cutoff boundary.
    """
    require_columnar()
    system, task = _SYSTEMS[kind](seed, n_tasks)
    rng = random.Random(seed)
    period = system.graph.task(task).period
    duration = 6 * max(t.period for t in system.graph.tasks)
    window = rng.choice([period // 2 or 1, period, 2 * period + 1])
    count = rng.randint(1, 5)
    compiled = CompiledScenario(system, task)
    rows = []
    for row in range(4):
        offsets = tuple(rng.randint(1, t.period) for t in system.graph.tasks)
        own = offsets[compiled.m_gid]
        start = own + rng.randint(0, 3) * period if row % 2 else rng.randint(
            0, duration // 2
        )
        cutoff = rng.randint(start, duration) if row else duration
        rows.append((rng.randrange(2**31), offsets, start, cutoff))
    got = run_windowed(
        compiled,
        [(seed_, offsets) for seed_, offsets, _s, _c in rows],
        [start for _seed, _o, start, _c in rows],
        [cutoff for _seed, _o, _s, cutoff in rows],
        duration,
        window,
        count,
        policy,
    )
    for (row_seed, offsets, start, cutoff), windows in zip(rows, got):
        monitor = _WindowedDisparity(task, window, start)
        Simulator(
            compiled.system.with_offsets(dict(zip(compiled.names, offsets))),
            cutoff,
            seed=row_seed,
            policy=policy,
            observers=[monitor],
        ).run()
        assert windows == [monitor.per_window.get(i, 0) for i in range(count)]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    kind=st.sampled_from(sorted(_SYSTEMS)),
    max_windows=st.sampled_from([2, 3, 4]),
    policy=st.sampled_from([wcet_policy, uniform_policy]),
)
def test_batched_objective_matches_reference(
    seed, n_tasks, kind, max_windows, policy
):
    require_columnar()
    system, task = _SYSTEMS[kind](seed, n_tasks)
    objective = _CompiledObjective(system, task, policy, max_windows)
    assert objective.probe_eligible
    batch = _batch(system, random.Random(seed), 3)
    assert objective.values(batch) == _reference(
        system, task, batch, policy, max_windows
    )


def test_rows_that_do_not_converge_take_the_second_call(monkeypatch):
    """One batch splits: most rows settle in the probe, one needs H x 4."""
    require_columnar()
    system = random_system(2, 12)
    objective = _CompiledObjective(system, "k1", uniform_policy, 4)
    rng = random.Random(2)
    batch = [
        {t.name: rng.randint(1, t.period) for t in system.graph.tasks}
        for _ in range(4)
    ]
    calls = _spy_windowed(monkeypatch)
    got = objective.values(batch)
    assert calls == [(4, 2), (1, 4)]
    assert got == _reference(system, "k1", batch, uniform_policy, 4)
    # One plan per phase horizon, shared by every later batch.
    assert len(objective.compiled._plans) == 2
    objective.values(batch[:2])
    assert len(objective.compiled._plans) == 2


def test_two_windows_skip_the_probe(monkeypatch):
    """``max_windows=2`` disables the probe: one two-window call only."""
    require_columnar()
    system, task = _monitored(buffered_system(5, 7))
    calls = _spy_windowed(monkeypatch)
    objective = _CompiledObjective(system, task, wcet_policy, 2)
    batch = _batch(system, random.Random(5), 2)
    assert objective.values(batch) == _reference(
        system, task, batch, wcet_policy, 2
    )
    assert calls == [(len(batch), 2)]


def test_custom_policy_falls_back_to_reference(monkeypatch):
    """A policy callable the kernel cannot draw runs the reference."""

    def at_wcet(task, index, rng):
        return task.wcet

    system, task = _monitored(random_system(4, 7))
    calls = _spy_windowed(monkeypatch)
    objective = _CompiledObjective(system, task, at_wcet, 4)
    assert not objective.probe_eligible
    batch = _batch(system, random.Random(4), 2)
    got = objective.values(batch)
    assert calls == []
    assert got == _reference(system, task, batch, at_wcet, 4)
    assert got == _reference(system, task, batch, wcet_policy, 4)


def test_out_of_domain_row_falls_back_alone(monkeypatch):
    """A row with an offset past its period runs the reference; the
    rest of the batch stays on the columnar tier."""
    require_columnar()
    system, task = _monitored(random_system(6, 7))
    objective = _CompiledObjective(system, task, wcet_policy, 4)
    batch = _batch(system, random.Random(6), 2)
    first = system.graph.tasks[0]
    batch.append({**batch[-1], first.name: first.period + 1})
    calls = _spy_windowed(monkeypatch)
    assert objective.values(batch) == _reference(
        system, task, batch, wcet_policy, 4
    )
    assert calls[0] == (len(batch) - 1, 2)


def test_search_is_jobs_invariant_on_the_columnar_tier():
    require_columnar()
    system, task = _monitored(buffered_system(8, 8))
    assert CompiledScenario(system, task).eligible
    kwargs = dict(restarts=3, sweeps=2, candidates_per_task=3)
    serial = maximize_disparity_offsets(
        system, task, random.Random(21), jobs=1, **kwargs
    )
    parallel = maximize_disparity_offsets(
        system, task, random.Random(21), jobs=2, **kwargs
    )
    assert serial == parallel
