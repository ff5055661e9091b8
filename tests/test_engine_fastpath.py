"""Equivalence of the batched fast paths with the general event loop.

``Simulator`` is the one reference loop (the general loop).  The
columnar C kernel must reproduce it exactly under implicit semantics:
per-replication disparities of every fused task over randomized
replications, and the job-by-job disparities of the monitored task at
the system's own offsets (see ``tests/tiers.py``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task
from repro.sim.batch import run_batch
from repro.sim.engine import Simulator
from repro.sim.exec_time import (
    bcet_policy,
    extremes_policy,
    uniform_policy,
    wcet_policy,
)
from repro.sim.faults import FaultPlan
from repro.units import ms
from tests.tiers import (
    assert_equivalent,
    assert_provenance_matches,
    random_system,
    require_columnar,
    zero_bcet_system,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
)
def test_fastpath_matches_general_uniform(seed, n_tasks):
    system = random_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    assert_equivalent(system, duration, seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fastpath_matches_general_other_policies(seed):
    system = random_system(seed, 8)
    duration = 3 * max(task.period for task in system.graph.tasks)
    assert_equivalent(system, duration, seed, policy=wcet_policy)
    assert_equivalent(system, duration, seed, policy=extremes_policy)


def test_fastpath_matches_general_with_buffers():
    system = random_system(123, 10)
    # Enlarge every channel into a small FIFO (Lemma 6 territory).
    plan = {
        (c.src, c.dst): 1 + (i % 3)
        for i, c in enumerate(system.graph.channels)
    }
    buffered = system.with_buffer_plan(plan)
    duration = 4 * max(task.period for task in buffered.graph.tasks)
    assert_equivalent(buffered, duration, 123)


def test_loop_validation_happens_at_construction():
    """A run the event loop cannot execute fails in ``__init__``.

    Every rejection fires at construction, before ``.run()``, so a
    misconfigured run in a sweep fails before any simulated time (the
    unmapped-compute-task rejection is pinned in
    ``tests/test_sim_batch.py``).
    """
    system = random_system(5, 6)
    with pytest.raises(ModelError, match="duration must be positive"):
        Simulator(system, 0)
    with pytest.raises(ModelError, match="unknown semantics"):
        Simulator(system, 10**9, semantics="lett")
    with pytest.raises(ModelError, match="ghost"):
        Simulator(system, 10**9, faults=FaultPlan().drop("ghost", 0, 10))


def _zero_bcet_pair() -> System:
    graph = CauseEffectGraph()
    graph.add_task(
        Task("s", period=ms(10), wcet=0, bcet=0, offset=ms(1), ecu="e", priority=2)
    )
    graph.add_task(
        Task(
            "t",
            period=ms(10),
            wcet=ms(2),
            bcet=0,
            offset=ms(2),
            ecu="e",
            priority=1,
        )
    )
    graph.add_channel("s", "t")
    return System.build(graph)


def test_auto_uses_fastpath_for_zero_bcet():
    require_columnar()
    system = _zero_bcet_pair()
    result = run_batch(
        system, "t", sims=3, duration=ms(100), rng=random.Random(7)
    )
    assert result.engine == "columnar"
    assert_equivalent(system, ms(100), 7)
    # All-zero execution times: every CPU finish cascades at its own
    # release instant — the worst case for sub-instant ordering.
    assert_equivalent(system, ms(100), 7, policy=bcet_policy)


def test_fastpath_cascade_chain_on_one_unit():
    """A same-unit chain of zero-BCET tasks with identical offsets.

    Under ``bcet_policy`` every job executes in zero time, so each
    release instant processes the whole chain as a cascade of
    finish-triggered dispatches; the columnar kernel's cascade-depth
    side table must replay the general loop's sub-batch order exactly.
    """
    graph = CauseEffectGraph()
    graph.add_task(
        Task(
            "src",
            period=ms(5),
            wcet=0,
            bcet=0,
            offset=ms(1),
            ecu="e",
            priority=5,
        )
    )
    names = ["src"]
    for i, prio in enumerate((4, 1, 3, 2)):
        name = f"t{i}"
        graph.add_task(
            Task(
                name,
                period=ms(5),
                wcet=ms(1),
                bcet=0,
                offset=ms(1),
                ecu="e",
                priority=prio,
            )
        )
        graph.add_channel(names[-1], name)
        names.append(name)
    system = System.build(graph)
    for seed in (0, 1, 2):
        for task in names[1:]:
            for policy in (bcet_policy, uniform_policy):
                assert_provenance_matches(
                    system, task, seed=seed, duration=ms(60), policy=policy
                )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_fastpath_matches_general_zero_bcet(seed, n_tasks):
    system = zero_bcet_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    assert_equivalent(system, duration, seed)
    # bcet_policy pins every draw to zero for the zeroed tasks,
    # maximizing same-instant cascades.
    assert_equivalent(system, duration, seed, policy=bcet_policy)
