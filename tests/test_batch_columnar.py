"""Differential suite for the columnar batch engine.

The columnar tier advances every replication's NP-FP schedule in one
C-kernel call and derives provenance/disparity columns in bulk, so its
correctness contract is strict equality with the reference: for any
eligible scenario, ``run_batch`` must run the columnar tier and return
the same per-replication disparities as ``sims`` independent
``Simulator`` runs (``tests.tiers.simulator_disparities``), and each
row must equal the one-replication :meth:`CompiledScenario.disparity`
at the same draw.  The suite pins that identity across implicit and
LET semantics, all four batchable policies, zero-BCET cascades, and
the fallback edges the input itself selects (unbatchable policies,
ineligible scenarios, C toolchain absent) — plus the jobs-invariance
of campaign CSVs with the columnar engine active underneath.  The
kernel splits a batch's sims across threads: its outputs must be the
same bytes at any thread count, the lowest failing sim must be the one
reported, and no thread may outlive a call (a forked ``--jobs`` pool
follows a threaded call safely).

Columnar-only tests skip, with the kernel's reason, when the kernel
cannot load here; the fallback-parity tests still run.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim import ckernel, columnar
from repro.sim.batch import CompiledScenario, run_batch
from repro.sim.engine import Simulator
from repro.sim.exec_time import (
    extremes_policy,
    named_policy,
    per_task_policy,
    uniform_policy,
    wcet_policy,
)
from repro.units import lcm, ms
from tests.tiers import (
    THREAD_COUNTS,
    assert_finishes_match,
    assert_provenance_matches,
    assert_split_invariant,
    assert_tiers_match,
    batch_draws,
    buffered_system,
    fused_tasks,
    kernel_bytes,
    kernel_threads,
    loaded_system,
    random_system,
    simulator_disparities,
)

_KERNEL, _WHY = ckernel.load_kernel()
needs_columnar = pytest.mark.skipif(
    _KERNEL is None, reason=f"columnar kernel unavailable: {_WHY}"
)


def _scenario(seed: int, n_tasks: int):
    scenario = generate_random_scenario(n_tasks, random.Random(seed))
    return scenario.system, scenario.sink


def _sequential(system, task, *, sims, duration, warmup, seed, policy,
                semantics="implicit"):
    """The ground truth: N independent simulator runs, shared generator."""
    return simulator_disparities(
        system,
        [task],
        sims=sims,
        duration=duration,
        warmup=warmup,
        seed=seed,
        policy=named_policy(policy) if isinstance(policy, str) else policy,
        semantics=semantics,
    )[task]


def _one_row_each(system, task, *, sims, duration, warmup, seed, policy,
                  semantics="implicit"):
    """The batch's draws replayed one :meth:`disparity` call at a time."""
    compiled = CompiledScenario(system, task, semantics=semantics)
    rng = random.Random(seed)
    out = []
    for _ in range(sims):
        run_seed = rng.randrange(2**31)
        offsets = tuple(rng.randint(1, t.period) for t in system.graph.tasks)
        out.append(
            compiled.disparity(offsets, run_seed, duration, warmup, policy)
        )
    return tuple(out)


def _run(system, task, *, sims, duration, warmup, seed, policy,
         semantics="implicit"):
    return run_batch(
        system,
        task,
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=random.Random(seed),
        policy=policy,
        semantics=semantics,
    )


def _zero_bcet(system):
    """``system`` with every compute task's BCET lowered to 0."""
    graph = system.graph.copy()
    for task in graph.tasks:
        if not task.is_instantaneous:
            graph.replace_task(replace(task, bcet=0))
    return System(graph=graph, response_times=system.response_times)


@needs_columnar
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
    policy=st.sampled_from(["uniform", "wcet", "bcet", "extremes"]),
)
def test_columnar_matches_simulator(seed, n_tasks, policy):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    shape = dict(
        sims=3, duration=duration, warmup=duration // 4, seed=seed,
        policy=policy,
    )
    columnar = _run(system, sink, **shape)
    assert columnar.engine == "columnar"
    assert columnar.reason is None
    assert columnar.disparities == _sequential(system, sink, **shape)
    assert columnar.disparities == _one_row_each(system, sink, **shape)


@needs_columnar
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    policy=st.sampled_from(["uniform", "wcet", "extremes"]),
)
def test_columnar_let_matches_sequential(seed, n_tasks, policy):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    shape = dict(
        sims=3, duration=duration, warmup=duration // 4, seed=seed,
        policy=policy, semantics="let",
    )
    columnar = _run(system, sink, **shape)
    assert columnar.engine == "columnar"
    assert columnar.disparities == _one_row_each(system, sink, **shape)
    assert columnar.disparities == _sequential(system, sink, **shape)


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
    lowered = _zero_bcet(system)
    duration = 2 * max(task.period for task in lowered.graph.tasks)
    for policy in ("uniform", "bcet"):
        shape = dict(
            sims=3, duration=duration, warmup=0, seed=seed, policy=policy,
            semantics=semantics,
        )
        columnar = _run(lowered, sink, **shape)
        assert columnar.engine == "columnar"
        assert columnar.disparities == _sequential(lowered, sink, **shape)


@needs_columnar
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    semantics=st.sampled_from(["implicit", "let"]),
    policy=st.sampled_from(["uniform", "bcet"]),
    zero_bcet=st.booleans(),
)
def test_columnar_matches_simulator_buffered(
    seed, n_tasks, semantics, policy, zero_bcet
):
    """FIFO channels of capacity 1-4: reads take the ``mm - cap`` head."""
    system = buffered_system(seed, n_tasks)
    if zero_bcet:
        system = _zero_bcet(system)
    assert_tiers_match(
        system,
        sims=3,
        duration=4 * max(task.period for task in system.graph.tasks),
        seed=seed,
        policy=named_policy(policy),
        semantics=semantics,
        tasks=fused_tasks(system) or system.graph.sinks(),
    )


def _hyperperiod(system) -> int:
    """lcm of the compute tasks' periods: the release table's wrap."""
    return lcm(
        *(t.period for t in system.graph.tasks if not t.is_instantaneous)
    )


@needs_columnar
@pytest.mark.parametrize("semantics", ["implicit", "let"])
@pytest.mark.parametrize("policy", ["uniform", "extremes"])
def test_finish_columns_follow_the_draw_order(policy, semantics):
    """Loaded systems, first releases in lockstep, over 3.5
    hyperperiods: the kernel's release table wraps three times, and
    every job must still draw the variate the simulator hands it (its
    finish moves otherwise, even where no read changes)."""
    checked = 0
    for seed in range(1, 26):
        system = loaded_system(seed, 10)
        if system is None:
            continue
        hyper = _hyperperiod(system)
        first = min(t.period for t in system.graph.tasks)  # every offset
        duration = first + 3 * hyper + hyper // 2
        compiled = CompiledScenario(system, system.graph.sinks()[0])
        assert columnar._plan(compiled, duration).hyper == hyper
        assert_finishes_match(
            system, seed=seed, duration=duration,
            policy=named_policy(policy), semantics=semantics,
        )
        checked += 1
    assert checked >= 10


def _chain_system(periods):
    """A source feeding a chain of compute tasks of ``periods`` on one
    unit, every first release at the smallest period."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task

    first = min(periods)
    graph = CauseEffectGraph()
    graph.add_task(
        source_task("src", periods[0], ecu="e", priority=0, offset=first)
    )
    producer = "src"
    for rank, period in enumerate(periods, start=1):
        name = f"t{rank}"
        graph.add_task(Task(
            name, period, period // 8, period // 32, ecu="e",
            priority=rank, offset=first,
        ))
        graph.add_channel(producer, name)
        producer = name
    return System.build(graph)


@needs_columnar
@pytest.mark.parametrize("semantics", ["implicit", "let"])
@pytest.mark.parametrize("policy", ["uniform", "extremes"])
@pytest.mark.parametrize(
    "periods, duration, floor",
    [
        ((ms(3), ms(7), ms(11), ms(13)), ms(600), ms(600)),
        ((2_000_003, 3_000_017, 5_000_011, 7_000_003), ms(200), 2**63),
    ],
    ids=["lcm-past-horizon", "lcm-past-int64"],
)
def test_finish_columns_without_a_wrap(periods, duration, floor, policy,
                                       semantics):
    """Non-harmonic periods: the hyperperiod reaches the horizon (or
    int64), so the table holds every release of the horizon."""
    system = _chain_system(periods)
    assert _hyperperiod(system) >= floor
    assert columnar._plan(CompiledScenario(system, "t1"), duration).hyper == 0
    assert_finishes_match(
        system, seed=7, duration=duration, policy=named_policy(policy),
        semantics=semantics,
    )


@needs_columnar
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    sims=st.sampled_from([1, 2, 5]),
    semantics=st.sampled_from(["implicit", "let"]),
    zero_bcet=st.booleans(),
)
def test_split_is_byte_identical_across_thread_counts(
    seed, n_tasks, sims, semantics, zero_bcet
):
    """1, 2 and 3 threads write the same bytes — the disparity and
    finish columns and the violation rows — ``sims < threads`` too."""
    system = buffered_system(seed, n_tasks)
    if zero_bcet:
        system = _zero_bcet(system)
    task = (fused_tasks(system) or system.graph.sinks())[0]
    assert_split_invariant(
        system,
        task,
        sims=sims,
        duration=3 * max(t.period for t in system.graph.tasks),
        seed=seed,
        semantics=semantics,
    )


@pytest.mark.parametrize("semantics", ["implicit", "let"])
@pytest.mark.parametrize(
    "policy", [uniform_policy, extremes_policy], ids=["uniform", "extremes"]
)
@pytest.mark.parametrize("seed", [2**32, 2**63 - 1, 2**100, -7])
def test_kernel_rng_follows_multi_word_keys(seed, policy, semantics):
    """Seeds past one 32-bit word, and a negative one, seed CPython's
    MT19937 from a multi-word key; the kernel's in-place stream must
    stay the simulator's, job by job and through
    ``CompiledScenario.disparity``.  The system's sink column changes
    with the implicit draws (a key cut to its low word changes it at
    all eight seed and policy pairs); LET data flow ignores execution
    times, so there the draws meet only the deadline checks."""
    system = random_system(25, 10)
    duration = 3 * max(task.period for task in system.graph.tasks)
    for task in system.graph.sinks():
        assert_provenance_matches(
            system, task, seed=seed, duration=duration, policy=policy,
            semantics=semantics,
        )


@needs_columnar
def test_split_with_more_threads_than_cpus():
    """Eight threads claiming 24 sims from one counter, five times over,
    write the single-threaded bytes."""
    system = buffered_system(29, 10)
    task = (fused_tasks(system) or system.graph.sinks())[0]
    duration = 6 * max(t.period for t in system.graph.tasks)
    compiled = CompiledScenario(system, task)
    draws = batch_draws(system, 24, 29)
    policy = named_policy("uniform")
    with kernel_threads(1):
        expected = kernel_bytes(compiled, draws, duration, policy)
    with kernel_threads(8):
        for _ in range(5):
            assert kernel_bytes(compiled, draws, duration, policy) == expected


def _blocked_reader():
    """``late`` (high priority) queued behind a 9 ms job of ``hog``.

    Under LET, ``late`` (T = 10 ms, C = 3 ms) meets its deadline at
    offset 0, where it runs first, and misses it at offsets in (0, 2)
    ms, where ``hog`` (released at 0) blocks it until 9 ms.
    """
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task

    graph = CauseEffectGraph()
    graph.add_task(source_task("src", ms(10), ecu="e", priority=0))
    graph.add_task(Task("hog", ms(20), ms(2), ms(2), ecu="e", priority=2))
    graph.add_task(Task("late", ms(10), ms(3), ms(3), ecu="e", priority=1))
    graph.add_channel("src", "hog")
    graph.add_channel("hog", "late")
    built = System.build(graph)
    blocking = built.graph.copy()
    blocking.replace_task(replace(blocking.task("hog"), wcet=ms(9), bcet=ms(9)))
    return System(graph=blocking, response_times=built.response_times)


def _first_error(system, draws, duration, **kwargs):
    """The message of the first sequential simulator run that raises."""
    names = [task.name for task in system.graph.tasks]
    for seed, offsets in draws:
        try:
            Simulator(
                system.with_offsets(dict(zip(names, offsets))), duration,
                seed=seed, **kwargs,
            ).run()
        except ModelError as exc:
            return str(exc)
    raise AssertionError("no run raised")


@needs_columnar
def test_split_reports_the_lowest_let_violation():
    """Sims 3 and 5 of 6 miss deadlines at different instants; every
    thread count reports sim 3's, as the sequential simulator does.
    A violating sim skips its derive without a kernel error (which the
    replay would raise ahead of any LET violation); under ``uniform``
    the sims also carry their MT19937 keys."""
    system = _blocked_reader()
    late = {0: 0, 3: ms(1) + ms(1) // 2, 5: ms(1)}
    draws = [(s, (0, 0, late.get(s, 0))) for s in range(6)]
    duration = ms(100)
    compiled = CompiledScenario(system, "late", semantics="let")
    for policy in (wcet_policy, uniform_policy):
        expected = _first_error(
            system, draws, duration, policy=policy, semantics="let"
        )
        assert "late#0" in expected
        for threads in THREAD_COUNTS:
            with kernel_threads(threads), pytest.raises(ModelError) as err:
                columnar.run_columnar(compiled, draws, duration, 0, policy)
            assert str(err.value) == expected, (policy, threads)


@needs_columnar
def test_split_reports_the_lowest_broken_sim():
    """Job slots one short per task: the sims whose reader releases a
    job at the horizon (offset 0) overflow, and the lowest is named."""
    system = _blocked_reader()
    duration = ms(100)
    compiled = CompiledScenario(system, "late")
    plan = columnar._Plan(compiled, duration)
    plan.job_cap = plan.job_cap - (plan.job_base >= 0)
    draws = [(s, (0, ms(5), 0 if s in (3, 5) else ms(5))) for s in range(6)]
    offs = np.array([offsets for _seed, offsets in draws], dtype=np.int64)
    for threads in THREAD_COUNTS:
        with kernel_threads(threads), pytest.raises(
            ModelError, match=r"failed in replication 3 \(internal invariant"
        ):
            columnar._replay(compiled, plan, draws, offs, duration, wcet_policy)


@needs_columnar
def test_release_table_overrun_is_reported():
    """An offset far past its period (outside the kernel's domain)
    would fill the release table past its rows: the sim breaks instead
    of writing past them."""
    system = _blocked_reader()
    duration = ms(200)
    compiled = CompiledScenario(system, "late")
    plan = columnar._Plan(compiled, duration)
    assert plan.hyper == ms(20)
    draws = [(s, (0, 0, ms(150) if s == 2 else 0)) for s in range(4)]
    offs = np.array([offsets for _seed, offsets in draws], dtype=np.int64)
    for threads in THREAD_COUNTS:
        with kernel_threads(threads), pytest.raises(
            ModelError, match=r"failed in replication 2 \(internal invariant"
        ):
            columnar._replay(compiled, plan, draws, offs, duration, wcet_policy)


@needs_columnar
def test_failed_scratch_allocation_is_reported_as_such():
    """An allocation failure names no replication."""
    system = _blocked_reader()
    duration = ms(100)
    compiled = CompiledScenario(system, "late")
    plan = columnar._Plan(compiled, duration)
    draws = [(1, (0, 0, 0)), (2, (0, 0, ms(5)))]
    offs = np.array([offsets for _seed, offsets in draws], dtype=np.int64)
    plan.arena = 2**62  # stamps per sim: no allocator can serve it
    for threads in THREAD_COUNTS:
        with kernel_threads(threads), pytest.raises(ModelError) as err:
            columnar._replay(compiled, plan, draws, offs, duration, wcet_policy)
        assert "could not allocate its scratch memory" in str(err.value)
        assert "replication" not in str(err.value)


def _live_threads() -> int:
    return len(os.listdir("/proc/self/task"))


@needs_columnar
@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)
def test_kernel_call_leaves_no_thread_behind():
    system, sink = _scenario(12, 10)
    before = _live_threads()
    with kernel_threads(3):
        _run(system, sink, sims=6, duration=10**9, warmup=0, seed=1,
             policy="uniform")
    # A joined thread leaves the task list as it exits; allow it that.
    for _ in range(100):
        if _live_threads() == before:
            break
        time.sleep(0.001)
    assert _live_threads() == before


def test_default_thread_budget_is_the_process_affinity():
    code = (
        "import os; from repro.sim.ckernel import thread_budget; "
        "print(thread_budget(), len(os.sched_getaffinity(0)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    ).stdout.split()
    assert out[0] == out[1]


def test_object_name_hashes_the_compile_flags(monkeypatch):
    """A flag change alone never loads an object built without it."""
    source = ckernel._SOURCE.read_bytes()
    name = ckernel._object_name(source)
    assert name == ckernel._object_name(source)
    monkeypatch.setattr(ckernel, "CFLAGS", ckernel.CFLAGS[:-1])
    assert ckernel._object_name(source) != name


def test_fresh_build_prunes_superseded_objects(tmp_path, monkeypatch):
    """A fresh build removes the cache's older kernel objects; a cache
    hit, in-progress ``.tmp`` builds and unrelated files stay."""
    if not ckernel._compilers():
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    monkeypatch.setattr(ckernel, "_STATE", None)
    stale = [tmp_path / "ckernel-abi4-0123456789abcdef.so",
             tmp_path / "ckernel-abi5-fedcba9876543210.so"]
    kept = [tmp_path / ".ckernel-abi5-fedcba9876543210.so.7.tmp",
            tmp_path / "notes.txt"]
    for path in stale + kept:
        path.write_bytes(b"")
    kernel, reason = ckernel.load_kernel()
    assert kernel is not None, reason
    assert kernel.path.parent == tmp_path
    assert not any(path.exists() for path in stale)
    assert all(path.exists() for path in kept)
    late = tmp_path / "ckernel-abi5-0000000000000000.so"
    late.write_bytes(b"")
    ckernel.reset_kernel_state()
    kernel, reason = ckernel.load_kernel()
    assert kernel is not None, reason
    assert late.exists()
    assert sorted(p.name for p in tmp_path.glob("ckernel-abi*.so")) == sorted(
        [late.name, kernel.path.name]
    )


def test_unbatchable_policy_falls_back_to_simulator():
    """Per-task policies (fault injection) run on the simulator."""
    system, sink = _scenario(31, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    hog = next(t.name for t in system.graph.tasks if not t.is_instantaneous)
    policy = per_task_policy({hog: wcet_policy})
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy=policy,
    )
    assert result.engine == "simulator"
    assert "not a batchable named policy" in (result.reason or "")
    expected = _sequential(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy=policy,
    )
    assert result.disparities == expected


def test_duplicate_priorities_fall_back_to_simulator():
    """Ineligible scenarios reach the simulator, with the same results
    and the failed rule as the reason."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task

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
        system, "b", sims=3, duration=ms(200), warmup=ms(40), seed=3,
        policy="uniform",
    )
    assert auto.disparities == expected


def test_unknown_engine_rejected():
    """The input alone picks the tier: no entry takes an ``engine``."""
    system, sink = _scenario(4, 6)
    session = AnalysisSession(system)
    entries = (
        partial(run_batch, system),
        session.observed_disparity,
        session.observed_batch,
        session.observed_stats,
    )
    for entry in entries:
        with pytest.raises(TypeError, match="engine"):
            entry(sink, sims=1, duration=10**9, engine="simulator")


@needs_columnar
def test_let_violation_parity_across_engines():
    """Both tiers raise the identical LET-violation ModelError."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task

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
    with pytest.raises(ModelError) as columnar:
        _run(
            overloaded, "late", sims=3, duration=ms(100), warmup=0,
            seed=9, policy="uniform", semantics="let",
        )
    with pytest.raises(ModelError) as simulator:
        _sequential(
            overloaded, "late", sims=3, duration=ms(100), warmup=0,
            seed=9, policy="uniform", semantics="let",
        )
    assert "LET violation" in str(columnar.value)
    assert str(columnar.value) == str(simulator.value)


def test_no_ckernel_falls_back_to_simulator(monkeypatch):
    from repro.sim import columnar as columnar_mod

    system, sink = _scenario(78, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    reference = _sequential(
        system, sink, sims=3, duration=duration, warmup=0, seed=6,
        policy="uniform",
    )
    monkeypatch.setattr(
        columnar_mod.ckernel, "load_kernel", lambda: (None, "cc missing")
    )
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=6,
        policy="uniform",
    )
    assert result.engine == "simulator"
    assert "replay kernel unavailable: cc missing" in (result.reason or "")
    assert result.disparities == reference


def test_build_removes_temp_object_when_compiler_launch_fails(
    tmp_path, monkeypatch
):
    """A compiler that times out leaves no ``.tmp`` object behind."""
    launched = []

    def timed_out(cmd, **kwargs):
        out = Path(cmd[cmd.index("-o") + 1])
        out.write_bytes(b"partial object")
        launched.append(out)
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(ckernel, "_compilers", lambda: ["cc"])
    monkeypatch.setattr(ckernel.subprocess, "run", timed_out)
    target = tmp_path / "ckernel-test.so"
    reason = ckernel._build(ckernel._SOURCE, target)
    assert launched and "timed out" in (reason or "")
    assert [p.name for p in tmp_path.iterdir()] == []

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


def test_jobs_campaign_after_a_threaded_call_is_fork_safe():
    """A ``--jobs 2`` pool forks after a threaded kernel call in the
    parent; its workers (2 threads each) give the serial CSV bytes."""
    from repro.experiments.config import Fig6ABConfig
    from repro.experiments.fig6 import run_fig6_ab
    from repro.experiments.reporting import csv_ab
    from repro.units import seconds

    config = Fig6ABConfig(
        x_values=(5, 7),
        graphs_per_point=2,
        sims_per_graph=3,
        sim_duration=seconds(1),
        warmup=seconds(0.5),
        seed=11,
    )
    serial = csv_ab(run_fig6_ab(config))
    system, sink = _scenario(12, 10)
    with kernel_threads(4):
        _run(system, sink, sims=6, duration=10**9, warmup=0, seed=1,
             policy="uniform")
        parallel = csv_ab(run_fig6_ab(config, jobs=2))
    assert parallel == serial
