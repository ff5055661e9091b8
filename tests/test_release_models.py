"""Non-periodic release models: tables, fault masks, tiers, regimes.

Covers the bounded-jitter and sporadic release models end to end:

* the per-``(seed, task)`` release tables of :mod:`repro.sim.release`
  (determinism, name-keyed streams, job-count bounds, fault masks);
* :class:`FaultPlan` window normalization and the half-open boundary
  rule — a release at exactly ``DropoutWindow.end`` survives in every
  simulation tier, and :class:`StalenessMonitor` ages agree at the
  boundary;
* the differential identity: the columnar C kernel versus the general
  event loop (``Simulator``, the semantic reference), under implicit
  and LET semantics, with zero-BCET cascades and fault plans in the
  mix;
* the analysis-regime gate: Theorems 1-3 / Lemmas 4-6 raise a
  structured :class:`RegimeError` on non-periodic systems, the LET
  backward bounds widen by the maximum release gap, and the
  response-time analysis charges jitter/sporadic interference.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis_regime import (
    RegimeError,
    max_release_gap,
    min_release_gap,
    regime_of,
)
from repro.gen import generate_random_scenario
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ReleaseModel, Task, source_task
from repro.sim.batch import run_batch
from repro.sim.engine import Simulator
from repro.sim.exec_time import bcet_policy, uniform_policy, wcet_policy
from repro.sim.faults import DropoutWindow, FaultPlan, StalenessMonitor
from repro.sim.metrics import JobTableMonitor
from repro.sim.release import (
    kept_mask,
    max_jobs,
    needs_tables,
    release_seed,
    release_table,
    split_kept,
)
from repro.units import ms
from tests.tiers import (
    assert_split_invariant,
    assert_provenance_matches,
    assert_tiers_match,
    buffered_system,
    fused_tasks,
    simulator_disparities,
)


# ---------------------------------------------------------------------------
# Release tables


def _task(name="t", period=ms(10), release=None, offset=0):
    return Task(
        name,
        period,
        ms(1),
        ms(1),
        ecu="e",
        priority=1,
        offset=offset,
        release_model=release or ReleaseModel.periodic(),
    )


class TestReleaseTables:
    def test_periodic_table_needs_no_seed(self):
        task = _task(offset=ms(2))
        table = release_table(task, None, ms(52))
        assert table == [ms(2), ms(12), ms(22), ms(32), ms(42), ms(52)]

    def test_nonperiodic_requires_seed(self):
        task = _task(release=ReleaseModel.jittered(ms(2)))
        with pytest.raises(ValueError, match="seed"):
            release_table(task, None, ms(100))

    def test_jitter_table_shape(self):
        jmax = ms(3)
        task = _task(release=ReleaseModel.jittered(jmax), offset=ms(1))
        table = release_table(task, 42, ms(200))
        assert table == sorted(table)
        assert len(table) == len(set(table))
        for k, at in enumerate(table):
            base = ms(1) + k * task.period
            assert base <= at <= base + jmax
            assert at <= ms(200)

    def test_sporadic_table_shape(self):
        task = _task(release=ReleaseModel.sporadic(ms(4), ms(9)), offset=ms(2))
        table = release_table(task, 7, ms(500))
        assert table[0] == ms(2)
        for prev, cur in zip(table, table[1:]):
            assert ms(4) <= cur - prev <= ms(9)
        assert table[-1] <= ms(500)

    def test_tables_are_deterministic(self):
        task = _task(release=ReleaseModel.sporadic(ms(4), ms(9)))
        assert release_table(task, 5, ms(400)) == release_table(task, 5, ms(400))
        assert release_table(task, 5, ms(400)) != release_table(task, 6, ms(400))

    def test_stream_is_keyed_on_task_name(self):
        # Same parameters, different names: independent streams.
        a = _task(name="a", release=ReleaseModel.jittered(ms(4)))
        b = _task(name="b", release=ReleaseModel.jittered(ms(4)))
        assert release_table(a, 11, ms(900)) != release_table(b, 11, ms(900))
        assert release_seed(11, "a") != release_seed(11, "b")
        # Offset override == the same task with its offset edited: the
        # stream ignores the offset, so candidate-vector evaluation and
        # structural offset edits draw identical jitters.
        edited = replace(a, offset=ms(3))
        assert release_table(a, 11, ms(900), offset=ms(3)) == release_table(
            edited, 11, ms(900)
        )

    def test_max_jobs_bounds_table_length(self):
        for model in (
            ReleaseModel.periodic(),
            ReleaseModel.jittered(ms(3)),
            ReleaseModel.sporadic(ms(4), ms(9)),
        ):
            task = _task(release=model)
            for seed in (0, 1, 2):
                table = release_table(task, seed, ms(333))
                assert len(table) <= max_jobs(task, ms(333))

    def test_needs_tables(self):
        periodic = [_task(name="p")]
        jittered = [_task(name="j", release=ReleaseModel.jittered(ms(1)))]
        assert not needs_tables(periodic)
        assert needs_tables(jittered)
        assert not needs_tables(periodic, FaultPlan())  # empty plan
        assert needs_tables(periodic, FaultPlan().drop("p", 0, ms(1)))


# ---------------------------------------------------------------------------
# FaultPlan normalization (regression: overlapping windows used to be
# stored as-given, making masks and signatures order-dependent)


class TestFaultPlanNormalization:
    def test_overlapping_windows_merge(self):
        plan = FaultPlan().drop("t", 10, 30).drop("t", 20, 50)
        assert plan.windows_for("t") == (DropoutWindow(10, 50),)

    def test_adjacent_windows_merge(self):
        plan = FaultPlan().drop("t", 10, 20).drop("t", 20, 30)
        assert plan.windows_for("t") == (DropoutWindow(10, 30),)

    def test_duplicate_windows_collapse(self):
        plan = FaultPlan().drop("t", 10, 20).drop("t", 10, 20)
        assert plan.windows_for("t") == (DropoutWindow(10, 20),)

    def test_contained_window_is_absorbed(self):
        plan = FaultPlan().drop("t", 10, 100).drop("t", 30, 40)
        assert plan.windows_for("t") == (DropoutWindow(10, 100),)

    def test_disjoint_windows_sorted(self):
        plan = FaultPlan().drop("t", 50, 60).drop("t", 10, 20)
        assert plan.windows_for("t") == (
            DropoutWindow(10, 20),
            DropoutWindow(50, 60),
        )

    def test_insertion_order_never_changes_shape_or_signature(self):
        windows = [(10, 30), (20, 50), (60, 70), (5, 12)]
        plans = []
        for ordering in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
            plan = FaultPlan()
            for i in ordering:
                plan.drop("t", *windows[i])
            plans.append(plan)
        shapes = {p.windows_for("t") for p in plans}
        assert len(shapes) == 1
        assert plans[0].windows_for("t") == (
            DropoutWindow(5, 50),
            DropoutWindow(60, 70),
        )

    def test_windows_for_unknown_task_is_empty(self):
        assert FaultPlan().windows_for("ghost") == ()

    def test_is_dropped_matches_normalized_windows(self):
        plan = FaultPlan().drop("t", 10, 30).drop("t", 20, 50)
        assert plan.is_dropped("t", 10)
        assert plan.is_dropped("t", 49)
        assert not plan.is_dropped("t", 50)  # half-open after merge
        assert not plan.is_dropped("t", 9)


# ---------------------------------------------------------------------------
# Boundary semantics: a release at exactly ``window.end`` survives


def _fusion_system() -> System:
    graph = CauseEffectGraph()
    graph.add_task(source_task("cam", ms(10), ecu="e", priority=0))
    graph.add_task(source_task("lidar", ms(30), ecu="e", priority=1, offset=ms(1)))
    graph.add_task(Task("fuse", ms(30), ms(2), ms(1), ecu="e", priority=2))
    graph.add_channel("cam", "fuse")
    graph.add_channel("lidar", "fuse")
    return System.build(graph)


class TestBoundarySemantics:
    # cam releases at 0, 10ms, 20ms, ...; a window ending at exactly
    # ms(200) must keep the release at ms(200).

    def test_kept_mask_is_half_open(self):
        plan = FaultPlan().drop("cam", ms(100), ms(200))
        table = [ms(90), ms(100), ms(190), ms(200), ms(210)]
        assert kept_mask(plan, "cam", table) == [True, False, False, True, True]
        kept, dropped = split_kept(plan, "cam", table)
        assert kept == [ms(90), ms(200), ms(210)]
        assert dropped == 2

    def test_release_at_window_end_not_suppressed(self):
        plan = FaultPlan().drop("cam", ms(100), ms(200))
        table = JobTableMonitor()
        Simulator(
            _fusion_system(),
            ms(300),
            seed=3,
            faults=plan,
            policy=wcet_policy,
            observers=[table],
        ).run()
        releases = {j.release for j in table.by_task("cam")}
        assert ms(200) in releases
        assert ms(90) in releases
        assert not any(ms(100) <= r < ms(200) for r in releases)

    def test_boundary_identical_across_loops_and_batch_tiers(self):
        system = _fusion_system()
        plan = FaultPlan().drop("cam", ms(100), ms(200))
        res = Simulator(
            system, ms(300), seed=9, faults=plan, policy=wcet_policy
        ).run()
        # Exactly 10 suppressed cam releases: 100, 110, ..., 190 —
        # NOT the one at 200.
        assert res.stats.jobs_dropped == 10
        # At the system's own offsets the columnar tier reports the
        # simulator's disparity.
        assert_provenance_matches(
            system, "fuse", seed=9, duration=ms(300), policy=wcet_policy,
            faults=plan,
        )
        # The batch runs on the columnar tier and agrees with the
        # simulator replication for replication.
        batch = run_batch(
            system,
            "fuse",
            sims=4,
            duration=ms(300),
            rng=random.Random(5),
            policy=wcet_policy,
            faults=plan,
        )
        assert batch.engine == "columnar", batch.reason
        assert batch.disparities == simulator_disparities(
            system,
            ["fuse"],
            sims=4,
            duration=ms(300),
            warmup=0,
            seed=5,
            policy=wcet_policy,
            faults=plan,
        )["fuse"]

    def test_staleness_ages_agree_at_boundary(self):
        # Ending the window exactly at a release must restore freshness
        # just like ending it one instant earlier: both keep the
        # release at ms(200), so the observed max ages are identical.
        system = _fusion_system()
        ages = {}
        for label, end in (("at-release", ms(200)), ("just-before", ms(200) - 1)):
            monitor = StalenessMonitor(["fuse"])
            Simulator(
                system,
                ms(450),
                seed=3,
                faults=FaultPlan().drop("cam", ms(100), end),
                policy=wcet_policy,
                observers=[monitor],
            ).run()
            ages[label] = monitor.age_for("fuse", "cam")
        assert ages["at-release"] == ages["just-before"]


# ---------------------------------------------------------------------------
# Differential suite: all tiers versus the general event loop


def _with_release_models(system: System, seed: int, *, zero_bcet=False) -> System:
    """Reassign release models task by task from a dedicated RNG.

    Roughly a third of tasks each become jittered / sporadic / stay
    periodic, so mixed systems are the common case; optionally some
    compute tasks drop to BCET 0 to force same-instant cascades.
    """
    rng = random.Random(seed)
    graph = system.graph.copy()
    for task in system.graph.tasks:
        u = rng.random()
        if u < 1 / 3:
            jitter = max(1, task.period // rng.choice((3, 5, 8)))
            model = ReleaseModel.jittered(min(task.period - 1, jitter))
        elif u < 2 / 3:
            lo = max(1, task.period // 2)
            hi = task.period + task.period // 2
            model = ReleaseModel.sporadic(lo, hi)
        else:
            model = ReleaseModel.periodic()
        out = task.with_release_model(model)
        if zero_bcet and not task.is_instantaneous and rng.random() < 0.5:
            out = replace(out, bcet=0)
        graph.replace_task(out)
    return System(graph=graph, response_times=system.response_times)


def _assert_loops_agree(system, duration, seed, *, semantics, faults=None,
                        policy=uniform_policy):
    """The columnar tier reproduces the general loop's disparities."""
    for task in fused_tasks(system) or system.graph.sinks():
        assert_provenance_matches(
            system, task, seed=seed, duration=duration, policy=policy,
            semantics=semantics, faults=faults,
        )


def _assert_batch_matches_general(system, sink, *, duration, seed, semantics,
                                  faults=None, policy="uniform"):
    from repro.sim.exec_time import named_policy

    assert_tiers_match(
        system,
        sims=3,
        duration=duration,
        seed=seed,
        policy=named_policy(policy),
        semantics=semantics,
        faults=faults,
        tasks=[sink],
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_fast_loop_matches_general_nonperiodic(seed, n_tasks, semantics):
    scenario = generate_random_scenario(n_tasks, random.Random(seed))
    system = _with_release_models(scenario.system, seed ^ 0xC0FFEE)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_loops_agree(system, duration, seed, semantics=semantics)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fast_loop_matches_general_zero_bcet_cascades(seed):
    scenario = generate_random_scenario(8, random.Random(seed))
    system = _with_release_models(scenario.system, seed ^ 0xBEE, zero_bcet=True)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_loops_agree(system, duration, seed, semantics="implicit",
                        policy=bcet_policy)
    _assert_loops_agree(system, duration, seed, semantics="implicit")


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_fast_loop_matches_general_faulted_nonperiodic(seed, semantics):
    scenario = generate_random_scenario(7, random.Random(seed))
    system = _with_release_models(scenario.system, seed ^ 0xFA017)
    duration = 3 * max(task.period for task in system.graph.tasks)
    rng = random.Random(seed ^ 0xD0)
    plan = FaultPlan()
    victims = rng.sample([t.name for t in system.graph.tasks], 2)
    for name in victims:
        start = rng.randrange(duration // 2)
        plan.drop(name, start, start + rng.randrange(1, duration // 3))
    _assert_loops_agree(system, duration, seed, semantics=semantics, faults=plan)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_batch_tiers_match_simulator_nonperiodic(seed, semantics):
    scenario = generate_random_scenario(7, random.Random(seed))
    system = _with_release_models(scenario.system, seed ^ 0x7AB)
    duration = 2 * max(task.period for task in system.graph.tasks)
    _assert_batch_matches_general(
        system, scenario.sink, duration=duration, seed=seed, semantics=semantics
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_batch_tiers_match_simulator_faulted_nonperiodic(seed):
    scenario = generate_random_scenario(7, random.Random(seed))
    system = _with_release_models(scenario.system, seed ^ 0x9A1)
    duration = 2 * max(task.period for task in system.graph.tasks)
    rng = random.Random(seed ^ 0x33)
    name = rng.choice([t.name for t in system.graph.tasks])
    start = rng.randrange(duration // 2)
    plan = FaultPlan().drop(name, start, start + duration // 4 + 1)
    _assert_batch_matches_general(
        system, scenario.sink, duration=duration, seed=seed,
        semantics="implicit", faults=plan, policy="wcet",
    )



@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_batch_tiers_match_simulator_faulted_jittered_buffered(seed, semantics):
    """Drawn release tables, fault masks and FIFO capacities 1-4 at once."""
    system = _with_release_models(buffered_system(seed, 7), seed ^ 0xB0F)
    duration = 3 * max(task.period for task in system.graph.tasks)
    rng = random.Random(seed ^ 0x5EED)
    plan = FaultPlan()
    for name in rng.sample([t.name for t in system.graph.tasks], 2):
        start = rng.randrange(duration // 2)
        plan.drop(name, start, start + rng.randrange(1, duration // 3))
    assert_tiers_match(
        system,
        sims=3,
        duration=duration,
        seed=seed,
        semantics=semantics,
        faults=plan,
        tasks=fused_tasks(system) or system.graph.sinks(),
    )

@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    semantics=st.sampled_from(["implicit", "let"]),
    sims=st.sampled_from([1, 4]),
)
def test_split_is_byte_identical_in_table_mode(seed, semantics, sims):
    """Drawn release tables and fault masks, split across 1-3 threads."""
    system = _with_release_models(buffered_system(seed, 7), seed ^ 0x7AB)
    duration = 3 * max(task.period for task in system.graph.tasks)
    rng = random.Random(seed ^ 0x5EED)
    plan = FaultPlan()
    for name in rng.sample([t.name for t in system.graph.tasks], 2):
        start = rng.randrange(duration // 2)
        plan.drop(name, start, start + rng.randrange(1, duration // 3))
    assert_split_invariant(
        system,
        (fused_tasks(system) or system.graph.sinks())[0],
        sims=sims,
        duration=duration,
        seed=seed,
        semantics=semantics,
        faults=plan,
    )


# ---------------------------------------------------------------------------
# Analysis regimes


def _jittered_system() -> System:
    system = _fusion_system()
    graph = system.graph.copy()
    cam = graph.task("cam")
    graph.replace_task(cam.with_release_model(ReleaseModel.jittered(ms(2))))
    return System.build(graph)


def _sporadic_system() -> System:
    system = _fusion_system()
    graph = system.graph.copy()
    lidar = graph.task("lidar")
    graph.replace_task(
        lidar.with_release_model(ReleaseModel.sporadic(ms(20), ms(45)))
    )
    return System.build(graph)


class TestAnalysisRegime:
    def test_regime_kinds(self):
        assert regime_of(_fusion_system()).kind == "periodic"
        assert regime_of(_jittered_system()).kind == "jitter"
        assert regime_of(_sporadic_system()).kind == "sporadic"
        mixed = _jittered_system().graph.copy()
        mixed.replace_task(
            mixed.task("lidar").with_release_model(
                ReleaseModel.sporadic(ms(20), ms(45))
            )
        )
        assert (
            regime_of(System.build(mixed)).kind == "mixed"
        )

    def test_release_gaps(self):
        periodic = _task(period=ms(10))
        assert max_release_gap(periodic) == ms(10)
        assert min_release_gap(periodic) == ms(10)
        jittered = _task(period=ms(10), release=ReleaseModel.jittered(ms(2)))
        assert max_release_gap(jittered) == ms(12)
        assert min_release_gap(jittered) == ms(8)
        sporadic = _task(period=ms(10), release=ReleaseModel.sporadic(ms(4), ms(9)))
        assert max_release_gap(sporadic) == ms(9)
        assert min_release_gap(sporadic) == ms(4)

    def test_theorems_gated_with_structured_error(self):
        from repro.core.disparity import worst_case_disparity

        system = _jittered_system()
        with pytest.raises(RegimeError) as info:
            worst_case_disparity(system, "fuse")
        assert info.value.regime.kind == "jitter"
        assert ("cam", ReleaseModel.jittered(ms(2)).describe()) in (
            info.value.regime.nonperiodic
        )
        assert "Theorems 1-3" in info.value.analysis
        assert "simulation-only" in str(info.value)

    def test_lemmas_gated(self):
        from repro.buffers.bounds import buffered_backward_bounds
        from repro.chains.backward import bcbt_lower, wcbt_upper
        from repro.model.chain import Chain

        system = _sporadic_system()
        chain = Chain(("lidar", "fuse"))
        for call in (
            lambda: wcbt_upper(chain, system),
            lambda: bcbt_lower(chain, system),
            lambda: buffered_backward_bounds(chain, system, 2),
        ):
            with pytest.raises(RegimeError) as info:
                call()
            assert info.value.regime.kind == "sporadic"

    def test_session_regime_and_simulation_still_work(self):
        from repro.api import AnalysisSession

        session = AnalysisSession(_jittered_system())
        assert session.regime.kind == "jitter"
        assert not session.regime.analytical
        with pytest.raises(RegimeError):
            session.worst_case("fuse")
        observed = session.observed_disparity(
            "fuse", sims=2, duration=ms(300), seed=4
        )
        assert observed >= 0

    def test_let_bounds_widen_by_max_release_gap(self):
        from repro.let.analysis import bcbt_lower_let, wcbt_upper_let
        from repro.model.chain import Chain

        chain = Chain(("cam", "fuse"))
        periodic_w = wcbt_upper_let(chain, _fusion_system())
        jittered_w = wcbt_upper_let(chain, _jittered_system())
        # cam is the (source) producer of the only hop: the bound
        # widens by exactly its jitter.
        assert jittered_w == periodic_w + ms(2)
        # The lower bound survives unchanged.
        assert bcbt_lower_let(chain, _jittered_system()) == bcbt_lower_let(
            chain, _fusion_system()
        )

    def test_rta_charges_jitter_and_sporadic_interference(self):
        from repro.sched.response_time import response_time_np_fp

        def fuse_r(interferer_model):
            # The lower-priority blocker stretches the start-time busy
            # window past the interferer's minimum gap, so denser
            # releases actually land inside it.
            graph = CauseEffectGraph()
            graph.add_task(
                Task("hp", ms(10), ms(3), ms(1), ecu="e", priority=0,
                     release_model=interferer_model)
            )
            graph.add_task(Task("fuse", ms(40), ms(3), ms(1), ecu="e", priority=1))
            graph.add_task(Task("lp", ms(40), ms(6), ms(1), ecu="e", priority=5))
            tasks = list(graph.tasks)
            return response_time_np_fp(graph.task("fuse"), tasks)

        base = fuse_r(ReleaseModel.periodic())
        jittered = fuse_r(ReleaseModel.jittered(ms(9)))
        sporadic = fuse_r(ReleaseModel.sporadic(ms(4), ms(10)))
        # Jitter shifts the interferer's grid maximally early; a
        # sporadic interferer releases every min_gap inside the window.
        assert jittered > base
        assert sporadic > base
