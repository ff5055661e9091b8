"""Tests for steady-state measurement and offset search."""

import random

import pytest

from repro.core.disparity import disparity_bound
from repro.exact import (
    maximize_disparity_offsets,
    steady_state_disparity,
    warmup_horizon,
)
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task, source_task
from repro.sim.exec_time import wcet_policy
from repro.units import ms


def fusion_system(lidar_offset_ms: int = 0) -> System:
    graph = CauseEffectGraph()
    graph.add_task(source_task("cam", ms(10), ecu="e", priority=0))
    graph.add_task(
        source_task("lidar", ms(30), ecu="e", priority=1, offset=ms(lidar_offset_ms))
    )
    graph.add_task(Task("fuse", ms(30), ms(2), ms(2), ecu="e", priority=2))
    graph.add_channel("cam", "fuse")
    graph.add_channel("lidar", "fuse")
    return System.build(graph)


class TestSteadyState:
    def test_synchronous_offsets_zero_disparity(self):
        # All-zero offsets, harmonic periods: perfectly aligned reads.
        result = steady_state_disparity(fusion_system(0), "fuse")
        assert result.converged
        assert result.disparity == 0
        assert result.hyperperiod == ms(30)

    def test_offset_creates_disparity(self):
        result = steady_state_disparity(fusion_system(1), "fuse")
        assert result.converged
        # fuse reads a lidar sample 29 ms older than alignment.
        assert result.disparity == ms(29)

    def test_deterministic(self):
        a = steady_state_disparity(fusion_system(7), "fuse")
        b = steady_state_disparity(fusion_system(7), "fuse")
        assert a == b

    def test_below_analytic_bound(self):
        system = fusion_system(13)
        bound = disparity_bound(system, "fuse")
        result = steady_state_disparity(system, "fuse")
        assert result.disparity <= bound

    def test_max_windows_validated(self):
        with pytest.raises(ModelError):
            steady_state_disparity(fusion_system(), "fuse", max_windows=1)

    def test_warmup_horizon_covers_offsets_and_buffers(self):
        system = fusion_system(25).with_channel_capacity("cam", "fuse", 4)
        horizon = warmup_horizon(system)
        assert horizon >= ms(25)  # offset
        assert horizon >= 3 * ms(10)  # buffer fill


class TestOffsetSearch:
    def test_beats_or_matches_random_draws(self):
        # Aggregated over several seeds: a budget-matched random
        # baseline must not beat the coordinate ascent in total
        # (individual seeds are noisy on a system this small).
        system = fusion_system(0)
        searched_total = 0
        baseline_total = 0
        for seed in range(4):
            searched = maximize_disparity_offsets(
                system,
                "fuse",
                random.Random(seed),
                restarts=2,
                sweeps=2,
                candidates_per_task=5,
            )
            searched_total += searched.disparity
            baseline_rng = random.Random(seed)
            baseline = 0
            for _ in range(searched.evaluations):
                offsets = {
                    t.name: baseline_rng.randint(1, t.period)
                    for t in system.graph.tasks
                }
                graph = system.graph.copy()
                for name, off in offsets.items():
                    graph.replace_task(graph.task(name).with_offset(off))
                variant = System(
                    graph=graph, response_times=system.response_times
                )
                value = steady_state_disparity(variant, "fuse").disparity
                baseline = max(baseline, value)
            baseline_total += baseline
        assert searched_total >= baseline_total

    def test_search_result_sound(self):
        system = fusion_system(0)
        bound = disparity_bound(system, "fuse")
        result = maximize_disparity_offsets(
            system, "fuse", random.Random(1), restarts=1, sweeps=1,
            candidates_per_task=2,
        )
        assert result.disparity <= bound
        # The searched offsets actually reproduce the reported value.
        graph = system.graph.copy()
        for name, off in result.offsets.items():
            graph.replace_task(graph.task(name).with_offset(off))
        variant = System(graph=graph, response_times=system.response_times)
        check = steady_state_disparity(variant, "fuse")
        assert check.disparity == result.disparity

    def test_finds_near_worst_case_on_small_system(self):
        # For the 2-sensor fusion the analytic bound is T(lidar)+R-ish;
        # the search should reach a large fraction of it.
        system = fusion_system(0)
        bound = disparity_bound(system, "fuse")
        result = maximize_disparity_offsets(
            system, "fuse", random.Random(7), restarts=3, sweeps=2,
            candidates_per_task=5,
        )
        assert result.disparity >= 0.75 * bound

    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            maximize_disparity_offsets(
                fusion_system(), "fuse", random.Random(0), restarts=0
            )
        with pytest.raises(ModelError):
            maximize_disparity_offsets(
                fusion_system(), "fuse", random.Random(0), max_windows=1
            )

    def test_jobs_invariant(self):
        # Restarts carry their own derived seeds, so fanning them over
        # worker processes must not change anything.
        system = fusion_system(0)
        serial = maximize_disparity_offsets(
            system, "fuse", random.Random(11), restarts=3, sweeps=1,
            candidates_per_task=2,
        )
        parallel = maximize_disparity_offsets(
            system, "fuse", random.Random(11), restarts=3, sweeps=1,
            candidates_per_task=2, jobs=2,
        )
        assert serial == parallel


class TestCompiledObjective:
    """The compiled steady-state objective must equal the reference."""

    def test_matches_reference_on_random_scenarios(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.exact.search import _CompiledObjective
        from repro.gen import generate_random_scenario

        @settings(max_examples=20, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            n_tasks=st.integers(min_value=4, max_value=9),
            max_windows=st.integers(min_value=2, max_value=5),
        )
        def check(seed, n_tasks, max_windows):
            rng = random.Random(seed)
            scenario = generate_random_scenario(n_tasks, rng)
            system, sink = scenario.system, scenario.sink
            objective = _CompiledObjective(
                system, sink, wcet_policy, max_windows
            )
            offsets = {
                t.name: rng.randint(1, t.period)
                for t in system.graph.tasks
            }
            expected = steady_state_disparity(
                system.with_offsets(offsets),
                sink,
                policy=wcet_policy,
                max_windows=max_windows,
            ).disparity
            assert objective.value(offsets) == expected

        check()

    def test_matches_reference_on_fusion(self):
        from repro.exact.search import _CompiledObjective

        system = fusion_system(0)
        objective = _CompiledObjective(system, "fuse", wcet_policy, 4)
        rng = random.Random(5)
        for _ in range(25):
            offsets = {
                t.name: rng.randint(1, t.period)
                for t in system.graph.tasks
            }
            expected = steady_state_disparity(
                system.with_offsets(offsets),
                "fuse",
                policy=wcet_policy,
                max_windows=4,
            ).disparity
            assert objective.value(offsets) == expected


    def test_jittered_system_falls_back_to_reference(self):
        """Release tables leave the windowed probe's domain; the
        objective then evaluates through the reference and agrees."""
        from repro.exact.search import _CompiledObjective
        from repro.model.task import ReleaseModel

        base = fusion_system(0)
        graph = base.graph.copy()
        cam = graph.task("cam")
        graph.replace_task(
            cam.with_release_model(ReleaseModel.jittered(cam.period // 4))
        )
        system = System(graph=graph, response_times=base.response_times)
        objective = _CompiledObjective(system, "fuse", wcet_policy, 4)
        assert objective.compiled.eligible
        assert not objective.probe_eligible
        rng = random.Random(9)
        for _ in range(5):
            offsets = {
                t.name: rng.randint(1, t.period)
                for t in system.graph.tasks
            }
            expected = steady_state_disparity(
                system.with_offsets(offsets),
                "fuse",
                policy=wcet_policy,
                max_windows=4,
            ).disparity
            assert objective.value(offsets) == expected

    def test_windowed_probe_rejects_let_and_release_tables(self):
        from repro.model.task import ReleaseModel
        from repro.sim.batch import CompiledScenario
        from repro.sim.columnar import run_windowed
        from repro.sim.faults import FaultPlan
        from tests.tiers import require_columnar

        require_columnar()
        system = fusion_system(0)
        offsets = tuple(t.period for t in system.graph.tasks)
        horizon = system.graph.hyperperiod()
        graph = system.graph.copy()
        cam = graph.task("cam")
        graph.replace_task(
            cam.with_release_model(ReleaseModel.jittered(cam.period // 4))
        )
        jittered = System(graph=graph, response_times=system.response_times)
        refused = (
            CompiledScenario(system, "fuse", semantics="let"),
            CompiledScenario(jittered, "fuse"),
            CompiledScenario(
                system, "fuse", faults=FaultPlan().drop("cam", 0, ms(20))
            ),
        )

        def probe(compiled):
            return run_windowed(
                compiled, [(0, offsets)], [0], [horizon], horizon, horizon,
                1, wcet_policy,
            )

        for compiled in refused:
            with pytest.raises(ModelError, match="windowed probe"):
                probe(compiled)
        assert len(probe(CompiledScenario(system, "fuse"))) == 1


class TestSteadyStateEarlyExit:
    """The warmup+3H convergence probe must not change any result."""

    @staticmethod
    def _reference(system, task, max_windows=8):
        """The pre-probe algorithm: one full-horizon run, then scan."""
        from repro.exact.hyperperiod import _WindowedDisparity
        from repro.sim.engine import Simulator

        hyperperiod = system.graph.hyperperiod()
        warmup = warmup_horizon(system)
        monitor = _WindowedDisparity(task, hyperperiod, warmup)
        Simulator(
            system,
            warmup + max_windows * hyperperiod,
            policy=wcet_policy,
            observers=[monitor],
        ).run()
        values = [monitor.per_window.get(i, 0) for i in range(max_windows)]
        for index in range(1, max_windows):
            if values[index] == values[index - 1]:
                return (values[index], True, index + 1)
        return (max(values), False, max_windows)

    def test_probe_matches_full_run_on_random_scenarios(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.gen import generate_random_scenario

        @settings(max_examples=25, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            n_tasks=st.integers(min_value=5, max_value=10),
        )
        def check(seed, n_tasks):
            scenario = generate_random_scenario(n_tasks, random.Random(seed))
            system, sink = scenario.system, scenario.sink
            result = steady_state_disparity(system, sink)
            reference = self._reference(system, sink)
            assert (
                result.disparity,
                result.converged,
                result.windows_used,
            ) == reference

        check()

    def test_probe_matches_full_run_on_fusion_offsets(self):
        for offset in (0, 3, 7, 15, 29):
            system = fusion_system(offset)
            result = steady_state_disparity(system, "fuse")
            assert (
                result.disparity,
                result.converged,
                result.windows_used,
            ) == self._reference(system, "fuse")
