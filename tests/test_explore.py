"""Tests for the design-space exploration utilities."""

import pytest

from repro.explore import (
    Margin,
    SweepPoint,
    best_capacity,
    buffer_capacity_sweep,
    disparity_margins,
    period_sensitivity,
)
from repro.model.task import ModelError
from repro.units import ms


class TestPeriodSensitivity:
    def test_fig4_style_insensitivity(self, merged_system):
        # Sweeping the fast chain's middle task leaves the bound
        # untouched when the binding term is the other chain's WCBT.
        points = period_sensitivity(
            merged_system, "pa", "sink", [ms(10), ms(5), ms(2)]
        )
        bounds = {p.value: p.bound for p in points if p.schedulable}
        assert len(set(bounds.values())) == 1

    def test_slow_chain_period_matters(self, merged_system):
        # Shrinking the slow producer's period shrinks its WCBT and the
        # disparity bound with it.
        points = period_sensitivity(
            merged_system, "pb", "sink", [ms(50), ms(10)]
        )
        by_value = {p.value: p for p in points}
        assert by_value[ms(10)].bound < by_value[ms(50)].bound

    def test_unschedulable_candidate_reported(self, merged_system):
        # Period 1 ms < pb's WCET (2 ms): the Task model itself rejects
        # it, reported as unschedulable rather than raising.
        points = period_sensitivity(merged_system, "pb", "sink", [ms(1)])
        assert points == [SweepPoint(value=ms(1), bound=None, schedulable=False)]


class TestBufferSweep:
    def test_v_shape_minimum_at_algorithm1(self, merged_system):
        # Algorithm 1 designed capacity 5 for (sa, pa) (see
        # test_buffers); the sweep must bottom out there.
        points = buffer_capacity_sweep(
            merged_system, ("sa", "pa"), "sink", max_capacity=10
        )
        best = best_capacity(points)
        assert best.value == 5
        assert best.bound == ms(62)

    def test_capacity_one_is_base(self, merged_system):
        from repro.core.disparity import disparity_bound

        points = buffer_capacity_sweep(
            merged_system, ("sa", "pa"), "sink", max_capacity=3
        )
        assert points[0].value == 1
        assert points[0].bound == disparity_bound(merged_system, "sink")

    def test_unknown_channel_rejected(self, merged_system):
        with pytest.raises(ModelError):
            buffer_capacity_sweep(merged_system, ("sa", "sink"), "sink")

    def test_invalid_max_capacity(self, merged_system):
        with pytest.raises(ModelError):
            buffer_capacity_sweep(
                merged_system, ("sa", "pa"), "sink", max_capacity=0
            )

    def test_best_capacity_requires_feasible(self):
        with pytest.raises(ModelError):
            best_capacity([SweepPoint(value=1, bound=None, schedulable=False)])


class TestObservedSweeps:
    """Sweeps with batched replications attached per candidate."""

    def test_observed_requires_duration(self, merged_system):
        with pytest.raises(ModelError):
            buffer_capacity_sweep(
                merged_system,
                ("sa", "pa"),
                "sink",
                max_capacity=2,
                observed_sims=2,
            )

    def test_observed_below_bound_and_jobs_invariant(self, merged_system):
        kwargs = dict(
            observed_sims=3,
            observed_duration=ms(400),
            observed_warmup=ms(100),
            seed=9,
        )
        sweeps = (
            lambda jobs: buffer_capacity_sweep(
                merged_system, ("sa", "pa"), "sink", max_capacity=3,
                jobs=jobs, **kwargs
            ),
            lambda jobs: period_sensitivity(
                merged_system, "pb", "sink", [ms(50), ms(20), ms(1)],
                jobs=jobs, **kwargs
            ),
        )
        for sweep in sweeps:
            serial = sweep(1)
            assert serial == sweep(2)
            for point in serial:
                if not point.schedulable:
                    assert point.observed is None
                    continue
                assert point.observed is not None
                # Observed disparity is a lower bound on the analytic one.
                assert 0 <= point.observed <= point.bound

    def test_observed_default_off(self, merged_system):
        points = period_sensitivity(
            merged_system, "pb", "sink", [ms(50), ms(10)]
        )
        assert all(p.observed is None for p in points)

    def test_observed_period_sweep(self, merged_system):
        points = period_sensitivity(
            merged_system,
            "pb",
            "sink",
            [ms(50), ms(1)],
            observed_sims=2,
            observed_duration=ms(300),
        )
        assert points[0].observed is not None
        # Unschedulable candidates carry no observation.
        assert not points[1].schedulable and points[1].observed is None


class TestMargins:
    def test_margins(self, merged_system):
        margins = disparity_margins(
            merged_system, {"sink": ms(150), "pa": ms(1)}
        )
        by_task = {m.task: m for m in margins}
        assert by_task["sink"].bound == ms(102)
        assert by_task["sink"].satisfied
        assert by_task["sink"].slack == ms(48)
        # pa has a single chain: zero disparity, trivially satisfied.
        assert by_task["pa"].bound == 0
        assert by_task["pa"].satisfied


class TestGantt:
    def test_render(self):
        from repro.model.graph import CauseEffectGraph
        from repro.model.system import System
        from repro.model.task import Task, source_task
        from repro.sim.engine import simulate
        from repro.sim.exec_time import wcet_policy
        from repro.sim.gantt import render_gantt
        from repro.sim.metrics import JobTableMonitor

        graph = CauseEffectGraph()
        graph.add_task(source_task("s", ms(10), ecu="e", priority=0))
        graph.add_task(Task("hi", ms(10), ms(2), ms(2), ecu="e", priority=1))
        graph.add_task(Task("lo", ms(20), ms(5), ms(5), ecu="e", priority=2))
        graph.add_channel("s", "hi")
        graph.add_channel("s", "lo")
        system = System.build(graph)
        monitor = JobTableMonitor()
        simulate(system, ms(40), observers=[monitor], policy=wcet_policy)
        chart = render_gantt(monitor, width=40)
        lines = chart.splitlines()
        assert lines[0].startswith("gantt")
        assert any(line.startswith("hi") and "#" in line for line in lines)
        assert any(line.startswith("lo") and "#" in line for line in lines)

    def test_empty_monitor(self):
        from repro.sim.gantt import render_gantt
        from repro.sim.metrics import JobTableMonitor

        assert "(no jobs" in render_gantt(JobTableMonitor())

    def test_bad_window_rejected(self):
        from repro.model.task import ModelError
        from repro.sim.gantt import render_gantt
        from repro.sim.metrics import JobRecord, JobTableMonitor

        monitor = JobTableMonitor()
        monitor.jobs.append(
            JobRecord(task="t", index=0, unit="e", release=0, start=0, finish=5)
        )
        with pytest.raises(ModelError):
            render_gantt(monitor, start=10, end=5)
        with pytest.raises(ModelError):
            render_gantt(monitor, width=2)
