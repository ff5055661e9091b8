"""Tests for the LET (Logical Execution Time) extension."""

import random

import pytest

from repro.chains.backward import BackwardBoundsCache
from repro.core.disparity import disparity_bound
from repro.let import (
    backward_bounds_let,
    bcbt_lower_let,
    disparity_bound_let,
    wcbt_upper_let,
)
from repro.model.chain import Chain
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task, source_task
from repro.sim.engine import randomize_offsets, simulate
from repro.sim.exec_time import uniform_policy, wcet_policy
from repro.sim.metrics import BackwardTimeMonitor, DisparityMonitor, JobTableMonitor
from repro.units import ms, seconds


def chain_system() -> System:
    graph = CauseEffectGraph()
    graph.add_task(source_task("s", ms(10), ecu="e", priority=0))
    graph.add_task(Task("a", ms(10), ms(1), ms(1), ecu="e", priority=1))
    graph.add_task(Task("b", ms(20), ms(2), ms(1), ecu="e", priority=2))
    graph.add_channel("s", "a")
    graph.add_channel("a", "b")
    return System.build(graph)


class TestLetBounds:
    def test_wcbt_values(self):
        system = chain_system()
        chain = Chain.of("s", "a", "b")
        # source hop: T(s)=10; a->b hop: 2*T(a)=20.
        assert wcbt_upper_let(chain, system) == ms(30)

    def test_bcbt_values(self):
        system = chain_system()
        chain = Chain.of("s", "a", "b")
        # source hop contributes 0; a->b hop at least T(a)=10.
        assert bcbt_lower_let(chain, system) == ms(10)

    def test_singleton(self):
        system = chain_system()
        assert wcbt_upper_let(Chain.of("s"), system) == 0
        assert bcbt_lower_let(Chain.of("s"), system) == 0

    def test_bounds_independent_of_execution_times(self):
        # LET's whole point: W/B depend only on periods.
        fast = chain_system()
        graph = fast.graph.copy()
        graph.replace_task(Task("b", ms(20), ms(8), ms(1), ecu="e", priority=2))
        slow = System.build(graph)
        chain_tasks = ("s", "a", "b")
        assert wcbt_upper_let(Chain(chain_tasks), fast) == wcbt_upper_let(
            Chain(chain_tasks), slow
        )

    def test_buffer_shift_composes(self):
        system = chain_system().with_channel_capacity("s", "a", 3)
        chain = Chain.of("s", "a", "b")
        assert wcbt_upper_let(chain, system) == ms(30) + 2 * ms(10)
        assert bcbt_lower_let(chain, system) == ms(10) + 2 * ms(10)

    def test_strategy_cache(self):
        system = chain_system()
        cache = BackwardBoundsCache(system, strategy=backward_bounds_let)
        bounds = cache.bounds(Chain.of("s", "a", "b"))
        assert bounds.wcbt == ms(30)
        assert bounds.bcbt == ms(10)


class TestLetSession:
    """One ``semantics`` switch picks a session's bounds and replay."""

    @staticmethod
    def _let_reference(system, task):
        return disparity_bound(
            system,
            task,
            cache=BackwardBoundsCache(system, strategy=backward_bounds_let),
        )

    def test_let_session_reads_let_bounds(self):
        from repro.api import AnalysisSession
        from repro.gen import generate_random_scenario

        scenario = generate_random_scenario(12, random.Random(5))
        system, sink = scenario.system, scenario.sink
        let = AnalysisSession(system, semantics="let")
        assert let.disparity(sink) == self._let_reference(system, sink)
        assert let.disparity(sink) == ms(420)
        assert AnalysisSession(system).disparity(sink) == 221_844_804
        assert disparity_bound_let(system, sink) == ms(420)

    def test_buffered_let_session_stays_let(self):
        from repro.api import AnalysisSession
        from repro.gen import generate_random_scenario

        scenario = generate_random_scenario(12, random.Random(5))
        system, sink = scenario.system, scenario.sink
        plan = {("s2", "fuse"): 11, ("s3", "fuse"): 11}
        buffered = AnalysisSession(system, semantics="let").with_buffer_plan(
            plan
        )
        assert buffered.semantics == "let"
        reference = self._let_reference(system.with_buffer_plan(plan), sink)
        assert buffered.disparity(sink) == reference == ms(330)


class TestLetDisparity:
    def test_two_source_fusion(self):
        graph = CauseEffectGraph()
        graph.add_task(source_task("cam", ms(10), ecu="e", priority=0))
        graph.add_task(source_task("lidar", ms(30), ecu="e", priority=1))
        graph.add_task(Task("fuse", ms(30), ms(2), ms(1), ecu="e", priority=2))
        graph.add_channel("cam", "fuse")
        graph.add_channel("lidar", "fuse")
        system = System.build(graph)
        # Windows: cam in [-10, 0], lidar in [-30, 0]:
        # O = max(|10-0|, |30-0|) = 30.
        assert disparity_bound_let(system, "fuse") == ms(30)

    def test_let_disparity_scheduler_free(self, diamond_system):
        # Same graph, different priorities: LET bound unchanged.
        base = disparity_bound_let(diamond_system, "sink")
        graph = diamond_system.graph.copy()
        # Reverse all compute priorities.
        for task in graph.tasks:
            if task.priority is not None and not graph.is_source(task.name):
                graph.replace_task(task.with_priority(100 - task.priority))
        flipped = System.build(graph)
        assert disparity_bound_let(flipped, "sink") == base


class TestLetSimulation:
    def test_publish_at_deadline(self):
        system = chain_system()
        monitor = BackwardTimeMonitor(["b"], warmup=ms(100))
        simulate(system, ms(600), observers=[monitor], policy=wcet_policy,
                 semantics="let")
        observed = monitor.range_for("b", "s")
        assert observed.samples > 0
        # Non-source hop delivers data at least one producer period old.
        assert observed.lo >= bcbt_lower_let(Chain.of("s", "a", "b"), system)
        assert observed.hi <= wcbt_upper_let(Chain.of("s", "a", "b"), system)

    def test_data_flow_independent_of_policy(self):
        # The observed backward times must be identical under any
        # execution-time policy: LET's determinism.
        system = chain_system()
        results = []
        for policy in (wcet_policy, uniform_policy):
            monitor = BackwardTimeMonitor(["b"], warmup=ms(100))
            simulate(system, ms(600), seed=5, observers=[monitor],
                     policy=policy, semantics="let")
            observed = monitor.range_for("b", "s")
            results.append((observed.lo, observed.hi))
        assert results[0] == results[1]

    def test_let_disparity_soundness_random(self):
        from repro.gen.scenario import ScenarioConfig, generate_random_scenario

        rng = random.Random(13)
        scenario = generate_random_scenario(
            10, rng, ScenarioConfig(n_ecus=1, use_bus=False)
        )
        system = scenario.system
        bound = disparity_bound_let(system, scenario.sink)
        for _ in range(3):
            graph = randomize_offsets(system.graph, rng)
            variant = System(graph=graph, response_times=system.response_times)
            monitor = DisparityMonitor([scenario.sink], warmup=seconds(2))
            simulate(variant, seconds(5), seed=rng.randrange(2**31),
                     observers=[monitor], semantics="let")
            assert monitor.disparity(scenario.sink) <= bound

    def test_schedule_invariants_hold(self):
        system = chain_system()
        monitor = JobTableMonitor()
        simulate(system, ms(500), observers=[monitor], semantics="let")
        monitor.check_invariants({"s"})

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ModelError):
            simulate(chain_system(), ms(10), semantics="zero-copy")

    def test_let_violation_detected(self):
        # A genuinely late case via blocking: a lower-priority 15ms job
        # blocks a 10ms-period task with 6ms WCET -> finish at 21 >
        # deadline 11.  Schedulability analysis rightly rejects this
        # system, so bypass it with a hand-made response-time table.
        from repro.sched.response_time import ResponseTimeTable

        graph = CauseEffectGraph()
        graph.add_task(source_task("s", ms(10), ecu="e", priority=0))
        graph.add_task(Task("hi", ms(10), ms(6), ms(6), ecu="e", priority=1,
                            offset=ms(1)))
        graph.add_task(Task("lo", ms(40), ms(15), ms(15), ecu="e", priority=2))
        graph.add_channel("s", "hi")
        graph.add_channel("s", "lo")
        table = ResponseTimeTable({"s": 0, "hi": ms(10), "lo": ms(21)})
        system = System(graph=graph, response_times=table)
        with pytest.raises(ModelError):
            simulate(system, ms(100), policy=wcet_policy, semantics="let")
