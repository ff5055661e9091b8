"""Tests for disparity diagnosis and priority optimization."""

import random

import pytest

from repro.core.disparity import disparity_bound
from repro.explore.diagnosis import (
    DisparityExplanation,
    explain_disparity,
    render_explanation,
)
from repro.explore.priority_opt import optimize_priorities
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task, source_task
from repro.sim.batch import run_batch
from repro.units import ms


class TestExplainDisparity:
    def test_merged_system_explanation(self, merged_system):
        explanation = explain_disparity(merged_system, "sink")
        assert explanation.bound == ms(102)
        assert explanation.binding_pair is not None
        # The slow chain's hops dominate.
        assert explanation.hops_nu[0].budget == ms(50)
        # Structure cannot help a disjoint pair.
        assert explanation.structural_gain == 0
        # Algorithm 1 can (the windows are offset by 40ms of midpoint).
        assert explanation.buffering_gain == ms(40)

    def test_hop_ordering_descending(self, diamond_system):
        explanation = explain_disparity(diamond_system, "sink")
        budgets = [hop.budget for hop in explanation.hops_lam]
        assert budgets == sorted(budgets, reverse=True)

    def test_single_chain_task(self, diamond_system):
        explanation = explain_disparity(diamond_system, "a")
        assert explanation.bound == 0
        assert explanation.binding_pair is None

    def test_window_widths_reported(self, merged_system):
        explanation = explain_disparity(merged_system, "sink")
        # lam = (sa, pa, sink): window [-20, 2] -> width 22.
        assert explanation.window_width_lam == ms(22)
        assert explanation.window_width_nu == ms(102)

    def test_render_contains_key_facts(self, merged_system):
        text = render_explanation(explain_disparity(merged_system, "sink"))
        assert "binding pair" in text
        assert "sa -> pa -> sink" in text
        assert "Algorithm 1" in text
        assert "102.000ms" in text

    def test_render_single_chain(self, diamond_system):
        text = render_explanation(explain_disparity(diamond_system, "a"))
        assert "no disparity to explain" in text


class TestPriorityOptimization:
    def build_inverted_system(self) -> System:
        """A chain whose priorities run *against* the data flow.

        Producer lower-priority hops pay T + R - (W + B); swapping to
        flow order recovers the tighter T-per-hop budgets.
        """
        graph = CauseEffectGraph()
        graph.add_task(source_task("s1", ms(20), ecu="e", priority=8))
        graph.add_task(source_task("s2", ms(50), ecu="e", priority=9))
        # Deliberately inverted: consumers have *higher* priority.
        graph.add_task(Task("p1", ms(20), ms(2), ms(1), ecu="e", priority=3))
        graph.add_task(Task("p2", ms(50), ms(3), ms(1), ecu="e", priority=2))
        graph.add_task(Task("sink", ms(50), ms(2), ms(1), ecu="e", priority=0))
        graph.add_channel("s1", "p1")
        graph.add_channel("s2", "p2")
        graph.add_channel("p1", "sink")
        graph.add_channel("p2", "sink")
        return System.build(graph)

    def test_improves_inverted_priorities(self):
        system = self.build_inverted_system()
        result = optimize_priorities(system, "sink")
        assert result.bound_after <= result.bound_before
        assert result.improved
        assert result.swaps_applied
        # The returned system is consistent: re-analysis agrees.
        assert disparity_bound(result.system, "sink") == result.bound_after

    def test_monotone_never_degrades(self, merged_system, diamond_system):
        for system, task in ((merged_system, "sink"), (diamond_system, "sink")):
            result = optimize_priorities(system, task, max_rounds=2)
            assert result.bound_after <= result.bound_before

    def test_result_schedulable(self):
        system = self.build_inverted_system()
        result = optimize_priorities(system, "sink")
        # System.build inside the search guarantees schedulability;
        # verify the final system explicitly.
        from repro.sched.response_time import analyze_all

        analyze_all(result.system.graph.tasks)

    def test_parameter_validation(self, merged_system):
        with pytest.raises(ModelError):
            optimize_priorities(merged_system, "sink", max_rounds=0)

    def test_observed_pair_replays_both_assignments_alike(self):
        system = self.build_inverted_system()
        result = optimize_priorities(
            system,
            "sink",
            observed_sims=3,
            observed_duration=ms(400),
            observed_warmup=ms(100),
            observed_seed=5,
        )
        assert result.swaps_applied
        expected = tuple(
            run_batch(
                side,
                "sink",
                sims=3,
                duration=ms(400),
                warmup=ms(100),
                rng=random.Random(5),
            ).max_disparity
            for side in (system, result.system)
        )
        assert (result.observed_before, result.observed_after) == expected

    def test_observed_requires_duration(self, merged_system):
        with pytest.raises(
            ModelError,
            match="observed_sims > 0 requires a positive observed_duration",
        ):
            optimize_priorities(merged_system, "sink", observed_sims=2)
