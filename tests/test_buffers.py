"""Tests for Lemma 6, Algorithm 1, and Theorem 3.

The merged fixture (two disjoint chains at one sink) is the paper's
Section IV setting.  Hand derivation (ms):

* lam = (sa, pa, sink): W=20, B=-2; nu = (sb, pb, sink): W=100, B=-2.
* S-diff (= Theorem 1, disjoint): O = max(22, 102) = 102.
* Windows at the sink: lam [-20, 2] (midpoint -9), nu [-100, 2]
  (midpoint -49): lam is later, gap 40 -> buffer (sa, pa) capacity
  floor(40/10)+1 = 5, L = 40; Theorem 3: 102 - 40 = 62.
"""

import random

import pytest

from repro.buffers.bounds import buffered_backward_bounds
from repro.buffers.sizing import (
    design_buffer_pair,
    design_buffers_multi,
    disparity_bound_buffered,
)
from repro.chains.backward import BackwardBoundsCache, bcbt_lower, wcbt_upper
from repro.core.disparity import disparity_bound
from repro.model.chain import Chain
from repro.model.task import ModelError
from repro.sim.batch import run_batch
from repro.units import ms


class TestLemma6:
    def test_buffered_bounds_shift(self, merged_system):
        chain = Chain.of("sa", "pa", "sink")
        bounds = buffered_backward_bounds(chain, merged_system, capacity=5)
        assert bounds.wcbt == ms(20) + 4 * ms(10)
        assert bounds.bcbt == -ms(2) + 4 * ms(10)

    def test_capacity_one_identity(self, merged_system):
        chain = Chain.of("sa", "pa", "sink")
        bounds = buffered_backward_bounds(chain, merged_system, capacity=1)
        assert bounds.wcbt == wcbt_upper(chain, merged_system)
        assert bounds.bcbt == bcbt_lower(chain, merged_system)

    def test_matches_applied_system(self, merged_system):
        # The hypothetical shift must equal re-analysis of a system
        # with the capacity actually applied.
        chain = Chain.of("sa", "pa", "sink")
        hypothetical = buffered_backward_bounds(chain, merged_system, capacity=3)
        applied = merged_system.with_channel_capacity("sa", "pa", 3)
        assert hypothetical.wcbt == wcbt_upper(chain, applied)
        assert hypothetical.bcbt == bcbt_lower(chain, applied)

    def test_invalid_capacity_rejected(self, merged_system):
        with pytest.raises(ModelError):
            buffered_backward_bounds(
                Chain.of("sa", "pa", "sink"), merged_system, capacity=0
            )

    def test_singleton_chain_rejected(self, merged_system):
        with pytest.raises(ModelError):
            buffered_backward_bounds(Chain.of("sa"), merged_system, capacity=2)

    def test_already_buffered_rejected(self, merged_system):
        buffered = merged_system.with_channel_capacity("sa", "pa", 2)
        with pytest.raises(ModelError):
            buffered_backward_bounds(
                Chain.of("sa", "pa", "sink"), buffered, capacity=3
            )


class TestAlgorithm1:
    def test_merged_design(self, merged_system):
        cache = BackwardBoundsCache(merged_system)
        lam = Chain.of("sa", "pa", "sink")
        nu = Chain.of("sb", "pb", "sink")
        design = design_buffer_pair(lam, nu, cache)
        assert design.channel == ("sa", "pa")
        assert design.capacity == 5
        assert design.shift == ms(40)
        assert design.shifted_chain == "lam"
        assert design.plan == {("sa", "pa"): 5}

    def test_design_is_symmetric(self, merged_system):
        cache = BackwardBoundsCache(merged_system)
        lam = Chain.of("sa", "pa", "sink")
        nu = Chain.of("sb", "pb", "sink")
        forward = design_buffer_pair(lam, nu, cache)
        backward = design_buffer_pair(nu, lam, cache)
        assert forward.channel == backward.channel
        assert forward.capacity == backward.capacity
        assert forward.shift == backward.shift

    def test_aligned_pair_no_design(self, diamond_system):
        # (s,a,m,x,sink) vs (s,b,m,x,sink) truncate to (s,a,m)/(s,b,m):
        # midpoint gap = ((-20+2) - (-30+2))/2 = 5 < T(s)=10 -> no shift.
        cache = BackwardBoundsCache(diamond_system)
        lam = Chain.of("s", "a", "m", "x", "sink")
        nu = Chain.of("s", "b", "m", "x", "sink")
        design = design_buffer_pair(lam, nu, cache)
        assert design.channel is None
        assert design.shift == 0
        assert design.plan == {}

    def test_identical_chains_no_design(self, diamond_system):
        cache = BackwardBoundsCache(diamond_system)
        lam = Chain.of("s", "a", "m", "x", "sink")
        design = design_buffer_pair(lam, lam, cache)
        assert design.shift == 0


class TestTheorem3:
    def test_merged_bound(self, merged_system):
        cache = BackwardBoundsCache(merged_system)
        lam = Chain.of("sa", "pa", "sink")
        nu = Chain.of("sb", "pb", "sink")
        result, design = disparity_bound_buffered(lam, nu, cache)
        assert result.bound == ms(62)
        assert result.method == "S-diff-B"
        assert design.shift == ms(40)

    def test_bound_matches_reanalysis(self, merged_system):
        # Theorem 3's closed form must agree with re-running Theorem 1/2
        # on the system with the designed capacities applied.
        cache = BackwardBoundsCache(merged_system)
        lam = Chain.of("sa", "pa", "sink")
        nu = Chain.of("sb", "pb", "sink")
        result, design = disparity_bound_buffered(lam, nu, cache)
        buffered = merged_system.with_buffer_plan(design.plan)
        assert disparity_bound(buffered, "sink", method="forkjoin") == result.bound

    def test_never_worse(self, merged_system, diamond_system):
        for system, tail in ((merged_system, "sink"), (diamond_system, "sink")):
            cache = BackwardBoundsCache(system)
            from repro.model.chain import enumerate_source_chains
            from itertools import combinations
            from repro.core.pairwise import disparity_bound_forkjoin

            chains = enumerate_source_chains(system.graph, tail)
            for lam, nu in combinations(chains, 2):
                base = disparity_bound_forkjoin(lam, nu, cache)
                buffered, _ = disparity_bound_buffered(lam, nu, cache)
                assert buffered.bound <= base.bound


class TestGreedyDesign:
    def test_matches_pairwise_on_two_chains(self, merged_system):
        from repro.buffers.sizing import design_buffers_greedy

        design = design_buffers_greedy(merged_system, "sink")
        # With exactly two chains, the greedy loop's first round is
        # Algorithm 1 itself.
        assert design.plan == {("sa", "pa"): 5}
        assert design.bound_before == ms(102)
        assert design.bound_after == ms(62)

    def test_monotone(self, diamond_system, two_source_system):
        from repro.buffers.sizing import design_buffers_greedy

        for system, task in ((diamond_system, "sink"), (two_source_system, "fuse")):
            design = design_buffers_greedy(system, task)
            assert design.bound_after <= design.bound_before
            # Re-analysis of the returned plan reproduces the bound.
            buffered = system.with_buffer_plan(design.plan)
            assert disparity_bound(buffered, task) == design.bound_after

    def test_never_worse_than_multi(self, merged_system):
        from repro.buffers.sizing import design_buffers_greedy

        greedy = design_buffers_greedy(merged_system, "sink")
        multi = design_buffers_multi(merged_system, "sink")
        assert greedy.bound_after <= multi.bound_after

    def test_iteration_cap_validated(self, merged_system):
        from repro.buffers.sizing import design_buffers_greedy

        with pytest.raises(ModelError):
            design_buffers_greedy(merged_system, "sink", max_iterations=0)

    def test_observed_pair_replays_both_systems_alike(self, merged_system):
        from repro.buffers.sizing import design_buffers_greedy

        design = design_buffers_greedy(
            merged_system,
            "sink",
            observed_sims=3,
            observed_duration=ms(400),
            observed_warmup=ms(100),
            observed_seed=5,
        )
        expected = tuple(
            run_batch(
                side,
                "sink",
                sims=3,
                duration=ms(400),
                warmup=ms(100),
                rng=random.Random(5),
            ).max_disparity
            for side in (
                merged_system,
                merged_system.with_buffer_plan(design.plan),
            )
        )
        assert (design.observed_before, design.observed_after) == expected

    def test_observed_requires_duration(self, merged_system):
        from repro.buffers.sizing import design_buffers_greedy

        with pytest.raises(
            ModelError,
            match="observed_sims > 0 requires a positive observed_duration",
        ):
            design_buffers_greedy(merged_system, "sink", observed_sims=2)


class TestMultiChainHeuristic:
    def test_merged_improves(self, merged_system):
        design = design_buffers_multi(merged_system, "sink")
        assert design.bound_after < design.bound_before
        assert design.plan  # some buffer was designed
        # Applying the plan reproduces the certified bound.
        buffered = merged_system.with_buffer_plan(design.plan)
        assert (
            disparity_bound(buffered, "sink", method="forkjoin")
            == design.bound_after
        )

    def test_single_chain_noop(self, diamond_system):
        design = design_buffers_multi(diamond_system, "a")
        assert design.plan == {}
        assert design.bound_before == design.bound_after == 0

    def test_never_hurts(self, diamond_system, two_source_system):
        for system, task in ((diamond_system, "sink"), (two_source_system, "fuse")):
            design = design_buffers_multi(system, task)
            assert design.bound_after <= design.bound_before

    def test_session_designs_under_its_semantics(self):
        from repro.api import AnalysisSession
        from repro.gen import generate_random_scenario

        scenario = generate_random_scenario(12, random.Random(5))
        system, sink = scenario.system, scenario.sink
        let = AnalysisSession(system, semantics="let")
        design = let.design_buffers(sink)
        assert design.bound_before == let.disparity(sink) == ms(420)
        if design.plan:
            assert design.bound_after == let.with_buffer_plan(
                design.plan
            ).disparity(sink)
        else:
            assert design.bound_after == design.bound_before
        # The functional entry point stays the implicit design.
        implicit = AnalysisSession(system).design_buffers(sink)
        assert implicit == design_buffers_multi(system, sink)
        assert implicit.bound_before == AnalysisSession(system).disparity(sink)
