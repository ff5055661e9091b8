"""Tests for the task-level worst-case disparity analysis."""

import pytest

from repro.chains.backward import BackwardBoundsCache
from repro.core.disparity import (
    all_sink_disparities,
    check_disparity_requirement,
    disparity_bound,
    worst_case_disparity,
)
from repro.model.task import ModelError
from repro.units import ms


class TestWorstCaseDisparity:
    def test_diamond_sink(self, diamond_system):
        result = worst_case_disparity(diamond_system, "sink", method="independent")
        assert result.bound == ms(90)
        assert result.n_pairs == 6  # C(4, 2)
        assert result.worst_pair is not None

    def test_diamond_forkjoin(self, diamond_system):
        result = worst_case_disparity(diamond_system, "sink", method="forkjoin")
        assert result.bound == ms(90)

    def test_diamond_middle_task(self, diamond_system):
        # Chains into m: (s,a,m) and (s,b,m); S-diff = 30 (see pairwise
        # tests).
        assert disparity_bound(diamond_system, "m", method="forkjoin") == ms(30)

    def test_two_source_fusion(self, two_source_system):
        assert disparity_bound(two_source_system, "fuse") == ms(31)

    def test_source_task_zero(self, diamond_system):
        result = worst_case_disparity(diamond_system, "s")
        assert result.bound == 0
        assert result.n_pairs == 0

    def test_single_chain_task_zero(self, diamond_system):
        # a has exactly one chain (s,a): no pairs, no disparity.
        assert disparity_bound(diamond_system, "a") == 0

    def test_best_method_minimum(self, diamond_system):
        best = disparity_bound(diamond_system, "sink", method="best")
        independent = disparity_bound(diamond_system, "sink", method="independent")
        forkjoin = disparity_bound(diamond_system, "sink", method="forkjoin")
        assert best <= min(independent, forkjoin)

    def test_unknown_method_rejected(self, diamond_system):
        with pytest.raises(ModelError):
            disparity_bound(diamond_system, "sink", method="magic")

    def test_shared_cache_consistency(self, diamond_system):
        cache = BackwardBoundsCache(diamond_system)
        with_cache = disparity_bound(diamond_system, "sink", cache=cache)
        without = disparity_bound(diamond_system, "sink")
        assert with_cache == without

    def test_pair_results_recorded(self, diamond_system):
        result = worst_case_disparity(diamond_system, "sink", method="forkjoin")
        bounds = sorted(result.pair_bounds)
        assert bounds[-1] == result.bound
        # The two truncated pairs come out at 30 ms.
        assert bounds[0] == ms(30)


class TestConvenience:
    def test_all_sink_disparities(self, merged_system):
        results = all_sink_disparities(merged_system)
        assert set(results) == {"sink"}
        assert results["sink"].bound == ms(102)

    def test_requirement_check(self, two_source_system):
        assert check_disparity_requirement(two_source_system, "fuse", ms(31))
        assert not check_disparity_requirement(two_source_system, "fuse", ms(30))
