"""Tests for replication statistics."""

import math
import random

import pytest

from repro.experiments.stats import (
    Summary,
    paired_improvement,
    summarize,
)
from repro.parallel.aggregate import StreamingStats


class TestRunningStats:
    """The Welford accumulator :func:`summarize` folds through."""

    def test_mean(self):
        assert summarize([1.0, 2.0, 3.0]).mean == pytest.approx(2.0)

    def test_variance_matches_textbook(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats = StreamingStats()
        for value in values:
            stats.add(value)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.variance == pytest.approx(variance)
        assert stats.std == pytest.approx(math.sqrt(variance))
        assert summarize(values).std == stats.std

    def test_few_points(self):
        assert summarize([]) == Summary(count=0, mean=0.0, std=0.0, ci95=0.0)
        stats = StreamingStats()
        stats.add(5.0)
        assert stats.variance == 0.0
        assert stats.mean == 5.0
        assert summarize([5.0]) == Summary(
            count=1, mean=5.0, std=0.0, ci95=0.0
        )

    def test_numerically_stable_for_large_offsets(self):
        # Welford's method must not lose precision when values share a
        # huge common offset (naive sum-of-squares does).
        base = 1e12
        summary = summarize([base + v for v in (1.0, 2.0, 3.0)])
        assert summary.std == pytest.approx(1.0)


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([10.0, 12.0, 14.0, 16.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(13.0)
        assert summary.ci95 > 0

    def test_ci_shrinks_with_samples(self):
        rng = random.Random(0)
        small = summarize([rng.gauss(0, 1) for _ in range(10)])
        large = summarize([rng.gauss(0, 1) for _ in range(1000)])
        assert large.ci95 < small.ci95

    def test_str(self):
        text = str(summarize([1.0, 1.0]))
        assert "n=2" in text


class TestPairedImprovement:
    def test_positive_improvement(self):
        baseline = [10.0, 12.0, 9.0]
        treated = [7.0, 9.0, 8.0]
        summary = paired_improvement(baseline, treated)
        assert summary.mean == pytest.approx((3 + 3 + 1) / 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_improvement([1.0], [1.0, 2.0])

    def test_zero_improvement(self):
        summary = paired_improvement([5.0, 5.0], [5.0, 5.0])
        assert summary.mean == 0.0
        assert summary.std == 0.0
