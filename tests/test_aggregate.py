"""Streaming aggregation: exact folds in X order, O(1) sketches.

The accumulator's contract has two halves.  The *exact* half — rows
are produced by the same fold a serial run applies and released in X
order no matter the completion order — feeds the CSV and is tested
bit-for-bit.  The *sketch* half (Welford moments, P² quantiles) is
observability only and is tested against exact references within the
estimator's documented accuracy.
"""

from __future__ import annotations

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    CampaignAccumulator,
    CompletedPoint,
    P2Quantile,
    StreamingStats,
)


class TestStreamingStats:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=2,
            max_size=200,
        )
    )
    def test_matches_batch_statistics(self, values):
        stats = StreamingStats()
        for value in values:
            stats.add(value)
        assert stats.count == len(values)
        assert stats.min == min(values)
        assert stats.max == max(values)
        assert stats.mean == pytest.approx(statistics.fmean(values), abs=1e-6)
        assert stats.std == pytest.approx(
            statistics.stdev(values), rel=1e-6, abs=1e-6
        )

    def test_empty_and_single(self):
        stats = StreamingStats()
        assert stats.to_dict() == {"count": 0}
        stats.add(3.0)
        assert stats.variance == 0.0
        assert stats.to_dict()["mean"] == 3.0


class TestP2Quantile:
    def test_exact_below_six_samples(self):
        sketch = P2Quantile(0.5)
        assert math.isnan(sketch.value)
        for value in (5.0, 1.0, 3.0):
            sketch.add(value)
        assert sketch.value == 3.0

    def test_rejects_degenerate_q(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_close_to_sorted_reference_on_uniform(self, q):
        rng = random.Random(7)
        values = [rng.uniform(0.0, 100.0) for _ in range(5000)]
        sketch = P2Quantile(q)
        for value in values:
            sketch.add(value)
        exact = sorted(values)[int(q * (len(values) - 1))]
        # P² is a few percent off on 5k samples; the sketch only feeds
        # progress lines, never the CSV.
        assert sketch.value == pytest.approx(exact, rel=0.05, abs=1.0)


def _concat_fold(x, results):
    return (x, tuple(sorted(results)))


class TestCampaignAccumulator:
    def test_release_in_x_order_despite_completion_order(self):
        acc = CampaignAccumulator([(10, 2), (20, 1), (30, 1)], _concat_fold)
        assert acc.add(30, "c1") == []  # later point done first: held
        released = acc.add(20, "b1")
        assert released == []  # still waiting on x=10
        assert acc.add(10, "a1") == []
        released = acc.add(10, "a2")
        assert [p.x for p in released] == [10, 20, 30]
        assert released[0].row == (10, ("a1", "a2"))
        assert acc.pending == 0

    def test_peak_residency_is_measured(self):
        acc = CampaignAccumulator([(1, 2), (2, 2), (3, 2)], _concat_fold)
        acc.add(1, "a")
        acc.add(2, "c")  # two open points, two resident results
        assert acc.points_open == 2
        report = acc.memory_report()
        assert report["resident_results"] == 2
        acc.add(1, "b")  # point 1 folds and frees
        assert acc.points_open == 1
        acc.add(3, "e")  # interleaved: point 3 opens while 2 is open
        assert acc.points_open == 2
        acc.add(2, "d")
        assert acc.points_open == 1
        report = acc.memory_report()
        assert report["resident_results"] == 1
        # A completing second result is counted before its point folds
        # and frees, so the high-water mark is 3.
        assert report["peak_in_flight_results"] == 3
        assert report["peak_points_open"] == 2
        # Force-folding the partial point closes it; the mark stays.
        (done,) = acc.flush_incomplete()
        assert done.partial and done.row == (3, ("e",))
        assert acc.points_open == 0
        report = acc.memory_report()
        assert report["resident_results"] == 0
        assert report["peak_points_open"] == 2

    def test_metric_feeds_sketches(self):
        acc = CampaignAccumulator(
            [(1, 3)], _concat_fold, metric=float, quantiles=(0.5,)
        )
        for value in ("1", "2", "9"):
            acc.add(1, value)
        summary = acc.summary()
        assert summary["metric"]["count"] == 3
        assert summary["metric"]["max"] == 9.0
        assert summary["quantiles"]["p50"] == 2.0

    def test_busy_and_wall_accounting(self):
        acc = CampaignAccumulator([(1, 2)], _concat_fold)
        acc.add(1, "a", elapsed_s=1.0, now=101.0)
        (done,) = acc.add(1, "b", elapsed_s=2.0, now=103.0)
        assert done.busy_s == pytest.approx(3.0)
        # Wall spans the first result's inferred start to the last
        # delivery: (101 - 1) .. 103.
        assert done.wall_s == pytest.approx(3.0)

    def test_untimed_results_add_no_wall_or_busy(self):
        # Results resumed from a checkpoint arrive without a clock:
        # they count toward the row and the sketches, not the timing.
        acc = CampaignAccumulator([(1, 3)], _concat_fold, metric=float)
        acc.add(1, "1")
        acc.add(1, "2")
        (done,) = acc.add(1, "3", elapsed_s=2.0, now=50.0)
        assert done.row == (1, ("1", "2", "3"))
        assert done.busy_s == pytest.approx(2.0)
        assert done.wall_s == pytest.approx(2.0)
        assert acc.summary()["metric"]["count"] == 3

    def test_flush_incomplete_force_folds_partial_points(self):
        # Degraded-mode completion (cluster coordinator with
        # allow_missing): points fold over the subset that arrived,
        # flagged partial; points with nothing at all yield no row.
        acc = CampaignAccumulator([(1, 2), (2, 2), (3, 2)], _concat_fold)
        acc.add(1, "a1")
        acc.add(1, "a2")  # complete: released normally
        acc.add(2, "b1")  # half of x=2 arrived; x=3 got nothing
        flushed = acc.flush_incomplete()
        assert [p.x for p in flushed] == [2]
        assert flushed[0].partial
        assert flushed[0].row == (2, ("b1",))
        assert acc.in_flight == 0

    def test_flush_incomplete_releases_held_complete_points_unflagged(self):
        acc = CampaignAccumulator([(1, 2), (2, 2)], _concat_fold)
        acc.add(2, "b1")
        acc.add(2, "b2")  # complete but held back waiting on x=1
        acc.add(1, "a1")
        flushed = acc.flush_incomplete()
        assert [(p.x, p.partial) for p in flushed] == [(1, True), (2, False)]
        assert flushed[0].row == (1, ("a1",))
        assert flushed[1].row == (2, ("b1", "b2"))

    def test_flush_incomplete_on_empty_accumulator(self):
        acc = CampaignAccumulator([(1, 1)], _concat_fold)
        assert acc.flush_incomplete() == []
        assert acc.flush_incomplete() == []  # idempotent

    def test_unknown_x_rejected(self):
        acc = CampaignAccumulator([(1, 1)], _concat_fold)
        with pytest.raises(KeyError):
            acc.add(99, "nope")

    @settings(max_examples=30, deadline=None)
    @given(
        n_points=st.integers(min_value=1, max_value=8),
        expected=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_arrival_order_yields_same_rows(
        self, n_points, expected, seed
    ):
        points = [(x, expected) for x in range(n_points)]
        arrivals = [
            (x, f"r{x}.{i}") for x, _ in points for i in range(expected)
        ]
        random.Random(seed).shuffle(arrivals)
        acc = CampaignAccumulator(points, _concat_fold)
        rows = []
        for x, payload in arrivals:
            rows.extend(p.row for p in acc.add(x, payload))
        assert rows == [
            (x, tuple(sorted(f"r{x}.{i}" for i in range(expected))))
            for x in range(n_points)
        ]
        assert acc.pending == 0
        assert acc.memory_report()["resident_results"] == 0


def test_completed_point_defaults():
    done = CompletedPoint(x=1, row="r", results=())
    assert not done.partial
    assert done.busy_s == 0.0 and done.wall_s == 0.0
