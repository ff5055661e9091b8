"""Bounded-memory streaming aggregation for campaign runs.

The campaign engine no longer materializes one result list per X-axis
point.  Instead every per-graph result is handed — in completion order,
from any worker — to a :class:`CampaignAccumulator`, which

* parks it in the slot of its point (results stay resident **only**
  while their point is incomplete — resident memory is O(points in
  flight × graphs per point), not O(campaign)),
* folds the point into its CSV row with the **exact same aggregation
  call** a serial run uses the moment its last graph lands (results are
  sorted by replica index inside the fold, so the row is bit-identical
  to ``--jobs 1`` no matter the completion order), and
* releases completed points to the caller in X-axis order, so progress
  lines read exactly like a serial sweep.

Alongside the exact per-point fold the accumulator maintains *campaign-
wide* sketches over a scalar metric of every result (count / mean /
std via Welford's update, min / max, and P² quantile estimates).  These
are observability only — they never feed the CSV — but they are what a
million-scenario campaign can afford: O(1) state per sketch.

Peak residency is instrumented (:attr:`CampaignAccumulator.peak_in_flight`,
:attr:`~CampaignAccumulator.peak_points_open`) so the bounded-memory
claim is measured, not asserted: :meth:`CampaignAccumulator.summary`
carries it into a campaign's timing report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class StreamingStats:
    """Count / mean / std / min / max in O(1) state (Welford update)."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 below two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "std": round(self.std, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
        }


class P2Quantile:
    """P² single-quantile estimator (Jain & Chlamtac 1985), O(1) state.

    Exact until five observations arrive, then maintained by parabolic
    marker adjustment.  Good to a few percent on unimodal data — plenty
    for a progress line; anything feeding the CSV uses the exact fold.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_rate", "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rate = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, value: float) -> None:
        self.count += 1
        if self.count <= 5:
            self._heights.append(value)
            self._heights.sort()
            return
        h, pos = self._heights, self._positions
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 0
            while value >= h[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._rate[i]
        for i in (1, 2, 3):
            drift = self._desired[i] - pos[i]
            if (drift >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                drift <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] += step * (h[i + int(step)] - h[i]) / (
                        pos[i + int(step)] - pos[i]
                    )
                pos[i] += step
        return

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    @property
    def value(self) -> float:
        """Current estimate (exact below six observations; nan if empty)."""
        if self.count == 0:
            return math.nan
        if self.count <= 5:
            # Nearest-rank on the exact sorted sample.
            rank = max(0, min(len(self._heights) - 1,
                              round(self.q * (len(self._heights) - 1))))
            return self._heights[rank]
        return self._heights[2]


@dataclass
class CompletedPoint:
    """One X-axis point released by the accumulator, in X order."""

    x: int
    row: object
    results: Sequence[object]
    busy_s: float = 0.0
    wall_s: float = 0.0
    #: ``True`` when the row was force-folded over an incomplete result
    #: set (degraded-mode completion; see ``flush_incomplete``).
    partial: bool = False


@dataclass
class _PointSlot:
    expected: int
    results: List[object] = field(default_factory=list)
    busy_s: float = 0.0
    first_start: Optional[float] = None
    last_end: float = 0.0


class CampaignAccumulator:
    """Fold completion-order results into X-ordered campaign rows.

    Args:
        points: ``(x, expected_result_count)`` pairs **in output
            order** (the campaign's X grid).
        fold: The exact aggregation, ``fold(x, results) -> row`` —
            the same callable a serial run applies, so emitted rows
            carry bit-identical floats.
        metric: Optional scalar extractor feeding the campaign-wide
            sketches.
        quantiles: P² sketch targets over ``metric``.
    """

    def __init__(
        self,
        points: Sequence[Tuple[int, int]],
        fold: Callable[[int, Sequence[object]], object],
        *,
        metric: Optional[Callable[[object], float]] = None,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99),
    ) -> None:
        self._order = [x for x, _ in points]
        self._fold = fold
        self._metric = metric
        self._slots: Dict[int, _PointSlot] = {
            x: _PointSlot(expected=expected) for x, expected in points
        }
        self._ready: Dict[int, CompletedPoint] = {}
        self._cursor = 0
        self.stats = StreamingStats()
        self.sketches: Dict[float, P2Quantile] = {
            q: P2Quantile(q) for q in quantiles
        }
        #: Results resident right now / the high-water mark.
        self.in_flight = 0
        self.peak_in_flight = 0
        #: Points holding at least one unfolded result / the high-water
        #: mark.
        self.points_open = 0
        self.peak_points_open = 0
        self.rows_emitted = 0

    # ------------------------------------------------------------------

    def add(
        self,
        x: int,
        result: object,
        *,
        elapsed_s: float = 0.0,
        now: Optional[float] = None,
    ) -> List[CompletedPoint]:
        """Park one result; returns the points this completes, X-ordered.

        ``now`` is the caller's wall clock at delivery; per-point wall
        time spans from the inferred start of the point's first timed
        result (``now - elapsed_s``) to the delivery of its last.  A
        result without ``now`` (one resumed from a checkpoint, or merged
        from a shard file) adds no wall time.
        """
        slot = self._slots[x]
        if not slot.results:
            self.points_open += 1
            if self.points_open > self.peak_points_open:
                self.peak_points_open = self.points_open
        slot.results.append(result)
        slot.busy_s += elapsed_s
        if now is not None:
            if slot.first_start is None:
                slot.first_start = now - elapsed_s
            slot.last_end = now
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        if self._metric is not None:
            value = self._metric(result)
            self.stats.add(value)
            for sketch in self.sketches.values():
                sketch.add(value)
        if len(slot.results) < slot.expected:
            return []
        del self._slots[x]
        self._ready[x] = self._complete(x, slot)
        return self._release()

    def _complete(
        self, x: int, slot: _PointSlot, partial: bool = False
    ) -> CompletedPoint:
        """Fold ``slot`` exactly as a serial run would, and free it."""
        self.in_flight -= len(slot.results)
        self.points_open -= 1
        return CompletedPoint(
            x=x,
            row=self._fold(x, slot.results),
            results=tuple(slot.results),
            busy_s=slot.busy_s,
            wall_s=max(0.0, slot.last_end - (slot.first_start or slot.last_end)),
            partial=partial,
        )

    def flush_incomplete(self) -> List[CompletedPoint]:
        """Force-fold every unreleased point over the results that arrived.

        Degraded-mode completion for the cluster coordinator: when a
        shard's retry budget is exhausted and the caller opted into
        partial output, the remaining points are folded over whatever
        subset of their results exists — with the same aggregation
        callable, sorted by replica inside the fold as always — and
        released in X order, flagged ``partial=True``.  Points that
        received **no** results at all yield no row (there is nothing
        to fold) and are simply skipped; callers report them through
        their coverage accounting.

        Complete points still held back by X-ordering are released
        unflagged on the way.
        """
        out: List[CompletedPoint] = []
        while self._cursor < len(self._order):
            x = self._order[self._cursor]
            done = self._ready.pop(x, None)
            if done is None:
                slot = self._slots.pop(x, None)
                if slot is None or not slot.results:
                    self._cursor += 1
                    continue
                done = self._complete(x, slot, partial=True)
            out.append(done)
            self._cursor += 1
            self.rows_emitted += 1
        return out

    def _release(self) -> List[CompletedPoint]:
        out: List[CompletedPoint] = []
        while self._cursor < len(self._order):
            x = self._order[self._cursor]
            done = self._ready.pop(x, None)
            if done is None:
                break
            out.append(done)
            self._cursor += 1
            self.rows_emitted += 1
        return out

    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Points not yet released (incomplete or held for X order)."""
        return len(self._order) - self.rows_emitted

    def memory_report(self) -> dict:
        """The measured bounded-memory evidence, for benches and logs."""
        return {
            "peak_in_flight_results": self.peak_in_flight,
            "peak_points_open": self.peak_points_open,
            "resident_results": self.in_flight,
        }

    def summary(self) -> dict:
        """Campaign-wide sketch summary (observability, not CSV data)."""
        data = {"metric": self.stats.to_dict()}
        if self.stats.count:
            data["quantiles"] = {
                f"p{int(q * 100)}": round(sketch.value, 6)
                for q, sketch in self.sketches.items()
            }
        data.update(self.memory_report())
        return data


__all__ = [
    "CampaignAccumulator",
    "CompletedPoint",
    "P2Quantile",
    "StreamingStats",
]
