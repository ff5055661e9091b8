"""Replication statistics for experiment series.

The Fig. 6 harness averages per-graph results; when comparing runs (or
judging whether an ablation's improvement is real) the dispersion
matters too.  This module provides two small pieces:

* :func:`summarize` — mean, sample standard deviation, and a normal-
  approximation confidence half-width for a sample, folded through
  Welford's update (:class:`repro.parallel.aggregate.StreamingStats`);
* :func:`paired_improvement` — mean and dispersion of per-item paired
  differences (e.g. ``Sim - Sim-B`` per graph), the right view for
  "does the optimization help" questions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.parallel.aggregate import StreamingStats


@dataclass(frozen=True)
class Summary:
    """Mean, standard deviation, and a 95% CI half-width."""

    count: int
    mean: float
    std: float
    ci95: float

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.ci95:.3f} (n={self.count})"


#: z-value of the two-sided 95% normal interval.
_Z95 = 1.959963984540054


def summarize(values: Sequence[float]) -> Summary:
    """Mean / std / 95% half-width of a sample (normal approximation)."""
    stats = StreamingStats()
    for value in values:
        stats.add(value)
    stderr = stats.std / math.sqrt(stats.count) if stats.count else 0.0
    return Summary(
        count=stats.count,
        mean=stats.mean,
        std=stats.std,
        ci95=_Z95 * stderr,
    )


def paired_improvement(
    baseline: Sequence[float], treated: Sequence[float]
) -> Summary:
    """Summary of per-item differences ``baseline[i] - treated[i]``.

    Positive means the treatment reduced the metric.  Raises on length
    mismatch — paired statistics are meaningless otherwise.
    """
    if len(baseline) != len(treated):
        raise ValueError(
            f"paired samples differ in length: {len(baseline)} vs {len(treated)}"
        )
    return summarize([b - t for b, t in zip(baseline, treated)])
