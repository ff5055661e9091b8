"""Streaming-campaign benchmark: bounded peak residency.

The streaming campaign engine replaces the legacy per-point loop (one
pool barrier and one linear task filter per point, one whole-document
checkpoint rewrite per completed point — both quadratic in the point
count) with a single adaptive map feeding bounded accumulators and an
append-only JSONL checkpoint.  The ``campaign`` spec of
:mod:`repro.bench` runs the same points-heavy synthetic campaign
through both engines with checkpointing enabled, asserts the rows
identical, and records the streaming arm's *measured* peak result
residency next to the legacy arm's whole-campaign row dict.

This file pins the residency bound: it must stay O(points in flight) —
a handful of results — rather than growing with the campaign.  The
streaming-beats-legacy check, the committed-entry evidence and the
regression gate live in ``test_bench_kernel.py`` with the other specs.
"""

from __future__ import annotations

import pytest

from repro.bench import SPECS, measure

SPEC = next(spec for spec in SPECS if spec.kernel == "campaign")


@pytest.mark.benchmark(group="campaign")
def test_streaming_residency_is_bounded(benchmark):
    """Peak residency stays a couple of results on one worker."""
    result = benchmark.pedantic(
        measure, (SPEC, SPEC.quick), rounds=1, iterations=1
    )
    print()
    print(
        f"campaign: {result['scenarios']} scenarios, peak "
        f"{result['peak_in_flight_results']} results in flight vs "
        f"{result['legacy_resident_rows']} resident rows"
    )
    # On one worker at one graph per point, at most a couple of results
    # and open points exist at any instant.
    assert result["peak_in_flight_results"] <= 2
    assert result["peak_points_open"] <= 2
