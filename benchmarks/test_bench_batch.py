"""Batched-replication benchmarks and their committed-baseline gate.

The batched replication engine (:mod:`repro.sim.batch`) compiles a
scenario once and replays it per replication, where the pre-batch path
re-did the setup inside every ``simulate()`` call.  The same pairing
is measured twice — under implicit semantics (vs the per-sim
``simulate()`` path) and under LET (vs sequential
``simulate(semantics="let")`` runs of the general event loop).  Two
guards each:

* **Structural** — machine independent, properties of one run: the
  batched arm of the paired measurement must beat the sequential arm
  (``bench_batch_kernel`` itself asserts the two arms produce identical
  per-replication disparities, so the win cannot come from doing less
  work).
* **Regression gate** — the quick batch measurement compared against
  the ``batch`` entry of the committed ``BENCH_kernel.json``.  The
  gated metric is the sequential/batched *ratio*, which survives
  machine changes; timing on shared CI runners is still noisy, so a
  regression only *warns* by default (``::warning::`` annotation); set
  ``BENCH_STRICT=1`` to turn it into a failure.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.profile import (
    SCHEMA_VERSION,
    bench_batch_kernel,
    bench_let_kernel,
    compare_to_baseline,
    load_baseline,
)

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


@pytest.mark.benchmark(group="batch")
def test_batched_beats_sequential(benchmark):
    """Compiled-scenario reuse must outrun per-sim setup (same run)."""
    result = benchmark.pedantic(
        bench_batch_kernel,
        kwargs={"sims": 12, "duration_s": 2.0, "repeats": 3},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"batch: {result['sims']} sims "
        f"{result['sequential_s']:.3f}s sequential -> "
        f"{result['batched_s']:.3f}s batched ({result['speedup']:.2f}x)"
    )
    assert result["engine"] in ("columnar", "compiled")
    assert result["batched_s"] < result["sequential_s"]


@pytest.mark.benchmark(group="batch")
def test_committed_batch_gate(benchmark):
    """Quick batch run vs BENCH_kernel.json; warning unless BENCH_STRICT."""
    baseline = load_baseline(BASELINE_PATH)
    assert baseline is not None, f"missing {BASELINE_PATH}"
    assert "batch" in baseline, f"no batch entry in {BASELINE_PATH}"
    batch = benchmark.pedantic(
        bench_batch_kernel,
        kwargs={"sims": 8, "duration_s": 2.0, "repeats": 2},
        rounds=1,
        iterations=1,
    )
    current = {"schema": SCHEMA_VERSION, "quick": True, "batch": batch}
    regressions = compare_to_baseline(current, baseline)
    for message in regressions:
        print(f"::warning::benchmark regression: {message}")
    if os.environ.get("BENCH_STRICT", "") not in ("", "0"):
        assert not regressions, "; ".join(regressions)


@pytest.mark.benchmark(group="let")
def test_let_batched_beats_general_loop(benchmark):
    """LET compiled replay must outrun sequential general-loop runs.

    The sequential arm runs the reference simulator per replication;
    ``bench_let_kernel`` asserts both arms produce identical
    per-replication disparities.
    """
    result = benchmark.pedantic(
        bench_let_kernel,
        kwargs={"sims": 12, "duration_s": 2.0, "repeats": 3},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"let:   {result['sims']} sims "
        f"{result['sequential_s']:.3f}s general loop -> "
        f"{result['batched_s']:.3f}s batched ({result['speedup']:.2f}x)"
    )
    assert result["engine"] in ("columnar", "compiled")
    assert result["batched_s"] < result["sequential_s"]


@pytest.mark.benchmark(group="let")
def test_committed_let_gate(benchmark):
    """Quick LET run vs BENCH_kernel.json; warning unless BENCH_STRICT."""
    baseline = load_baseline(BASELINE_PATH)
    assert baseline is not None, f"missing {BASELINE_PATH}"
    assert "let" in baseline, f"no let entry in {BASELINE_PATH}"
    let = benchmark.pedantic(
        bench_let_kernel,
        kwargs={"sims": 8, "duration_s": 2.0, "repeats": 2},
        rounds=1,
        iterations=1,
    )
    current = {"schema": SCHEMA_VERSION, "quick": True, "let": let}
    regressions = compare_to_baseline(current, baseline)
    for message in regressions:
        print(f"::warning::benchmark regression: {message}")
    if os.environ.get("BENCH_STRICT", "") not in ("", "0"):
        assert not regressions, "; ".join(regressions)
