"""Kernel-throughput benchmarks and the committed-baseline gate.

The hot-path work (DAG-shared backward bounds, batched replay) is
guarded by two kinds of assertion:

* **Structural** — properties of the current run alone, machine
  independent: the per-chain analysis cost must fall as the chain
  count grows (prefix sharing + fixed-cost amortization).
* **Regression gate** — the quick benchmark document compared against
  the committed ``BENCH_kernel.json`` via
  :func:`repro.profile.compare_to_baseline`.  Timing on shared CI
  runners is noisy, so a regression only *warns* by default
  (``::warning::`` annotation); set ``BENCH_STRICT=1`` (e.g. on a
  quiet dedicated box) to turn it into a failure.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.profile import (
    bench_analysis_scaling,
    bench_sim_kernel,
    compare_to_baseline,
    load_baseline,
    run_benchmarks,
)

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


@pytest.mark.benchmark(group="kernel")
def test_sim_kernel_throughput(benchmark):
    result = benchmark.pedantic(bench_sim_kernel, rounds=1, iterations=1)
    print()
    print(
        f"kernel: {result['jobs']} jobs in {result['wall_s']:.2f}s "
        f"-> {result['jobs_per_s']:,.0f} jobs/s"
    )
    assert result["jobs"] > 0


@pytest.mark.benchmark(group="kernel")
def test_analysis_per_chain_cost_falls(benchmark):
    """Prefix sharing: per-chain cost at 15625 chains < cost at 1."""
    rows = benchmark.pedantic(bench_analysis_scaling, rounds=1, iterations=1)
    print()
    for row in rows:
        print(
            f"{row['chains']:>7} chains: {row['per_chain_us']:.1f} us/chain"
        )
    assert rows[-1]["chains"] > rows[0]["chains"]
    assert rows[-1]["per_chain_us"] < rows[0]["per_chain_us"]


@pytest.mark.benchmark(group="kernel")
def test_committed_baseline_gate(benchmark):
    """Quick run vs BENCH_kernel.json; soft warning unless BENCH_STRICT."""
    baseline = load_baseline(BASELINE_PATH)
    assert baseline is not None, f"missing {BASELINE_PATH}"
    current = benchmark.pedantic(
        run_benchmarks, kwargs={"quick": True}, rounds=1, iterations=1
    )
    regressions = compare_to_baseline(current, baseline)
    for message in regressions:
        print(f"::warning::benchmark regression: {message}")
    if os.environ.get("BENCH_STRICT", "") not in ("", "0"):
        assert not regressions, "; ".join(regressions)
