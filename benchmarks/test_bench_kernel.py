"""Kernel-ratio benchmarks (:mod:`repro.bench`) and the committed gate.

Every kernel is a spec measured by one paired-arm primitive, which
itself asserts that all arms of a run produce identical outputs, so a
win can never come from doing less work.  On top of that:

* **Structural** — properties of the current run alone, machine
  independent: each spec's winning arm must beat its reference arm,
  and the per-chain analysis cost must fall as the chain count grows
  (prefix sharing + fixed-cost amortization).
* **Committed document** — ``BENCH_kernel.json`` must hold every
  section.
* **Regression gate** — the quick benchmark document compared against
  the committed ``BENCH_kernel.json`` via
  :func:`repro.bench.compare_to_baseline`.  Timing on shared CI
  runners is noisy, so a regression only *warns* by default
  (``::warning::`` annotation); set ``BENCH_STRICT=1`` (e.g. on a
  quiet dedicated box) to turn it into a failure.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import (
    KERNELS,
    SPECS,
    compare_to_baseline,
    load_baseline,
    measure,
    run_benchmarks,
)
from repro.sim.ckernel import load_kernel

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
SPEC = {spec.kernel: spec for spec in SPECS}


@pytest.mark.benchmark(group="kernel")
def test_sim_kernel_throughput(benchmark):
    spec = SPEC["sim"]
    result = benchmark.pedantic(measure, (spec, spec.full), rounds=1, iterations=1)
    print()
    print(
        f"kernel: {result['jobs']} jobs in {result['wall_s']:.2f}s "
        f"-> {result['jobs_per_s']:,.0f} jobs/s"
    )
    assert result["jobs"] > 0


@pytest.mark.benchmark(group="kernel")
def test_analysis_per_chain_cost_falls(benchmark):
    """Prefix sharing: per-chain cost at 15625 chains < cost at 1."""
    spec = SPEC["analysis"]
    rows = benchmark.pedantic(measure, (spec, spec.full), rounds=1, iterations=1)
    print()
    for row in rows:
        print(
            f"{row['chains']:>7} chains: {row['per_chain_us']:.1f} us/chain"
        )
    assert rows[-1]["chains"] > rows[0]["chains"]
    assert rows[-1]["per_chain_us"] < rows[0]["per_chain_us"]


@pytest.mark.benchmark(group="kernel")
@pytest.mark.parametrize(
    "kernel", [spec.kernel for spec in SPECS if spec.winner is not None]
)
def test_winning_arm_beats_reference(benchmark, kernel):
    """Each spec's optimized arm outruns its reference arm (same run)."""
    spec = SPEC[kernel]
    loaded, why = load_kernel()
    if loaded is None:
        pytest.skip(f"columnar kernel unavailable: {why}")
    row = benchmark.pedantic(measure, (spec, spec.quick), rounds=1, iterations=1)
    reference = spec.arms[0]
    print()
    print(
        f"{kernel}: {row[f'{reference}_s']:.3f}s {reference} -> "
        f"{row[f'{spec.winner}_s']:.3f}s {spec.winner} "
        f"({row[spec.columns[0].name]:.2f}x)"
    )
    assert row[f"{spec.winner}_s"] < row[f"{reference}_s"]
    if "engine" in row:
        # Otherwise the pairing compares the simulator with itself.
        assert row["engine"] == "columnar"
    if "delta_replay" in row:
        assert row["delta_replay"], "candidates fell off the delta path"


def test_committed_document():
    """BENCH_kernel.json holds every section, in kernel order."""
    baseline = load_baseline(BASELINE_PATH)
    assert baseline is not None, f"missing {BASELINE_PATH}"
    for spec in SPECS:
        assert spec.section in baseline, f"no {spec.section} entry"
    assert [spec.kernel for spec in SPECS] == list(KERNELS)


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
