"""The benchmark harness in :mod:`repro.profile`, at toy sizes.

``repro bench`` and the committed ``BENCH_kernel.json`` gate are only
timed under ``benchmarks/``; these tests run every in-process kernel
on tiny inputs so a change to the simulator or the batch tiers that
breaks a harness arm (each paired kernel asserts its arms produce
identical disparities) fails in the unit suite.  They also pin the
report formatting and the regression gate's comparison rules.
"""

from __future__ import annotations

import json

import pytest

from repro.profile import (
    bench_analysis_scaling,
    bench_batch_kernel,
    bench_campaign_kernel,
    bench_columnar_kernel,
    bench_delta_kernel,
    bench_fault_kernel,
    bench_let_kernel,
    bench_sim_kernel,
    bench_structural_kernel,
    compare_to_baseline,
    format_benchmarks,
    load_baseline,
    profile_to_text,
    run_benchmarks,
)
from tests.tiers import BATCH_TIERS

PAIRED = dict(n_tasks=6, sims=2, duration_s=0.3, repeats=1)


@pytest.fixture(scope="module")
def document():
    doc = {
        "schema": 1,
        "quick": True,
        "kernel": bench_sim_kernel(n_tasks=6, sims=1, duration_s=0.3),
        "batch": bench_batch_kernel(**PAIRED),
        "let": bench_let_kernel(**PAIRED),
        "fault": bench_fault_kernel(**PAIRED),
        "delta": bench_delta_kernel(
            n_tasks=6, candidates=4, duration_s=0.1, repeats=1
        ),
        "structural": bench_structural_kernel(
            n_tasks=6, candidates=4, duration_s=0.1, repeats=1
        ),
        "campaign": bench_campaign_kernel(
            points=3, sims_per_graph=1, duration_s=0.1
        ),
        "analysis": bench_analysis_scaling(levels=2, widths=(1, 2), repeats=1),
    }
    if "columnar" in BATCH_TIERS:
        doc["columnar"] = bench_columnar_kernel(**PAIRED)
    return doc


def test_kernels_report_positive_throughput(document):
    assert document["kernel"]["jobs"] > 0
    assert document["kernel"]["jobs_per_s"] > 0
    for section in ("batch", "let", "fault"):
        entry = document[section]
        assert entry["sims"] == PAIRED["sims"]
        assert entry["sequential_s"] > 0 and entry["batched_s"] > 0
        assert entry["speedup"] > 0
    assert document["delta"]["candidates"] == 4
    assert document["campaign"]["scenarios"] == 3
    rows = document["analysis"]
    assert [row["chains"] for row in rows] == [1, 4]
    json.dumps(document)  # the committed baseline is plain JSON


def test_format_names_every_section(document):
    text = format_benchmarks(document)
    labels = ["sim kernel", "batch", "let batch", "fault", "chains"]
    if "columnar" in document:
        labels.append("columnar")
    for label in labels:
        assert label in text


def test_gate_passes_against_itself_and_flags_regressions(document):
    assert compare_to_baseline(document, document) == []
    inflated = json.loads(json.dumps(document))
    inflated["kernel"]["jobs_per_s"] *= 10
    for section in ("batch", "let", "fault", "delta", "structural",
                    "columnar"):
        if section in inflated:
            inflated[section]["speedup"] *= 10
    for row in inflated["analysis"]:
        row["per_chain_us"] /= 10
    messages = compare_to_baseline(document, inflated)
    assert any("sim kernel throughput" in m for m in messages)
    assert any("batch replication speedup" in m for m in messages)
    assert any("LET batch speedup" in m for m in messages)
    assert any("faulted batch speedup" in m for m in messages)
    # Sections absent from either side are skipped.
    assert compare_to_baseline({"schema": 1}, inflated) == []


def test_run_benchmarks_selects_sections():
    doc = run_benchmarks(quick=True, kernels=("analysis",))
    assert set(doc) == {"schema", "quick", "analysis"}
    with pytest.raises(ValueError, match="unknown benchmark kernels"):
        run_benchmarks(kernels=("warp",))


def test_load_baseline(tmp_path):
    assert load_baseline(tmp_path / "missing.json") is None
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"schema": 1}), encoding="utf-8")
    assert load_baseline(path) == {"schema": 1}


def test_profile_to_text():
    result, report = profile_to_text(sum, [1, 2, 3], top=5)
    assert result == 6
    assert "function calls" in report
