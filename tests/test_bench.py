"""The kernel-ratio benchmark harness in :mod:`repro.bench`, at toy sizes.

``repro bench`` and the committed ``BENCH_kernel.json`` gate are only
timed under ``benchmarks/``; these tests run every spec on tiny inputs
through the paired-arm primitive, so a change to the simulator, the
batch tiers, delta replay, the search objective or the pair loop that
makes two arms disagree fails in the unit suite.  They also pin the document layout
the committed baseline depends on, the report formatting and the
gate's rules.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import (
    KERNELS,
    SPECS,
    compare_to_baseline,
    format_benchmarks,
    load_baseline,
    measure,
    run_benchmarks,
)
from repro.profile import profile_to_text

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

REPLICATION = {"n_tasks": 6, "sims": 2, "duration_s": 0.3}
SWEEP = {"n_tasks": 6, "candidates": 4, "duration_s": 0.1}
TOY = {
    "sim": {"n_tasks": 6, "sims": 1, "duration_s": 0.3},
    "batch": REPLICATION,
    "let": REPLICATION,
    "fault": REPLICATION,
    "split": REPLICATION,
    "delta": SWEEP,
    "search": {"n_tasks": 5, "candidates": 3, "max_windows": 4},
    "analysis": [{"levels": 2, "width": 1}, {"levels": 2, "width": 2}],
    "pairs": {"n_tasks": 8, "graphs": 2},
}

#: Key sets of every section of the committed ``BENCH_kernel.json``;
#: a run must keep emitting them, or the baseline stops being comparable.
SECTION_KEYS = {
    "kernel": {"n_tasks", "sims", "duration_s", "jobs", "wall_s", "jobs_per_s",
               "sims_per_s"},
    "batch": {"n_tasks", "sims", "duration_s", "engine", "phases",
              "sequential_s", "batched_s", "speedup", "sims_per_s"},
    "let": {"n_tasks", "sims", "duration_s", "engine", "phases",
            "sequential_s", "batched_s", "speedup", "sims_per_s"},
    "fault": {"n_tasks", "sims", "duration_s", "engine", "phases", "victim",
              "sequential_s", "batched_s", "speedup", "sims_per_s"},
    "split": {"n_tasks", "sims", "duration_s", "threads", "serial_s",
              "split_s", "speedup"},
    "delta": {"n_tasks", "candidates", "duration_s", "delta_replay", "fresh_s",
              "delta_s", "speedup", "candidates_per_s"},
    "search": {"n_tasks", "candidates", "max_windows", "engine",
               "reference_s", "batched_s", "speedup", "candidates_per_s"},
    "analysis": {"levels", "width", "chains", "wall_s", "per_chain_us"},
    "pairs": {"n_tasks", "graphs", "pairs", "evidence_s", "loop_s", "speedup",
              "pairs_per_s"},
}


def _rows(entry):
    return entry if isinstance(entry, list) else [entry]


@pytest.fixture(scope="module")
def document():
    doc = {"schema": 1, "quick": True}
    for spec in SPECS:
        doc[spec.section] = measure(spec, TOY[spec.kernel])
    return doc


def test_kernels_report_positive_throughput(document):
    for spec in SPECS:
        for row in _rows(document[spec.section]):
            assert all(row[f"{arm}_s"] >= 0 for arm in spec.arms)
            assert all(row[column.name] >= 0 for column in spec.columns)
    assert document["kernel"]["jobs"] > 0
    assert document["kernel"]["jobs_per_s"] > 0
    assert document["delta"]["candidates"] == 4
    assert [row["chains"] for row in document["analysis"]] == [1, 4]
    json.dumps(document)  # the committed baseline is plain JSON


def test_section_keys_match_the_committed_baseline(document):
    assert {spec.section for spec in SPECS} == set(SECTION_KEYS)
    for section, keys in SECTION_KEYS.items():
        for row in _rows(document[section]):
            assert set(row) == keys, section
    baseline = load_baseline(BASELINE_PATH)
    assert set(baseline) == {"schema", "quick"} | set(SECTION_KEYS)
    for section, keys in SECTION_KEYS.items():
        for row in _rows(baseline[section]):
            assert set(row) == keys, section


def test_diverging_arm_raises_naming_spec_and_arm():
    spec = next(spec for spec in SPECS if spec.kernel == "delta")

    def build(rng, **shape):
        arms, info = spec.build(rng, **shape)
        return {**arms, "delta": lambda note: []}, info

    with pytest.raises(AssertionError, match="delta benchmark: arm 'delta'"):
        measure(replace(spec, build=build), TOY["delta"])


def test_format_names_every_section(document):
    lines = format_benchmarks(document).splitlines()
    assert [line.split()[0] for line in lines] == [
        spec.kernel for spec in SPECS for _ in _rows(document[spec.section])
    ]
    assert "speedup=" in lines[1]


def test_gate_passes_against_itself_and_flags_regressions(document):
    assert compare_to_baseline(document, document) == []
    inflated = json.loads(json.dumps(document))
    for spec in SPECS:
        for row in _rows(inflated[spec.section]):
            factor = 10 if spec.gate.better == "higher" else 0.1
            row[spec.gate.metric] *= factor
    messages = compare_to_baseline(document, inflated)
    for spec in SPECS:
        rows = [m for m in messages if m.startswith(spec.gate.label + " ")]
        assert len(rows) == len(_rows(document[spec.section])), spec.kernel
    # Sections absent from either side are skipped.
    assert compare_to_baseline({"schema": 1}, inflated) == []


def test_sim_throughput_gated_only_at_the_baseline_shape():
    spec = next(spec for spec in SPECS if spec.kernel == "sim")
    quick = {**spec.quick, "jobs": 4665, "wall_s": 0.05, "jobs_per_s": 93300.0,
             "sims_per_s": 60.0}
    committed = load_baseline(BASELINE_PATH)
    assert committed["kernel"]["n_tasks"] != quick["n_tasks"]
    current = {"schema": 1, "quick": True, "kernel": quick}
    assert compare_to_baseline(current, committed) == []
    inflated = {"kernel": {**quick, "jobs_per_s": quick["jobs_per_s"] * 10}}
    messages = compare_to_baseline(current, inflated)
    assert len(messages) == 1
    assert messages[0].startswith("sim kernel throughput")


def test_quick_shapes_of_the_batch_gates_have_a_committed_row():
    """CI's quick rows of these gates meet a baseline row of their shape."""
    committed = load_baseline(BASELINE_PATH)
    for spec in SPECS:
        if spec.kernel not in ("batch", "let", "fault", "split"):
            continue
        keys = [key for key in spec.shape_keys if key in spec.quick]
        assert keys == ["n_tasks", "sims", "duration_s"], spec.kernel
        assert any(
            all(row[key] == spec.quick[key] for key in keys)
            for row in _rows(committed[spec.section])
        ), spec.kernel


def test_run_benchmarks_selects_sections():
    assert KERNELS[0] == "sim" and len(KERNELS) == len(SPECS)
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
