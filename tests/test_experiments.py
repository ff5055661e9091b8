"""Tests for the Fig. 6 experiment harness and reporting."""

import io
from pathlib import Path

import pytest

from repro.experiments.config import (
    DEFAULT_AB,
    PAPER_AB,
    PAPER_CD,
    SMOKE_AB,
    SMOKE_CD,
    Fig6ABConfig,
    Fig6CDConfig,
)
from repro.experiments.fig6 import PointAB, PointCD, run_fig6_ab, run_fig6_cd
from repro.experiments.reporting import (
    check_shapes_ab,
    check_shapes_cd,
    csv_ab,
    csv_cd,
    render_table_ab,
    render_table_cd,
)
from repro.experiments.runner import preset_ab, preset_cd, run_part
from repro.units import seconds


TINY_AB = SMOKE_AB.scaled(
    x_values=(5, 8), graphs_per_point=2, sims_per_graph=2,
    sim_duration=seconds(2), warmup=seconds(1),
)
TINY_CD = SMOKE_CD.scaled(
    x_values=(4, 6), graphs_per_point=2, sims_per_graph=2,
    sim_duration=seconds(2), warmup=seconds(1),
)


@pytest.fixture(scope="module")
def rows_ab():
    return run_fig6_ab(TINY_AB)


@pytest.fixture(scope="module")
def rows_cd():
    return run_fig6_cd(TINY_CD)


class TestConfigs:
    def test_paper_sweeps_match_text(self):
        assert PAPER_AB.x_values == tuple(range(5, 36))
        assert PAPER_CD.x_values == tuple(range(5, 31))
        assert PAPER_AB.sim_duration == seconds(600)
        assert PAPER_AB.graphs_per_point == 10
        assert PAPER_AB.sims_per_graph == 10

    def test_scaled_override(self):
        scaled = DEFAULT_AB.scaled(graphs_per_point=1)
        assert scaled.graphs_per_point == 1
        assert scaled.x_values == DEFAULT_AB.x_values

    def test_presets(self):
        assert preset_ab("paper") is PAPER_AB
        assert preset_cd("smoke") is SMOKE_CD
        with pytest.raises(ValueError):
            preset_ab("nope")


class TestFig6AB:
    def test_row_per_x(self, rows_ab):
        assert [row.n_tasks for row in rows_ab] == [5, 8]

    def test_soundness_shape(self, rows_ab):
        assert check_shapes_ab(rows_ab) == []

    def test_ratios_defined(self, rows_ab):
        for row in rows_ab:
            if row.sim_ms > 0:
                assert row.s_ratio >= 0
                assert row.p_ratio >= row.s_ratio

    def test_deterministic(self):
        again = run_fig6_ab(TINY_AB)
        assert [(r.sim_ms, r.p_diff_ms, r.s_diff_ms) for r in again] == [
            (r.sim_ms, r.p_diff_ms, r.s_diff_ms) for r in run_fig6_ab(TINY_AB)
        ]


class TestFig6CD:
    def test_row_per_x(self, rows_cd):
        assert [row.tasks_per_chain for row in rows_cd] == [4, 6]

    def test_soundness_shape(self, rows_cd):
        assert check_shapes_cd(rows_cd) == []

    def test_buffered_bound_never_worse(self, rows_cd):
        for row in rows_cd:
            assert row.s_diff_b_ms <= row.s_diff_ms + 1e-9


class TestReporting:
    def test_render_ab(self, rows_ab):
        table = render_table_ab(rows_ab)
        assert "P-diff(ms)" in table
        assert str(rows_ab[0].n_tasks) in table

    def test_render_cd(self, rows_cd):
        table = render_table_cd(rows_cd)
        assert "S-diff-B(ms)" in table

    def test_csv_ab(self, rows_ab):
        text = csv_ab(rows_ab)
        lines = text.strip().splitlines()
        assert lines[0].startswith("n_tasks,")
        assert len(lines) == 1 + len(rows_ab)

    def test_csv_cd(self, rows_cd):
        text = csv_cd(rows_cd)
        assert text.startswith("tasks_per_chain,")

    def test_shape_violation_detection(self):
        bad = [PointAB(n_tasks=5, sim_ms=100.0, p_diff_ms=50.0, s_diff_ms=60.0)]
        violations = check_shapes_ab(bad)
        assert len(violations) == 3  # sim>s, sim>p, s>p

    def test_shape_violation_detection_cd(self):
        bad = [
            PointCD(
                tasks_per_chain=5,
                sim_ms=100.0,
                s_diff_ms=50.0,
                sim_b_ms=100.0,
                s_diff_b_ms=60.0,
            )
        ]
        violations = check_shapes_cd(bad)
        assert len(violations) == 3


class TestRunner:
    def test_run_ab_writes_csv(self, tmp_path):
        stream = io.StringIO()
        out_csv = tmp_path / "fig6ab.csv"
        rows = run_part("ab", TINY_AB, out_csv=out_csv, stream=stream, verbose=False)
        assert out_csv.read_bytes().decode() == csv_ab(rows)
        assert out_csv.with_suffix(".timing.json").exists()
        assert len(rows) == 2
        assert "P-diff(ms)" in stream.getvalue()

    def test_run_cd_writes_csv(self, tmp_path):
        stream = io.StringIO()
        out_csv = tmp_path / "fig6cd.csv"
        rows = run_part("cd", TINY_CD, out_csv=out_csv, stream=stream, verbose=False)
        assert out_csv.read_bytes().decode() == csv_cd(rows)
        assert len(rows) == 2
        assert "S-diff-B(ms)" in stream.getvalue()
