"""Golden regression test: a tiny seeded Fig. 6 run, byte-for-byte.

The repo's correctness contract is cross-PR determinism of the whole
pipeline — scenario generation, analysis, batched simulation (delta
replay included), aggregation, CSV formatting.  The committed files
under ``tests/golden/`` were produced by exactly the configurations
below; every CI run replays them (serial *and* with two worker
processes) and compares the CSV text byte-for-byte.

If an intentional change invalidates the goldens (e.g. a new field in
the CSV, or a semantic change to the derived-seed discipline), refresh
them with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_fig6.py

and include the regenerated files (plus the reason) in the same commit.
An unintentional diff here means replication results silently changed —
that is the regression this test exists to catch.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.config import Fig6ABConfig, Fig6CDConfig
from repro.experiments.fig6 import run_fig6_ab, run_fig6_cd
from repro.experiments.reporting import csv_ab, csv_cd
from repro.units import seconds

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Few tasks, few replications — seconds of runtime, full pipeline.
GOLDEN_AB = Fig6ABConfig(
    x_values=(5, 8),
    graphs_per_point=2,
    sims_per_graph=3,
    sim_duration=seconds(2),
    warmup=seconds(1),
    seed=2023,
)
GOLDEN_CD = Fig6CDConfig(
    x_values=(4, 6),
    graphs_per_point=2,
    sims_per_graph=3,
    sim_duration=seconds(2),
    warmup=seconds(1),
    seed=2023,
)
#: The same sweeps under LET: LET backward bounds and LET replay.
GOLDEN_AB_LET = GOLDEN_AB.scaled(semantics="let")
GOLDEN_CD_LET = GOLDEN_CD.scaled(semantics="let")


def _check(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    # Byte-level I/O: the csv module emits \r\n line endings, and the
    # comparison must see them exactly as committed.
    if os.environ.get("REPRO_UPDATE_GOLDEN", "") not in ("", "0"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
        pytest.skip(f"refreshed {path}")
    assert path.exists(), (
        f"missing golden file {path}; run with REPRO_UPDATE_GOLDEN=1 "
        f"to create it"
    )
    committed = path.read_bytes().decode("utf-8")
    assert text == committed, (
        f"{name} drifted from the committed golden output — the "
        f"gen/analysis/simulation/CSV pipeline is no longer "
        f"byte-deterministic across PRs (or the change is intentional "
        f"and the goldens need REPRO_UPDATE_GOLDEN=1 + review)"
    )


def test_fig6_ab_golden_serial():
    _check("fig6_ab.csv", csv_ab(run_fig6_ab(GOLDEN_AB)))


def test_fig6_cd_golden_serial():
    _check("fig6_cd.csv", csv_cd(run_fig6_cd(GOLDEN_CD)))


def test_fig6_ab_golden_parallel_matches():
    """Two worker processes produce the same bytes as the golden file."""
    _check("fig6_ab.csv", csv_ab(run_fig6_ab(GOLDEN_AB, jobs=2)))


def test_fig6_cd_golden_parallel_matches():
    _check("fig6_cd.csv", csv_cd(run_fig6_cd(GOLDEN_CD, jobs=2)))


def test_fig6_ab_let_golden_serial():
    _check("fig6_ab_let.csv", csv_ab(run_fig6_ab(GOLDEN_AB_LET)))


def test_fig6_cd_let_golden_serial():
    _check("fig6_cd_let.csv", csv_cd(run_fig6_cd(GOLDEN_CD_LET)))


def test_fig6_ab_let_golden_parallel_matches():
    _check("fig6_ab_let.csv", csv_ab(run_fig6_ab(GOLDEN_AB_LET, jobs=2)))


def test_fig6_cd_let_golden_parallel_matches():
    _check("fig6_cd_let.csv", csv_cd(run_fig6_cd(GOLDEN_CD_LET, jobs=2)))


def test_fig6_ab_golden_sharded_merge_matches(tmp_path):
    """Three shards, run separately and merged out of order, produce
    the committed golden bytes — the multi-machine path hits the same
    determinism contract as ``--jobs N``."""
    from repro.experiments.fig6 import AB_PART
    from repro.parallel import ShardSpec, merge_shards, run_shard

    paths = []
    for index in range(3):
        path = str(tmp_path / f"shard-{index}.jsonl")
        run_shard(AB_PART, GOLDEN_AB, ShardSpec(index, 3), path)
        paths.append(path)
    merged = merge_shards(AB_PART, GOLDEN_AB, list(reversed(paths)))
    _check("fig6_ab.csv", csv_ab(merged))


def test_fig6_cd_golden_sharded_merge_matches(tmp_path):
    from repro.experiments.fig6 import CD_PART
    from repro.parallel import ShardSpec, merge_shards, run_shard

    paths = []
    for index in range(2):
        path = str(tmp_path / f"shard-{index}.jsonl")
        run_shard(CD_PART, GOLDEN_CD, ShardSpec(index, 2), path)
        paths.append(path)
    merged = merge_shards(CD_PART, GOLDEN_CD, list(reversed(paths)))
    _check("fig6_cd.csv", csv_cd(merged))
