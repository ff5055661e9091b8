"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Expected ``repro analyze`` stdout, captured once and compared byte
#: for byte: the chains, both bounds with their pair counts and worst
#: pairs, and the buffer design.
ANALYZE_DIR = Path(__file__).resolve().parent / "analyze"


class TestParser:
    def test_fig6_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.part == "all"
        assert args.preset == "default"

    def test_fig6_options(self):
        args = build_parser().parse_args(
            ["fig6", "--part", "ab", "--preset", "smoke", "--duration", "2",
             "--graphs", "1", "--sims", "1", "--seed", "3", "--quiet"]
        )
        assert args.part == "ab"
        assert args.duration == 2.0
        assert args.quiet

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--preset", "huge"])

    def test_fig6_semantics_option(self):
        args = build_parser().parse_args(["fig6", "--semantics", "let"])
        assert args.semantics == "let"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--semantics", "banana"])

    def test_campaign_run_options(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--part", "ab", "--preset", "smoke",
             "--shard", "1/3", "--out", "s1.jsonl", "--jobs", "2"]
        )
        assert args.campaign_command == "run"
        assert args.shard == "1/3"
        assert args.out == "s1.jsonl"
        assert args.jobs == 2

    def test_campaign_run_requires_shard_and_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--part", "ab"])

    def test_campaign_merge_options(self):
        args = build_parser().parse_args(
            ["campaign", "merge", "--part", "ab", "a.jsonl", "b.jsonl",
             "--csv", "out.csv"]
        )
        assert args.campaign_command == "merge"
        assert args.shards == ["a.jsonl", "b.jsonl"]
        assert args.csv == "out.csv"


class TestCommands:
    def test_waters(self, capsys):
        assert main(["waters"]) == 0
        out = capsys.readouterr().out
        assert "ACET(us)" in out
        assert "200" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--tasks", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "P-diff" in out
        assert "S-diff" in out
        assert "chains into" in out

    @pytest.mark.parametrize(
        "tasks, seed, expected",
        [(8, 1, "tasks8_seed1.txt"), (12, 5, "tasks12_seed5.txt")],
    )
    def test_analyze_output_is_pinned(self, capsys, tasks, seed, expected):
        assert main(["analyze", "--tasks", str(tasks), "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert out == (ANALYZE_DIR / expected).read_text()

    def test_analyze_save_and_load(self, capsys, tmp_path):
        path = tmp_path / "workload.json"
        assert main(["analyze", "--tasks", "8", "--seed", "2",
                     "--output", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["analyze", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "S-diff" in out

    def test_report(self, capsys):
        assert main(["report", "--tasks", "8", "--seed", "2",
                     "--requirement", "k1=300"]) == 0
        out = capsys.readouterr().out
        assert "utilization per unit" in out
        assert "disparity bounds" in out

    def test_report_bad_requirement(self):
        with pytest.raises(SystemExit):
            main(["report", "--tasks", "6", "--requirement", "oops"])

    def test_diagnose(self, capsys):
        assert main(["diagnose", "--tasks", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst-case time disparity" in out
        assert "binding pair" in out

    def test_diagnose_with_optimize(self, capsys):
        assert main(
            ["diagnose", "--tasks", "6", "--seed", "3", "--optimize"]
        ) == 0
        out = capsys.readouterr().out
        assert "priority optimization" in out

    def test_fig6_smoke(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "fig6",
                "--part",
                "ab",
                "--preset",
                "smoke",
                "--duration",
                "2",
                "--graphs",
                "1",
                "--sims",
                "1",
                "--quiet",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "P-diff(ms)" in out

    def test_fig6_all_writes_one_csv_per_sweep(self, capsys, tmp_path):
        # Under the default --part all, --csv splits per sweep like
        # --checkpoint does: <stem>.ab.csv and <stem>.cd.csv, each with
        # its timing report.
        from repro.experiments import preset_ab, preset_cd
        from repro.experiments.fig6 import AB_PART, CD_PART
        from repro.parallel import run_campaign
        from repro.units import seconds

        stem = tmp_path / "fig6.csv"
        scale = ["--preset", "smoke", "--duration", "2", "--graphs", "1",
                 "--sims", "1"]
        assert main(["fig6", *scale, "--quiet", "--csv", str(stem),
                     "--checkpoint", str(tmp_path / "fig6.ckpt")]) == 0
        for part, presets in ((AB_PART, preset_ab), (CD_PART, preset_cd)):
            config = presets("smoke").scaled(
                sim_duration=seconds(2), graphs_per_point=1, sims_per_graph=1
            )
            csv_path = tmp_path / f"fig6.{part.name}.csv"
            rows, _ = run_campaign(part, config)
            assert csv_path.read_bytes().decode() == part.to_csv(rows)
            assert (tmp_path / f"fig6.{part.name}.timing.json").exists()
            assert (tmp_path / f"fig6.ckpt.{part.name}").exists()
        assert not stem.exists()

    def test_campaign_run_and_merge_match_direct_run(self, capsys, tmp_path):
        # Two shards run via the CLI, merged via the CLI (files passed
        # out of order), must reproduce the direct serial CSV bytes.
        from repro.experiments import preset_ab
        from repro.experiments.fig6 import run_fig6_ab
        from repro.experiments.reporting import csv_ab
        from repro.units import seconds

        scale = ["--preset", "smoke", "--duration", "2", "--graphs", "1",
                 "--sims", "1"]
        paths = []
        for index in range(2):
            path = tmp_path / f"shard-{index}.jsonl"
            assert main(
                ["campaign", "run", "--part", "ab", *scale,
                 "--shard", f"{index}/2", "--out", str(path), "--quiet"]
            ) == 0
            assert path.exists()
            paths.append(str(path))
        merged_csv = tmp_path / "merged.csv"
        capsys.readouterr()
        assert main(
            ["campaign", "merge", "--part", "ab", *scale,
             *reversed(paths), "--csv", str(merged_csv)]
        ) == 0
        assert "merged 2 shard file(s)" in capsys.readouterr().out
        config = preset_ab("smoke").scaled(
            sim_duration=seconds(2), graphs_per_point=1, sims_per_graph=1
        )
        # Byte-level read: the csv module's \r\n endings must survive.
        assert merged_csv.read_bytes().decode() == csv_ab(run_fig6_ab(config))

    def test_campaign_merge_prints_csv_without_path(self, capsys, tmp_path):
        path = tmp_path / "only.jsonl"
        scale = ["--preset", "smoke", "--duration", "2", "--graphs", "1",
                 "--sims", "1"]
        assert main(
            ["campaign", "run", "--part", "ab", *scale,
             "--shard", "0/1", "--out", str(path), "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "merge", "--part", "ab", *scale, str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("n_tasks,")

    def test_campaign_run_rejects_bad_shard_spec(self):
        with pytest.raises(ValueError):
            main(["campaign", "run", "--part", "ab", "--preset", "smoke",
                  "--shard", "3/2", "--out", "x.jsonl", "--quiet"])
