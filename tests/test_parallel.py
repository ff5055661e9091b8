"""The parallel experiment engine: parity, chunking, checkpoint/resume.

The headline guarantee is determinism: because every Fig. 6 graph task
carries a pre-derived seed and results are collected in input order,
``jobs=1`` and ``jobs=N`` must produce byte-identical CSVs.  These
tests pin that guarantee at every layer — the generic pool map, the
campaign orchestration, and the rendered CSV text.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial

import pytest

from repro.experiments.config import SMOKE_AB, SMOKE_CD
from repro.experiments.fig6 import (
    AB_PART,
    graph_tasks,
    run_fig6_ab,
    run_fig6_cd,
    run_graph_ab,
)
from repro.experiments.reporting import csv_ab, csv_cd
from repro.parallel import (
    PoolRunner,
    ShardSpec,
    config_fingerprint,
    merge_shards,
    resolve_jobs,
    run_campaign,
    run_shard,
)
from repro.sim.ckernel import thread_budget
from repro.units import seconds
from tests.tiers import kernel_threads

def _double(value: int) -> int:
    return 2 * value


def _kernel_threads(_item) -> int:
    return thread_budget()


TINY_AB = SMOKE_AB.scaled(
    x_values=(5, 8), graphs_per_point=2, sims_per_graph=2,
    sim_duration=seconds(2), warmup=seconds(1),
)
TINY_CD = SMOKE_CD.scaled(
    x_values=(4, 6), graphs_per_point=2, sims_per_graph=2,
    sim_duration=seconds(2), warmup=seconds(1),
)


class TestPoolEngine:
    def test_map_ordered_serial(self):
        config = TINY_AB
        tasks = graph_tasks(config)
        with PoolRunner(1) as pool:
            results, stats = pool.map_ordered(
                partial(run_graph_ab, config), tasks
            )
        assert [r.seed for r in results] == [t.seed for t in tasks]
        assert stats.n_items == len(tasks)
        assert stats.busy_s > 0.0
        assert stats.wall_s >= stats.busy_s * 0.5  # sanity, same process

    def test_map_ordered_parallel_matches_serial(self):
        config = TINY_AB
        tasks = graph_tasks(config)
        fn = partial(run_graph_ab, config)
        with PoolRunner(1) as pool:
            serial, _ = pool.map_ordered(fn, tasks)
        with PoolRunner(3) as pool:
            parallel, stats = pool.map_ordered(fn, tasks)

        def measured(result):
            # Everything except the wall-clock timing, which varies.
            return (result.n_tasks, result.graph_index, result.seed,
                    result.sim_ms, result.p_diff_ms, result.s_diff_ms)

        assert [measured(r) for r in serial] == [measured(r) for r in parallel]
        assert stats.jobs == 3
        assert stats.completed == len(tasks)

    def test_map_consume_streams_without_retaining(self):
        config = TINY_AB
        tasks = graph_tasks(config)
        seen = {}
        beats = []
        with PoolRunner(2) as pool:
            stats = pool.map_consume(
                partial(run_graph_ab, config),
                tasks,
                on_item=lambda i, r, elapsed: seen.setdefault(i, r),
                heartbeat=lambda snapshot: beats.append(snapshot.completed),
            )
        assert sorted(seen) == list(range(len(tasks)))
        assert all(seen[i].seed == t.seed for i, t in enumerate(tasks))
        assert stats.completed == len(tasks)
        # One heartbeat per item, each after one more delivery.
        assert beats == list(range(1, len(tasks) + 1))

    def test_fast_items_each_come_back_once_in_order(self):
        items = list(range(200))
        with PoolRunner(2) as pool:
            results, stats = pool.map_ordered(_double, items)
        assert results == [2 * i for i in items]
        assert stats.completed == stats.n_items == 200

    @pytest.mark.parametrize("budget, share", ((4, 2), (3, 1), (1, 1)))
    def test_workers_share_the_kernel_thread_budget(self, budget, share):
        # Pool workers and their kernel threads stay within the
        # parent's CPUs: each worker gets budget // jobs, at least 1.
        with kernel_threads(budget), PoolRunner(2) as pool:
            results, _stats = pool.map_ordered(_kernel_threads, range(4))
            assert thread_budget() == budget
        assert results == [share] * 4

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1


class TestSeedDerivation:
    def test_seeds_fixed_per_task_regardless_of_filter(self):
        config = TINY_AB
        full = {(t.x, t.graph_index): t.seed for t in graph_tasks(config)}
        only_last = graph_tasks(config, x_values=(config.x_values[-1],))
        for task in only_last:
            assert full[(task.x, task.graph_index)] == task.seed

    def test_seeds_distinct(self):
        seeds = [t.seed for t in graph_tasks(SMOKE_AB)]
        assert len(set(seeds)) == len(seeds)


class TestCsvParity:
    def test_ab_jobs1_vs_jobs4_identical_csv(self):
        serial = csv_ab(run_fig6_ab(TINY_AB, jobs=1))
        parallel = csv_ab(run_fig6_ab(TINY_AB, jobs=4))
        assert serial == parallel

    def test_cd_jobs1_vs_jobs4_identical_csv(self):
        serial = csv_cd(run_fig6_cd(TINY_CD, jobs=1))
        parallel = csv_cd(run_fig6_cd(TINY_CD, jobs=4))
        assert serial == parallel


class TestTiming:
    def test_stage_breakdown_and_utilization(self):
        rows, timing = run_campaign(AB_PART, TINY_AB, jobs=2)
        assert len(rows) == len(TINY_AB.x_values)
        assert timing.wall_s > 0.0
        assert 0.0 < timing.utilization <= 1.0
        totals = timing.stage_totals()
        assert totals["simulate_s"] > 0.0
        report = timing.to_dict()
        assert [p["x"] for p in report["points"]] == list(TINY_AB.x_values)
        json.dumps(report)  # must be JSON-serializable as-is


N_GRAPHS = len(graph_tasks(TINY_AB))


def _run_ab(checkpoint, config=TINY_AB):
    return run_campaign(AB_PART, config, checkpoint=checkpoint)


class _Interrupted(RuntimeError):
    pass


def _dying_part(k: int):
    """``AB_PART`` whose ``run_graph`` raises once ``k`` graphs ran."""
    ran = []

    def run_graph(config, task):
        if len(ran) == k:
            raise _Interrupted(f"killed after {k} graph(s)")
        ran.append(task)
        return run_graph_ab(config, task)

    return replace(AB_PART, run_graph=run_graph)


class TestCheckpoint:
    def test_round_trip_resumes_every_point(self, tmp_path):
        path = str(tmp_path / "ab.ckpt.json")
        rows, first = _run_ab(path)
        assert first.resumed_graphs == 0
        again, second = _run_ab(path)
        assert again == rows
        assert second.resumed_graphs == N_GRAPHS
        assert [p.resumed_graphs for p in second.points] == [
            TINY_AB.graphs_per_point
        ] * len(TINY_AB.x_values)

    def test_partial_checkpoint_resumes_prefix(self, tmp_path):
        path = str(tmp_path / "ab.ckpt.json")
        rows, _ = _run_ab(path)
        # Drop the last record line, as if the run had been killed
        # between two appends.
        lines = open(path).read().splitlines(keepends=True)
        open(path, "w").writelines(lines[:-1])
        again, timing = _run_ab(path)
        assert again == rows
        assert timing.resumed_graphs == N_GRAPHS - 1
        assert timing.map_stats["n_items"] == 1

    def test_torn_final_line_skipped_and_truncated(self, tmp_path):
        # A kill mid-append leaves a torn (newline-less) final line:
        # resume must keep every intact record, lose only the torn one,
        # and truncate it away so the log stays valid JSONL.
        path = str(tmp_path / "ab.ckpt.json")
        rows, _ = _run_ab(path)
        lines = open(path).read().splitlines(keepends=True)
        torn = lines[:-1] + [lines[-1][: len(lines[-1]) // 2].rstrip("\n")]
        open(path, "w").writelines(torn)
        again, timing = _run_ab(path)
        assert again == rows
        assert timing.resumed_graphs == N_GRAPHS - 1
        for line in open(path).read().splitlines():
            json.loads(line)  # every surviving line parses

    @pytest.mark.parametrize("k", [1, 3])
    def test_kill_mid_point_resumes_per_graph(self, tmp_path, k):
        # Interrupted after k graphs (k=1 is inside the first point),
        # the checkpoint holds exactly those k records; the rerun runs
        # only the rest and renders the uninterrupted run's bytes.
        path = str(tmp_path / "ab.ckpt")
        with pytest.raises(_Interrupted):
            run_campaign(_dying_part(k), TINY_AB, jobs=1, checkpoint=path)
        lines = open(path).read().splitlines()
        assert len(lines) == 1 + k
        rows, timing = _run_ab(path)
        assert timing.resumed_graphs == k
        assert timing.map_stats["n_items"] == N_GRAPHS - k
        assert csv_ab(rows) == csv_ab(run_fig6_ab(TINY_AB))
        # Resumed graphs count toward the row and the campaign sketch,
        # but add no busy or stage seconds.
        assert timing.stream["metric"]["count"] == N_GRAPHS
        first = timing.points[0]
        assert first.graphs == TINY_AB.graphs_per_point
        assert first.resumed_graphs == min(k, first.graphs)

    def test_checkpoint_is_a_one_shard_file(self, tmp_path):
        # A checkpoint merges like a shard file, and a 0/1 shard file
        # resumes as a checkpoint: one record format for both.
        expected = csv_ab(run_fig6_ab(TINY_AB))
        checkpoint = str(tmp_path / "ab.ckpt")
        _run_ab(checkpoint)
        assert csv_ab(merge_shards(AB_PART, TINY_AB, [checkpoint])) == expected
        shard_file = str(tmp_path / "all.jsonl")
        run_shard(AB_PART, TINY_AB, ShardSpec(0, 1), shard_file)
        rows, timing = _run_ab(shard_file)
        assert timing.resumed_graphs == N_GRAPHS
        assert timing.map_stats is None
        assert csv_ab(rows) == expected

    def test_invalid_records_are_rerun(self, tmp_path):
        # A parseable record without a result, or with a foreign or
        # out-of-range ordinal, is not a recorded graph.
        path = str(tmp_path / "ab.ckpt")
        rows, _ = _run_ab(path)
        lines = open(path).read().splitlines(keepends=True)
        dropped = json.loads(lines[1])["ordinal"]
        junk = [{"ordinal": dropped}, {"ordinal": N_GRAPHS, "result": {}},
                {"ordinal": "0", "result": {}}, ["not", "a", "dict"]]
        open(path, "w").writelines(
            [lines[0]] + lines[2:] + [json.dumps(j) + "\n" for j in junk]
        )
        again, timing = _run_ab(path)
        assert again == rows
        assert timing.resumed_graphs == N_GRAPHS - 1

    def test_legacy_whole_json_checkpoint_invalidated(self, tmp_path):
        # The pre-JSONL format stored one whole JSON document; its
        # first line is not a matching header, so it loads as empty
        # and the run starts fresh instead of crashing.
        path = str(tmp_path / "ab.ckpt.json")
        legacy = {"fingerprint": "old", "order": ["5"], "rows": {"5": {}}}
        open(path, "w").write(json.dumps(legacy, indent=2) + "\n")
        rows, timing = _run_ab(path)
        assert timing.resumed_graphs == 0
        assert len(rows) == len(TINY_AB.x_values)

    def test_per_point_jsonl_checkpoint_starts_fresh(self, tmp_path):
        # A per-point JSONL checkpoint (one row per X value, as older
        # versions wrote) carries another format tag: it loads as empty
        # and is rewritten as a shard file.
        path = str(tmp_path / "ab.ckpt")
        header = {
            "format": "per-point-rows/1",
            "fingerprint": config_fingerprint("ab", TINY_AB),
        }
        old = [header, {"x": 5, "row": {"n_tasks": 5, "sim_ms": 1.0}}]
        open(path, "w").writelines(json.dumps(o) + "\n" for o in old)
        rows, timing = _run_ab(path)
        assert timing.resumed_graphs == 0
        assert csv_ab(rows) == csv_ab(run_fig6_ab(TINY_AB))
        assert csv_ab(merge_shards(AB_PART, TINY_AB, [path])) == csv_ab(rows)

    def test_fully_resumed_campaign_reports_zero_utilization(self, tmp_path):
        # Every graph resumed -> no graph ran -> utilization must be
        # 0.0, not a ZeroDivisionError from busy/(wall * jobs).
        path = str(tmp_path / "ab.ckpt.json")
        _run_ab(path)
        _, timing = _run_ab(path)
        assert timing.resumed_graphs == N_GRAPHS
        assert timing.utilization == 0.0
        assert timing.busy_s == 0.0
        assert all(value == 0.0 for value in timing.stage_totals().values())
        json.dumps(timing.to_dict())

    def test_config_change_invalidates_checkpoint(self, tmp_path):
        path = str(tmp_path / "ab.ckpt.json")
        _run_ab(path)
        changed = TINY_AB.scaled(seed=TINY_AB.seed + 1)
        _, timing = _run_ab(path, changed)
        assert timing.resumed_graphs == 0

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        path = str(tmp_path / "ab.ckpt.json")
        open(path, "w").write("not json {")
        rows, timing = _run_ab(path)
        assert timing.resumed_graphs == 0
        assert len(rows) == len(TINY_AB.x_values)

    def test_fingerprint_covers_part_and_config(self):
        assert config_fingerprint("ab", TINY_AB) != config_fingerprint(
            "cd", TINY_AB
        )
        assert config_fingerprint("ab", TINY_AB) != config_fingerprint(
            "ab", TINY_AB.scaled(graphs_per_point=3)
        )


class TestCampaign:
    def test_unknown_part_rejected(self):
        with pytest.raises(ValueError):
            run_campaign("xy", TINY_AB)

    def test_progress_lines_cover_points_and_summary(self):
        lines = []
        run_campaign("ab", TINY_AB, progress=lines.append)
        assert len(lines) == len(TINY_AB.x_values) + 1
        assert "wall" in lines[-1]
