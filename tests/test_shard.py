"""Sharded campaign execution: partition, resume, byte-identical merge.

The headline property (satellite of the sharding tentpole) is that for
*any* shard count and *any* order of the shard result files, the merged
rows render to CSV text byte-identical to a serial ``--jobs 1`` run —
under implicit **and** LET semantics.  The hypothesis test below checks
exactly that: per-graph results are computed once (they are pure
functions of ``(config, seed)``), re-partitioned into synthesized shard
files for the drawn shard count, permuted, merged, and compared to the
serial bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import SMOKE_AB
from repro.experiments.fig6 import AB_PART
from repro.parallel import (
    ShardSpec,
    config_fingerprint,
    merge_shards,
    run_campaign,
    run_shard,
)
from repro.parallel.checkpoint import SHARD_FORMAT
from repro.units import seconds

TINY = SMOKE_AB.scaled(
    x_values=(5, 8), graphs_per_point=2, sims_per_graph=2,
    sim_duration=seconds(2), warmup=seconds(1),
)
CONFIGS = {"implicit": TINY, "let": TINY.scaled(semantics="let")}


class TestShardSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(0, 0)
        with pytest.raises(ValueError):
            ShardSpec(3, 3)
        with pytest.raises(ValueError):
            ShardSpec(-1, 2)

    def test_parse_round_trip(self):
        spec = ShardSpec.parse("2/5")
        assert spec == ShardSpec(2, 5)
        assert str(spec) == "2/5"
        assert ShardSpec.parse(" 0/1 ") == ShardSpec(0, 1)

    def test_parse_rejects_garbage(self):
        for bad in ("", "2", "2/", "/3", "a/b", "1/2/3", "-1/2"):
            with pytest.raises(ValueError):
                ShardSpec.parse(bad)

    @given(
        shard_count=st.integers(min_value=1, max_value=64),
        ordinal=st.integers(min_value=0, max_value=10_000),
    )
    def test_every_ordinal_owned_by_exactly_one_shard(
        self, shard_count, ordinal
    ):
        owners = [
            index
            for index in range(shard_count)
            if ShardSpec(index, shard_count).owns(ordinal)
        ]
        assert len(owners) == 1


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """Per-semantics serial CSV bytes + the full per-graph record set.

    Graphs are pure functions of ``(config, seed)``, so one shard run
    at ``0/1`` yields the records every other partition would produce;
    the hypothesis test re-partitions them instead of re-simulating.
    """
    out = {}
    root = tmp_path_factory.mktemp("shards")
    for semantics, config in CONFIGS.items():
        rows, _ = run_campaign(AB_PART, config, jobs=1)
        path = root / f"all-{semantics}.jsonl"
        run_shard(AB_PART, config, ShardSpec(0, 1), str(path))
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        out[semantics] = {
            "csv": AB_PART.to_csv(rows),
            "records": sorted(records, key=lambda r: r["ordinal"]),
        }
    return out


def _write_shard_file(
    path: Path, config, shard: ShardSpec, records, rng
) -> None:
    header = {
        "format": SHARD_FORMAT,
        "part": AB_PART.name,
        "fingerprint": config_fingerprint(AB_PART.name, config),
        "shard_index": shard.shard_index,
        "shard_count": shard.shard_count,
    }
    owned = [r for r in records if shard.owns(r["ordinal"])]
    rng.shuffle(owned)  # record order within a file must not matter
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in owned:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


class TestMergeParity:
    @settings(max_examples=20, deadline=None)
    @given(
        semantics=st.sampled_from(("implicit", "let")),
        shard_count=st.integers(min_value=1, max_value=5),
        order_seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_any_shard_count_and_order_matches_serial_bytes(
        self, baselines, tmp_path_factory, semantics, shard_count, order_seed,
        data,
    ):
        import random

        config = CONFIGS[semantics]
        base = baselines[semantics]
        rng = random.Random(order_seed)
        root = tmp_path_factory.mktemp("merge")
        paths = []
        for index in range(shard_count):
            path = root / f"s{index}.jsonl"
            _write_shard_file(
                path, config, ShardSpec(index, shard_count),
                base["records"], rng,
            )
            paths.append(str(path))
        permuted = data.draw(st.permutations(paths))
        merged = merge_shards(AB_PART, config, permuted)
        assert AB_PART.to_csv(merged) == base["csv"]

    def test_real_shard_runs_merge_to_serial_bytes(
        self, baselines, tmp_path
    ):
        # End to end with actual run_shard executions, not synthesized
        # files, under both semantics.
        for semantics, config in CONFIGS.items():
            paths = []
            for index in range(3):
                path = str(tmp_path / f"{semantics}-{index}.jsonl")
                report = run_shard(
                    AB_PART, config, ShardSpec(index, 3), path
                )
                assert report.n_run == report.n_owned
                paths.append(path)
            merged = merge_shards(AB_PART, config, list(reversed(paths)))
            assert AB_PART.to_csv(merged) == baselines[semantics]["csv"]


class TestShardResume:
    def test_torn_shard_file_resumes_and_merges(self, baselines, tmp_path):
        config = CONFIGS["implicit"]
        paths = []
        for index in range(2):
            path = str(tmp_path / f"s{index}.jsonl")
            run_shard(AB_PART, config, ShardSpec(index, 2), path)
            paths.append(path)
        # Tear the last record of shard 0 mid-line, as a kill would.
        lines = open(paths[0]).read().splitlines(keepends=True)
        torn = lines[:-1] + [lines[-1][: len(lines[-1]) // 2].rstrip("\n")]
        open(paths[0], "w").writelines(torn)
        report = run_shard(AB_PART, config, ShardSpec(0, 2), paths[0])
        assert report.n_resumed == report.n_owned - 1
        assert report.n_run == 1
        merged = merge_shards(AB_PART, config, paths)
        assert AB_PART.to_csv(merged) == baselines["implicit"]["csv"]

    def test_complete_shard_rerun_is_a_no_op(self, tmp_path):
        config = CONFIGS["implicit"]
        path = str(tmp_path / "s0.jsonl")
        first = run_shard(AB_PART, config, ShardSpec(0, 2), path)
        again = run_shard(AB_PART, config, ShardSpec(0, 2), path)
        assert first.n_run == first.n_owned
        assert again.n_resumed == again.n_owned
        assert again.n_run == 0


class TestRecordValidity:
    """One predicate: a dict with an owned, in-range int ``ordinal`` and
    a dict ``result``.  Anything else is re-run, or reported missing."""

    def _replace_first_record(self, path, junk) -> int:
        lines = open(path).read().splitlines(keepends=True)
        ordinal = json.loads(lines[1])["ordinal"]
        junk = {"ordinal": ordinal} if junk is None else junk
        open(path, "w").writelines(
            [lines[0], json.dumps(junk) + "\n"] + lines[2:]
        )
        return ordinal

    def test_record_without_result_is_rerun(self, baselines, tmp_path):
        config = CONFIGS["implicit"]
        path = str(tmp_path / "all.jsonl")
        run_shard(AB_PART, config, ShardSpec(0, 1), path)
        self._replace_first_record(path, None)
        report = run_shard(AB_PART, config, ShardSpec(0, 1), path)
        assert report.n_run == 1
        assert report.n_resumed == report.n_owned - 1
        merged = merge_shards(AB_PART, config, [path])
        assert AB_PART.to_csv(merged) == baselines["implicit"]["csv"]

    @pytest.mark.parametrize(
        "junk",
        [None, {"ordinal": 1, "result": {}}, {"ordinal": 99, "result": {}},
         {"ordinal": True, "result": {}}, {"ordinal": 0, "result": "x"}],
    )
    def test_merge_reports_invalid_record_as_missing(self, tmp_path, junk):
        # Shard 0/2 owns the even ordinals; a record without a result,
        # with a foreign, out-of-range or non-int ordinal, or a
        # non-dict result is a gap, not a KeyError.
        config = CONFIGS["implicit"]
        paths = []
        for index in range(2):
            path = str(tmp_path / f"s{index}.jsonl")
            run_shard(AB_PART, config, ShardSpec(index, 2), path)
            paths.append(path)
        lost = self._replace_first_record(paths[0], junk)
        with pytest.raises(ValueError) as err:
            merge_shards(AB_PART, config, paths)
        message = str(err.value)
        assert f"ordinal(s) {lost}" in message
        assert f"expected in {paths[0]} (file present but partial)" in message


class TestMergeValidation:
    def test_missing_shard_named_in_error(self, tmp_path):
        config = CONFIGS["implicit"]
        path = str(tmp_path / "s0.jsonl")
        run_shard(AB_PART, config, ShardSpec(0, 3), path)
        with pytest.raises(ValueError) as err:
            merge_shards(AB_PART, config, [path])
        message = str(err.value)
        # The error attributes every missing ordinal to the shard that
        # owns it and says no file was supplied for those shards.
        assert "merge incomplete" in message
        assert "ordinal(s) 1" in message
        assert "ordinal(s) 2" in message
        assert "no file supplied for shard 1/3" in message
        assert "no file supplied for shard 2/3" in message

    def test_partial_file_named_with_its_missing_ordinals(self, tmp_path):
        # Regression: a shard file that is present but lost records must
        # be named as the expected owner of the missing ordinals, not
        # just summarized as "shard absent or partial".
        config = CONFIGS["implicit"]
        paths = []
        for index in range(2):
            path = str(tmp_path / f"s{index}.jsonl")
            run_shard(AB_PART, config, ShardSpec(index, 2), path)
            paths.append(path)
        lines = open(paths[1]).read().splitlines(keepends=True)
        dropped = json.loads(lines[-1])["ordinal"]
        open(paths[1], "w").writelines(lines[:-1])
        with pytest.raises(ValueError) as err:
            merge_shards(AB_PART, config, paths)
        message = str(err.value)
        assert f"ordinal(s) {dropped}" in message
        assert f"expected in {paths[1]} (file present but partial)" in message

    def test_disagreeing_shard_counts_rejected(self, tmp_path):
        config = CONFIGS["implicit"]
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        run_shard(AB_PART, config, ShardSpec(0, 2), a)
        run_shard(AB_PART, config, ShardSpec(0, 3), b)
        with pytest.raises(ValueError, match="disagrees"):
            merge_shards(AB_PART, config, [a, b])

    def test_foreign_config_file_rejected(self, tmp_path):
        config = CONFIGS["implicit"]
        other = config.scaled(seed=config.seed + 1)
        path = str(tmp_path / "other.jsonl")
        run_shard(AB_PART, other, ShardSpec(0, 1), path)
        with pytest.raises(ValueError, match="not a shard result file"):
            merge_shards(AB_PART, config, [path])
