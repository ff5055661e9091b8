"""Cluster coordinator: fault injection, incremental merge, parity.

The coordinator's contract is the sharding contract under fire: no
matter how workers die (SIGKILL mid-shard, torn half-records, stalls,
double-issued shards), the re-issued shards resume from their JSONL
logs and the incrementally merged rows render to CSV text
byte-identical to a serial ``--jobs 1`` run — under implicit **and**
LET semantics.  The fault plans here are injected *inside* the worker
(:class:`ClusterFault` wraps the shard log's append), so every test is
deterministic: a worker dies after exactly N records, not whenever a
racing coordinator happens to notice.

The hypothesis suite drives :class:`IncrementalMerger` directly
against synthesized write interleavings — arbitrary shard counts,
append orders, torn tails, and death/re-issue truncations — and
checks the three-way equality ``incremental fold == merge_shards ==
--jobs 1``.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import SMOKE_AB
from repro.experiments.fig6 import AB_PART
from repro.parallel import (
    ClusterError,
    ClusterFault,
    IncrementalMerger,
    JsonlTail,
    ShardSpec,
    config_fingerprint,
    merge_shards,
    run_campaign,
    run_cluster,
    run_shard,
    write_worker_spec,
)
from repro.parallel.checkpoint import SHARD_FORMAT, JsonlLog
from repro.parallel.worker import load_spec, main as worker_main, run_spec
from repro.sim.ckernel import thread_budget
from repro.units import seconds
from tests.tiers import kernel_threads

ORIGINAL_APPEND = JsonlLog.append

TINY = SMOKE_AB.scaled(
    x_values=(5, 8), graphs_per_point=2, sims_per_graph=2,
    sim_duration=seconds(2), warmup=seconds(1),
)
CONFIGS = {
    "implicit": TINY,
    "let": TINY.scaled(semantics="let"),
    # Two graphs per shard at four shards, so a worker can die mid-shard.
    "wide": TINY.scaled(graphs_per_point=4),
}

# Subprocess workers compute records in milliseconds, so a short
# watchdog deadline is safe everywhere except the stall test, which
# sets its own.
FAST = dict(heartbeat_timeout=30.0, poll_s=0.02, backoff_s=0.1)


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """Serial CSV bytes + the full per-graph record set, per config."""
    out = {}
    root = tmp_path_factory.mktemp("cluster-base")
    for semantics, config in CONFIGS.items():
        rows, _ = run_campaign(AB_PART, config, jobs=1)
        path = root / f"all-{semantics}.jsonl"
        run_shard(AB_PART, config, ShardSpec(0, 1), str(path))
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()[1:]
        ]
        out[semantics] = {
            "csv": AB_PART.to_csv(rows),
            "records": sorted(records, key=lambda r: r["ordinal"]),
        }
    return out


_MARK_VAR = "REPRO_TEST_PROCESS_MARK"


def _marked_processes(mark: str) -> list:
    """Live processes other than this one whose environment has ``mark``."""
    needle = f"{_MARK_VAR}={mark}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read().split(b"\0")
        except OSError:  # exited meanwhile, or not ours to read
            continue
        if needle in environ:
            found.append(int(entry))
    return found


@pytest.fixture
def stray_processes(monkeypatch):
    """Mark every process the test starts; returns a leftover probe.

    The probe waits up to 5 s for marked processes to go and returns
    those still alive; teardown SIGKILLs any that remain.
    """
    if not os.path.isdir("/proc/self"):
        pytest.skip("scans /proc for processes")
    mark = f"{os.getpid()}-{time.monotonic_ns()}"
    monkeypatch.setenv(_MARK_VAR, mark)

    def probe() -> list:
        deadline = time.monotonic() + 5.0
        left = _marked_processes(mark)
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = _marked_processes(mark)
        return left

    yield probe
    for pid in _marked_processes(mark):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class TestFaultInjection:
    @pytest.mark.parametrize("semantics", ("implicit", "let"))
    def test_sigkill_mid_shard_reissues_to_serial_bytes(
        self, baselines, tmp_path, semantics
    ):
        # The acceptance scenario: a worker is SIGKILLed after its
        # first record and leaves a torn half-record behind; the
        # coordinator re-issues, the replacement resumes past the
        # recorded graph, and the CSV is byte-identical to serial.
        rows, report = run_cluster(
            AB_PART, CONFIGS[semantics], shards=2, workers=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(die_after_records=1, tear=True)},
            **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines[semantics]["csv"]
        assert report.complete
        assert report.deaths >= 1 and report.re_issues >= 1
        shard0 = report.shards[0]
        assert shard0.attempts >= 2 and shard0.status == "done"

    def test_resumed_worker_skips_recorded_graphs(self, tmp_path):
        # The re-issued worker must not recompute the graph the dead
        # one already recorded: its shard file keeps exactly one record
        # per owned ordinal (no rewrites, no duplicates).
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=2, workers=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(die_after_records=1)},
            **FAST,
        )
        assert report.complete
        lines = (tmp_path / "shard0.jsonl").read_text().splitlines()
        ordinals = [json.loads(line)["ordinal"] for line in lines[1:]]
        assert sorted(ordinals) == [0, 2]
        assert len(ordinals) == len(set(ordinals))

    def test_killed_worker_leaves_no_pool_children(
        self, baselines, tmp_path, stray_processes
    ):
        # A --jobs 2 worker SIGKILLed mid-shard leaves its pool
        # children behind unless the coordinator kills the worker's
        # whole process group; none may outlive run_cluster.
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=2, workers=2, jobs=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(die_after_records=1)},
            **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines["implicit"]["csv"]
        assert report.deaths >= 1
        assert stray_processes() == []

    def test_one_worker_serves_every_shard(
        self, baselines, tmp_path, stray_processes
    ):
        # A worker outlives its shard: one interpreter runs all four.
        rows, report = run_cluster(
            AB_PART, CONFIGS["wide"], shards=4, workers=1, jobs=2,
            out_dir=str(tmp_path), **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines["wide"]["csv"]
        assert report.launches == 1
        assert report.deaths == 0
        assert all(s.attempts == 1 for s in report.shards)
        assert "1 launch(es)" in report.summary()
        assert stray_processes() == []

    def test_reused_worker_killed_on_later_shard(
        self, baselines, tmp_path, stray_processes
    ):
        # Shards 0 and 1 take both workers, so shard 2 goes to a worker
        # that already finished a shard; it dies there after one record
        # with a torn tail.  The fault counts shard 2's records only.
        rows, report = run_cluster(
            AB_PART, CONFIGS["wide"], shards=4, workers=2,
            out_dir=str(tmp_path),
            faults={2: ClusterFault(die_after_records=1, tear=True)},
            **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines["wide"]["csv"]
        assert report.deaths >= 1
        assert report.shards[2].attempts >= 2
        assert report.launches <= 2 + report.deaths
        assert stray_processes() == []

    def test_worker_dying_after_its_shard_costs_no_death(
        self, baselines, tmp_path, stray_processes
    ):
        # The worker SIGKILLs itself right after shard 0's last record.
        # Shard 0 is complete, so that death is nobody's: shard 1 goes
        # to a fresh worker and completes on its first attempt even
        # with no retries allowed.  The dead worker's --jobs pool
        # children must not outlive run_cluster either.
        rows, report = run_cluster(
            AB_PART, CONFIGS["wide"], shards=4, workers=1, jobs=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(die_after_records=2)},
            max_retries=0, **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines["wide"]["csv"]
        assert report.deaths == 0
        assert report.launches == 2
        assert stray_processes() == []

    def test_stalled_worker_declared_dead_by_watchdog(
        self, baselines, tmp_path
    ):
        # A worker that stops appending but never exits is only
        # detectable through file liveness — the watchdog must kill
        # and re-issue it.
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=2, workers=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(stall_after_records=1)},
            heartbeat_timeout=2.0, poll_s=0.05, backoff_s=0.1,
        )
        assert AB_PART.to_csv(rows) == baselines["implicit"]["csv"]
        assert report.complete
        assert report.deaths >= 1 and report.shards[0].attempts >= 2

    def test_double_issued_shard_is_harmless(self, baselines, tmp_path):
        # Two workers racing on the same shard file: whatever records
        # survive the race, the shard either completes or is re-issued,
        # and the ordinal-deduplicated merge stays byte-identical.
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=2, workers=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(double_issue=True)},
            **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines["implicit"]["csv"]
        assert report.complete

    def test_double_issued_copies_killed_when_shard_completes(
        self, baselines, tmp_path, stray_processes
    ):
        # The slower copy of a double-issued shard may still be running
        # it when the shard completes, so neither copy is reused: shard
        # 1 starts a third worker.
        rows, report = run_cluster(
            AB_PART, CONFIGS["wide"], shards=2, workers=1,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(double_issue=True)},
            **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines["wide"]["csv"]
        assert report.deaths == 0
        assert report.launches == 3
        assert stray_processes() == []

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        # A shard that dies on every attempt must surface as a
        # ClusterError (not hang, not silently drop rows).  With no
        # retries allowed, one death exhausts the budget even though
        # the attempt made progress.
        with pytest.raises(ClusterError, match=r"shard 0/2.*allow-missing"):
            run_cluster(
                AB_PART, CONFIGS["implicit"], shards=2, workers=2,
                out_dir=str(tmp_path),
                faults={
                    0: ClusterFault(die_after_records=1, every_attempt=True)
                },
                max_retries=0,
                **FAST,
            )

    def test_allow_missing_degrades_with_coverage(
        self, baselines, tmp_path
    ):
        # Deterministic gap: shard 0 (owns ordinals 0 and 2) dies after
        # one record with no retries left, so ordinal 2 never arrives.
        # x=5 (ordinals 0, 1) completes exactly; x=8 (ordinals 2, 3) is
        # force-folded over ordinal 3 alone and flagged partial.
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=2, workers=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(die_after_records=1, every_attempt=True)},
            max_retries=0, allow_missing=True,
            **FAST,
        )
        assert not report.complete
        assert report.partial_rows == 1
        assert report.coverage["missing_ordinals"] == [2]
        assert report.coverage["points"]["8"] == {
            "merged": 1, "expected": 2,
        }
        assert report.shards[0].status == "failed"
        # The complete point's row is still the exact serial row.
        serial_first = baselines["implicit"]["csv"].splitlines()[1]
        assert AB_PART.to_csv(rows).splitlines()[1] == serial_first
        # The partial row folds the arrived subset with the exact
        # aggregation (here: ordinal 3's result alone).
        base = baselines["implicit"]["records"]
        expected = AB_PART.aggregate(
            8, [AB_PART.decode_result(base[3]["result"])]
        )
        assert rows[1] == expected

    def test_clean_run_has_no_deaths(self, baselines, tmp_path):
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=3, workers=3,
            out_dir=str(tmp_path), **FAST,
        )
        assert AB_PART.to_csv(rows) == baselines["implicit"]["csv"]
        assert report.deaths == 0 and report.re_issues == 0
        assert all(s.attempts == 1 for s in report.shards)


class TestEventDrivenCoordinator:
    """The coordinator wakes on worker acks, deaths and deadlines.

    Each run sets ``poll_s`` far above what the run needs, so a
    coordinator that slept ``poll_s`` between checks would fail the
    time bound.
    """

    def test_hand_off_does_not_wait_for_poll(self, baselines, tmp_path):
        # One worker serves four shards back to back: each ack wakes
        # the coordinator, which hands the next shard over at once.
        started = time.perf_counter()
        rows, report = run_cluster(
            AB_PART, CONFIGS["wide"], shards=4, workers=1,
            out_dir=str(tmp_path), heartbeat_timeout=30.0, poll_s=5.0,
        )
        assert time.perf_counter() - started < 5.0
        assert report.launches == 1
        assert AB_PART.to_csv(rows) == baselines["wide"]["csv"]

    def test_death_reissued_without_waiting_for_poll(
        self, baselines, tmp_path
    ):
        # The dying worker's stdout reaches EOF; the coordinator sees it
        # at once and re-issues after the 0.1 s backoff.
        started = time.perf_counter()
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=2, workers=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(die_after_records=1)},
            heartbeat_timeout=30.0, poll_s=10.0, backoff_s=0.1,
        )
        assert time.perf_counter() - started < 5.0
        assert report.deaths == 1 and report.shards[0].attempts == 2
        assert AB_PART.to_csv(rows) == baselines["implicit"]["csv"]

    def test_stall_declared_dead_at_the_heartbeat_deadline(
        self, baselines, tmp_path
    ):
        # The stalled worker neither acks nor exits: only the heartbeat
        # deadline wakes the coordinator, about a second after the
        # worker's last record, not after poll_s.
        lines = []
        rows, report = run_cluster(
            AB_PART, CONFIGS["implicit"], shards=2, workers=2,
            out_dir=str(tmp_path),
            faults={0: ClusterFault(stall_after_records=1)},
            heartbeat_timeout=1.0, poll_s=30.0, backoff_s=0.1,
            progress=lambda line: lines.append((time.perf_counter(), line)),
        )
        issued = next(t for t, line in lines if "0/2: issued" in line)
        dead = next(t for t, line in lines if "0/2: dead" in line)
        assert 1.0 <= dead - issued < 5.0
        assert report.deaths == 1 and report.complete
        assert AB_PART.to_csv(rows) == baselines["implicit"]["csv"]


class TestWorkerSpec:
    def test_spec_round_trip(self, tmp_path):
        spec = tmp_path / "w.spec.pkl"
        write_worker_spec(
            str(spec), part="ab", config=TINY, shard=ShardSpec(1, 3),
            out=str(tmp_path / "out.jsonl"), jobs=2, threads=3,
            fault=ClusterFault(double_issue=True),  # not worker-side
        )
        payload = load_spec(str(spec))
        assert payload["part"] == "ab"
        assert payload["config"] == TINY
        assert payload["shard"] == "1/3"
        assert payload["jobs"] == 2
        assert payload["threads"] == 3
        # Coordinator-side faults never ship to the worker.
        assert payload["fault"] is None

    def test_run_spec_executes_shard_in_process(self, tmp_path):
        # The worker body is exercised in-process so coverage sees it;
        # the subprocess path is the same two functions.
        out = tmp_path / "s0.jsonl"
        spec = tmp_path / "w.spec.pkl"
        write_worker_spec(
            str(spec), part="ab", config=TINY, shard=ShardSpec(0, 2),
            out=str(out),
        )
        assert run_spec(str(spec)) == 0
        ordinals = [
            json.loads(line)["ordinal"]
            for line in out.read_text().splitlines()[1:]
        ]
        assert sorted(ordinals) == [0, 2]

    def test_thread_budget_holds_for_one_spec(self, tmp_path, monkeypatch):
        # The spec's kernel threads apply while its shard runs; the
        # worker's own budget is back once it returns.
        seen = []
        monkeypatch.setattr(
            "repro.parallel.shard.run_shard",
            lambda *args, **kwargs: seen.append(thread_budget()),
        )
        spec = tmp_path / "w.spec.pkl"
        write_worker_spec(
            str(spec), part="ab", config=TINY, shard=ShardSpec(0, 2),
            out=str(tmp_path / "s0.jsonl"), threads=3,
        )
        with kernel_threads(5):
            assert run_spec(str(spec)) == 0
            assert thread_budget() == 5
        assert seen == [3]

    def test_workers_get_a_share_of_the_thread_budget(
        self, baselines, tmp_path
    ):
        with kernel_threads(4):
            rows, report = run_cluster(
                AB_PART, TINY, shards=2, workers=2,
                out_dir=str(tmp_path), **FAST,
            )
        assert AB_PART.to_csv(rows) == baselines["implicit"]["csv"]
        specs = sorted(tmp_path.glob("*.spec.pkl"))
        assert specs
        assert [load_spec(str(p))["threads"] for p in specs] == [2] * len(specs)

    def test_main_runs_each_spec_line_until_eof(
        self, tmp_path, monkeypatch, capsys
    ):
        # One worker runs several specs; a fault plan is scoped to its
        # own spec (here it never fires: shard 0/2 has two records),
        # and JsonlLog.append is restored before the next spec runs.
        # Each finished spec is acked as its path on stdout.
        lines = []
        for index in range(2):
            spec = tmp_path / f"w{index}.spec.pkl"
            write_worker_spec(
                str(spec), part="ab", config=TINY,
                shard=ShardSpec(index, 2),
                out=str(tmp_path / f"s{index}.jsonl"),
                fault=ClusterFault(die_after_records=3) if index == 0 else None,
            )
            lines.append(f"{spec}\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
        assert worker_main([]) == 0
        assert capsys.readouterr().out == "".join(lines)
        assert JsonlLog.append is ORIGINAL_APPEND
        for index, owned in ((0, [0, 2]), (1, [1, 3])):
            text = (tmp_path / f"s{index}.jsonl").read_text()
            ordinals = [json.loads(line)["ordinal"] for line in text.splitlines()[1:]]
            assert sorted(ordinals) == owned

    def test_main_usage_error(self, capsys):
        # Specs arrive on stdin only; a positional argument is refused.
        assert worker_main(["w.spec.pkl"]) == 2
        assert "usage" in capsys.readouterr().err


def _header(config, shard: ShardSpec) -> dict:
    return {
        "format": SHARD_FORMAT,
        "part": AB_PART.name,
        "fingerprint": config_fingerprint(AB_PART.name, config),
        "shard_index": shard.shard_index,
        "shard_count": shard.shard_count,
    }


def _write_lines(path: Path, objects) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objects:
            handle.write(json.dumps(obj, sort_keys=True) + "\n")


class TestIncrementalMerger:
    def _merger(self, config, tmp_path, shard_count=2):
        paths = {
            index: str(tmp_path / f"s{index}.jsonl")
            for index in range(shard_count)
        }
        return (
            IncrementalMerger(
                AB_PART, config, shard_count=shard_count, paths=paths
            ),
            {index: Path(path) for index, path in paths.items()},
        )

    def test_duplicates_and_foreign_ordinals_counted(
        self, baselines, tmp_path
    ):
        config = CONFIGS["implicit"]
        records = baselines["implicit"]["records"]
        merger, paths = self._merger(config, tmp_path)
        # Shard 0 owns ordinals 0 and 2; write ordinal 0 twice and a
        # foreign ordinal 1 (owned by shard 1).
        _write_lines(
            paths[0],
            [_header(config, ShardSpec(0, 2)),
             records[0], records[0], records[1]],
        )
        new, released = merger.poll_shard(0)
        assert new == 2  # both deliveries of ordinal 0 count as liveness
        assert merger.duplicates == 1
        assert merger.foreign_records == 1
        assert released == []  # x=5 still missing ordinal 1 via shard 1

    def test_missing_file_and_header_mismatch_tolerated(
        self, baselines, tmp_path
    ):
        config = CONFIGS["implicit"]
        merger, paths = self._merger(config, tmp_path)
        assert merger.poll_shard(0) == (0, [])  # no file yet
        # A stale file from a different campaign: no records, no crash.
        other = config.scaled(seed=config.seed + 1)
        _write_lines(paths[0], [_header(other, ShardSpec(0, 2))])
        assert merger.poll_shard(0) == (0, [])
        # The worker then rewrites it with the right header.
        _write_lines(
            paths[0],
            [_header(config, ShardSpec(0, 2))]
            + [baselines["implicit"]["records"][o] for o in (0, 2)],
        )
        new, _ = merger.poll_shard(0)
        assert new == 2
        assert merger.shard_done(0)

    def test_coverage_accounts_every_ordinal(self, baselines, tmp_path):
        config = CONFIGS["implicit"]
        records = baselines["implicit"]["records"]
        merger, paths = self._merger(config, tmp_path)
        _write_lines(
            paths[0], [_header(config, ShardSpec(0, 2)), records[0]]
        )
        merger.poll_shard(0)
        coverage = merger.coverage()
        assert coverage["merged_records"] == 1
        assert coverage["missing_ordinals"] == [1, 2, 3]
        assert coverage["points"]["5"] == {"merged": 1, "expected": 2}
        assert coverage["points"]["8"] == {"merged": 0, "expected": 2}


class TestJsonlTail:
    def test_torn_tail_never_consumed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = {"format": "f/1"}
        tail = JsonlTail(str(path), expected_header=header)
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write('{"a": 1}\n')
            handle.write('{"a": 2, "tor')  # no newline: in-flight write
        assert tail.poll() == [{"a": 1}]
        assert tail.poll() == []  # torn tail still pending
        with open(path, "a") as handle:
            handle.write('n": true}\n')  # writer finishes the record
        assert tail.poll() == [{"a": 2, "torn": True}]

    def test_truncation_resets_and_redelivers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = {"format": "f/1"}
        tail = JsonlTail(str(path), expected_header=header)
        _write_lines(path, [header, {"a": 1}, {"a": 2}])
        assert len(tail.poll()) == 2
        # A resuming worker truncates the file shorter than consumed.
        _write_lines(path, [header, {"a": 1}])
        assert tail.poll() == [{"a": 1}]  # re-delivered; callers dedupe

    def test_unobserved_truncation_realigns_from_start(self, tmp_path):
        # Regression for the double-issue race: a worker truncates the
        # file and it grows back PAST the consumed offset between two
        # polls, so the shrink check cannot fire and the tail would
        # read from mid-record.  The misaligned garbage line must
        # trigger a realigning re-read, not a permanent record loss.
        path = tmp_path / "t.jsonl"
        header = {"format": "f/1"}
        tail = JsonlTail(str(path), expected_header=header)
        _write_lines(path, [header, {"a": 1}])
        assert tail.poll() == [{"a": 1}]
        # Rewritten larger: the old offset now lands inside record one.
        _write_lines(
            path, [header, {"a": 1, "pad": "x" * 40}, {"b": 2}]
        )
        assert tail.poll() == [{"a": 1, "pad": "x" * 40}, {"b": 2}]
        assert tail.corrupt_lines == 0  # misalignment, not corruption

    def test_corrupt_complete_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = {"format": "f/1"}
        tail = JsonlTail(str(path), expected_header=header)
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write("not json at all\n")
            handle.write('{"a": 1}\n')
        assert tail.poll() == [{"a": 1}]
        assert tail.corrupt_lines == 1


def _events_strategy():
    """Shrinkable interleaving of shard-file lifecycle events.

    ``("append", shard, k)`` appends the shard's next ``k`` owned
    records; ``("tear", shard)`` leaves a torn half-record (a SIGKILL
    mid-write); ``("restart", shard)`` is a re-issued worker resuming:
    it truncates the torn tail exactly like ``JsonlLog.load`` does.
    Appends after an un-restarted tear implicitly restart first — a
    writer never appends after a partial line survives.
    """
    event = st.one_of(
        st.tuples(
            st.just("append"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=4),
        ),
        st.tuples(st.just("tear"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("restart"), st.integers(min_value=0, max_value=3)),
    )
    return st.lists(event, max_size=12)


class TestIncrementalFoldParity:
    @settings(max_examples=25, deadline=None)
    @given(
        semantics=st.sampled_from(("implicit", "let")),
        shard_count=st.integers(min_value=1, max_value=4),
        events=_events_strategy(),
    )
    def test_incremental_equals_merge_shards_equals_serial(
        self, baselines, tmp_path_factory, semantics, shard_count, events
    ):
        config = CONFIGS[semantics]
        base = baselines[semantics]
        root = tmp_path_factory.mktemp("fold")
        paths = {
            index: str(root / f"s{index}.jsonl")
            for index in range(shard_count)
        }
        owned = {
            index: [
                r for r in base["records"]
                if r["ordinal"] % shard_count == index
            ]
            for index in range(shard_count)
        }
        cursor = {index: 0 for index in range(shard_count)}
        torn = {index: False for index in range(shard_count)}

        def ensure_file(index):
            if not os.path.exists(paths[index]):
                _write_lines(
                    Path(paths[index]),
                    [_header(config, ShardSpec(index, shard_count))],
                )

        def drop_torn_tail(index):
            if torn[index]:
                raw = open(paths[index], "rb").read()
                keep = raw[: raw.rfind(b"\n") + 1]
                open(paths[index], "wb").write(keep)
                torn[index] = False

        merger = IncrementalMerger(
            AB_PART, config, shard_count=shard_count, paths=paths
        )
        for event in events:
            kind, index = event[0], event[1] % shard_count
            ensure_file(index)
            if kind == "append":
                drop_torn_tail(index)
                take = owned[index][cursor[index]:cursor[index] + event[2]]
                cursor[index] += len(take)
                with open(paths[index], "a", encoding="utf-8") as handle:
                    for record in take:
                        handle.write(json.dumps(record, sort_keys=True) + "\n")
            elif kind == "tear":
                drop_torn_tail(index)
                with open(paths[index], "a", encoding="utf-8") as handle:
                    handle.write('{"ordinal": 99, "x": 5, "resu')
                torn[index] = True
            else:  # restart
                drop_torn_tail(index)
            merger.poll_shard(index)
        # Completion: every shard finishes its remaining records.
        for index in range(shard_count):
            ensure_file(index)
            drop_torn_tail(index)
            rest = owned[index][cursor[index]:]
            with open(paths[index], "a", encoding="utf-8") as handle:
                for record in rest:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        merger.poll_all()
        assert merger.done
        incremental = AB_PART.to_csv([p.row for p in merger.rows])
        merged = merge_shards(AB_PART, config, list(paths.values()))
        assert incremental == base["csv"]
        assert AB_PART.to_csv(merged) == base["csv"]


class TestClusterCLI:
    def test_cluster_run_cli_matches_serial(
        self, baselines, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        import repro.experiments.runner as runner

        # Pin the smoke preset down to the TINY config so the CLI path
        # (preset resolution included) runs in test time.
        monkeypatch.setitem(runner._PRESETS["ab"], "smoke", TINY)
        csv_path = tmp_path / "out.csv"
        code = main([
            "cluster", "run", "--part", "ab", "--preset", "smoke",
            "--shards", "2", "--workers", "2",
            "--dir", str(tmp_path / "shards"),
            "--csv", str(csv_path),
            "--chaos-kill", "0:1", "--chaos-tear",
            "--backoff", "0.1",
        ])
        assert code == 0
        # Byte comparison: the csv module's \r\n endings must survive
        # (read_text would translate them away).
        assert csv_path.read_bytes() == baselines["implicit"]["csv"].encode()
        report = json.loads(
            (tmp_path / "out.csv.cluster.json").read_text()
        )
        assert report["complete"] and report["deaths"] >= 1
        out = capsys.readouterr().out
        assert "re-issue" in out

    def test_emit_commands_lists_every_shard(self, capsys):
        from repro.cli import main

        code = main([
            "cluster", "run", "--part", "ab", "--preset", "smoke",
            "--shards", "3", "--dir", "out/cluster", "--emit-commands",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for index, line in enumerate(lines):
            assert f"--shard {index}/3" in line
            assert f"out/cluster/shard{index}.jsonl" in line

    def test_chaos_kill_spec_validated(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="SHARD:RECORDS"):
            main([
                "cluster", "run", "--part", "ab", "--preset", "smoke",
                "--shards", "2", "--dir", "out", "--chaos-kill", "bogus",
            ])
