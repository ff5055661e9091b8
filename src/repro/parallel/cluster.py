"""Cluster coordinator over campaign shards: liveness, re-issue, merge.

PR 8's sharding made a campaign's scenario space a pure function of
``(config, ShardSpec)`` — shards can run on any machine at any time and
:func:`~repro.parallel.shard.merge_shards` folds the files back to
bytes identical to a serial run.  What it left manual was the
orchestration: *somebody* had to notice a dead worker, re-run its
shard, and re-merge.  :func:`run_cluster` is that somebody.

The coordinator owns the full shard partition of one campaign and at
most ``workers`` long-lived local workers (``python -m
repro.parallel.worker``; remote machines get the equivalent ready-to-run
``repro campaign run`` commands).  It issues a shard by writing its
spec-file path to an idle worker's stdin, then watches the shard's
append-only JSONL file for **liveness**: progress is new complete
records, seen through a torn-tail-tolerant
:class:`~repro.parallel.checkpoint.JsonlTail`.  The coordinator is
event-driven: it sleeps in ``select`` on the busy workers' stdout
pipes until one of them writes (a worker acks each finished spec with
one line) or reaches EOF (the worker died), or until the next deadline
(a heartbeat or a re-issue backoff), and never longer than ``poll_s``.
A finished shard leaves its worker idle, and a pending shard goes to it
in the same pass.  A shard whose file stops growing past
``heartbeat_timeout`` seconds — or whose workers exit without covering
its ordinals — is declared dead, their process groups are killed, and
it is **re-issued** with exponential backoff under a bounded retry
budget.  The shard file doubles as its resume log, so a
re-issued worker skips every recorded graph: completed work is never
recomputed, no matter how many times a worker dies.

Merging is **incremental**: every record is folded into the same
bounded-memory :class:`~repro.parallel.aggregate.CampaignAccumulator`
discipline a single-machine campaign uses (park per point, fold with
the exact serial aggregation the moment the point completes, release
rows in X order), deduplicated by global ordinal so double-issued
shards and re-delivered records are harmless.  The final rows — and
the CSV rendered from them — are therefore **byte-identical to
``--jobs 1``** regardless of worker deaths, re-issues, or completion
order.  When a shard exhausts its retry budget, ``allow_missing=True``
degrades gracefully instead of failing: the remaining points are
force-folded over the results that did arrive (flagged partial) and
the :class:`ClusterReport` carries an explicit coverage account of
every missing ordinal.

:class:`ClusterFault` is the fault-injection layer the test suite and
the CI smoke leg drive: a worker can be told to SIGKILL itself after N
records (optionally leaving a torn half-record), to stall without
exiting, or a shard can be double-issued on purpose.  Faults apply to
the *first* issue only unless ``every_attempt`` is set, so re-issues
demonstrate recovery rather than re-injection.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Set, Union

from repro.parallel.aggregate import CompletedPoint
from repro.parallel.campaign import CampaignPart, _accumulator, get_part
from repro.parallel.checkpoint import JsonlTail, shard_header, valid_record
from repro.parallel.engine import resolve_jobs
from repro.parallel.shard import ShardSpec
from repro.sim.ckernel import thread_budget


class ClusterError(RuntimeError):
    """A shard exhausted its retry budget (and partial output was not
    requested), or shard files turned out not to belong to the campaign."""


@dataclass(frozen=True)
class ClusterFault:
    """Worker-side fault plan for one shard (the test layer).

    Attributes:
        die_after_records: SIGKILL the worker right after it appended
            this many records to this shard (per attempt).
        tear: With ``die_after_records``, first write half a record
            with no newline — the torn tail a mid-``write`` kill leaves.
        stall_after_records: Stop appending after this many records but
            keep the process alive — what a wedged worker looks like.
        double_issue: Coordinator-side: send this shard's first issue
            to two workers, both appending to the same file.
        every_attempt: Re-apply the fault on every re-issue (default:
            first issue only, so recovery is observable).
    """

    die_after_records: Optional[int] = None
    tear: bool = False
    stall_after_records: Optional[int] = None
    double_issue: bool = False
    every_attempt: bool = False

    @property
    def worker_side(self) -> bool:
        return (
            self.die_after_records is not None
            or self.stall_after_records is not None
        )


def write_worker_spec(
    path: str,
    *,
    part: Union[str, CampaignPart],
    config,
    shard: ShardSpec,
    out: str,
    jobs: int = 1,
    threads: int = 1,
    fault: Optional[ClusterFault] = None,
) -> str:
    """Write the spec file a worker subprocess consumes: one pickled dict.

    The part and config classes must be importable in the worker, which
    inherits the coordinator's environment and working directory.
    """
    payload = {
        "part": part,
        "config": config,
        "shard": str(shard),
        "out": out,
        "jobs": jobs,
        "threads": threads,
        "fault": fault if fault is not None and fault.worker_side else None,
    }
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    return path


class IncrementalMerger:
    """Fold shard-file records into campaign rows as they appear.

    One :class:`~repro.parallel.checkpoint.JsonlTail` per shard file,
    one ordinal-deduplicated stream into a
    :class:`~repro.parallel.aggregate.CampaignAccumulator` whose fold
    is the part's exact serial aggregation — so the rows this merger
    releases (in X order) are the rows ``--jobs 1`` produces, no matter
    the arrival order, duplicates from double-issued shards, torn
    tails, or how records are spread across re-issued attempts.

    The merger is deliberately independent of process management: the
    hypothesis suite drives it directly against synthesized write
    interleavings, and the coordinator reuses the per-shard record
    stream as its liveness signal.
    """

    def __init__(
        self,
        part: Union[str, CampaignPart],
        config,
        *,
        shard_count: int,
        paths: Dict[int, str],
    ) -> None:
        resolved = get_part(part)
        self.part = resolved
        self.config = config
        self.shard_count = shard_count
        self._tasks = resolved.tasks(config)
        self._decode = resolved.decode_result
        self._acc, self.expected_by_x = _accumulator(
            resolved, config, self._tasks
        )
        self._owned: Dict[int, Set[int]] = {
            index: set(range(index, len(self._tasks), shard_count))
            for index in paths
        }
        self._tails: Dict[int, JsonlTail] = {
            index: JsonlTail(
                path,
                expected_header=shard_header(
                    resolved.name, config, (index, shard_count)
                ),
            )
            for index, path in paths.items()
        }
        #: Ordinals merged so far (across all shards).
        self.seen: Set[int] = set()
        #: Re-delivered or double-issued records ignored.
        self.duplicates = 0
        #: Records failing :func:`~repro.parallel.checkpoint.valid_record`
        #: (e.g. an ordinal the polled shard does not own).
        self.foreign_records = 0
        #: Every released point, in X order (partial ones flagged).
        self.rows: List[CompletedPoint] = []

    @property
    def expected_records(self) -> int:
        return len(self._tasks)

    def owned(self, index: int) -> Set[int]:
        return self._owned[index]

    def shard_done(self, index: int) -> bool:
        """Whether every ordinal this shard owns has been merged."""
        return self._owned[index] <= self.seen

    @property
    def done(self) -> bool:
        return len(self.seen) == len(self._tasks)

    def poll_shard(self, index: int) -> tuple:
        """Drain one shard file; returns ``(new_records, released)``.

        ``new_records`` counts every fresh complete record line — the
        liveness signal — including duplicates (a double-issued worker
        re-covering old ground is alive, just redundant).
        """
        released: List[CompletedPoint] = []
        new = 0
        for record in self._tails[index].poll():
            if not valid_record(
                record, len(self._tasks), index, self.shard_count
            ):
                self.foreign_records += 1
                continue
            ordinal = record["ordinal"]
            new += 1
            if ordinal in self.seen:
                self.duplicates += 1
                continue
            self.seen.add(ordinal)
            task = self._tasks[ordinal]
            released.extend(
                self._acc.add(task.x, self._decode(record["result"]))
            )
        self.rows.extend(released)
        return new, released

    def poll_all(self) -> List[CompletedPoint]:
        released: List[CompletedPoint] = []
        for index in self._tails:
            released.extend(self.poll_shard(index)[1])
        return released

    def flush_incomplete(self) -> List[CompletedPoint]:
        """Degraded mode: force-fold what arrived (see the accumulator)."""
        released = self._acc.flush_incomplete()
        self.rows.extend(released)
        return released

    def coverage(self) -> dict:
        """The explicit account degraded-mode completion ships with."""
        missing = [
            ordinal
            for ordinal in range(len(self._tasks))
            if ordinal not in self.seen
        ]
        per_x: Dict[int, int] = {x: 0 for x in self.expected_by_x}
        for ordinal in self.seen:
            per_x[self._tasks[ordinal].x] += 1
        return {
            "expected_records": len(self._tasks),
            "merged_records": len(self.seen),
            "duplicates": self.duplicates,
            "foreign_records": self.foreign_records,
            "missing_ordinals": missing,
            "points": {
                str(x): {"merged": per_x[x], "expected": self.expected_by_x[x]}
                for x in self.expected_by_x
            },
        }


@dataclass
class ClusterShardReport:
    """What happened to one shard across all its issues."""

    index: int
    path: str
    status: str
    attempts: int
    deaths: int
    records: int
    owned: int
    wall_s: float

    @property
    def re_issues(self) -> int:
        return max(0, self.attempts - 1)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["re_issues"] = self.re_issues
        data["wall_s"] = round(self.wall_s, 6)
        return data


@dataclass
class ClusterReport:
    """Observability record of one :func:`run_cluster` call."""

    part: str
    shard_count: int
    workers: int
    #: Worker processes started; only a death costs a relaunch.
    launches: int = 0
    wall_s: float = 0.0
    shards: List[ClusterShardReport] = field(default_factory=list)
    coverage: dict = field(default_factory=dict)
    rows: int = 0
    partial_rows: int = 0
    complete: bool = False

    @property
    def deaths(self) -> int:
        return sum(shard.deaths for shard in self.shards)

    @property
    def re_issues(self) -> int:
        return sum(shard.re_issues for shard in self.shards)

    def to_dict(self) -> dict:
        return {
            "part": self.part,
            "shard_count": self.shard_count,
            "workers": self.workers,
            "launches": self.launches,
            "wall_s": round(self.wall_s, 6),
            "complete": self.complete,
            "rows": self.rows,
            "partial_rows": self.partial_rows,
            "deaths": self.deaths,
            "re_issues": self.re_issues,
            "shards": [shard.to_dict() for shard in self.shards],
            "coverage": self.coverage,
        }

    def summary(self) -> str:
        note = ""
        if self.deaths:
            note = f", {self.deaths} death(s), {self.re_issues} re-issue(s)"
        if not self.complete:
            missing = len(self.coverage.get("missing_ordinals", ()))
            note += f", DEGRADED: {missing} graph(s) missing"
        return (
            f"cluster {self.part}: {self.rows} row(s) from "
            f"{self.shard_count} shard(s) on {self.workers} worker(s), "
            f"{self.launches} launch(es) in {self.wall_s:.2f}s{note}"
        )


@dataclass
class ClusterStatus:
    """Live snapshot handed to the ``heartbeat`` hook every wake."""

    shard_count: int
    done: int
    running: int
    pending: int
    failed: int
    deaths: int
    merged_records: int
    expected_records: int
    rows_released: int
    wall_s: float


@dataclass
class _ShardState:
    spec: ShardSpec
    path: str
    status: str = "pending"  # pending | running | done | failed
    attempts: int = 0
    deaths: int = 0
    procs: List[subprocess.Popen] = field(default_factory=list)
    last_progress: float = 0.0
    next_eligible: float = 0.0
    issued_at: float = 0.0
    wall_s: float = 0.0
    records: int = 0

    @property
    def index(self) -> int:
        return self.spec.shard_index


def run_cluster(
    part: Union[str, CampaignPart],
    config,
    *,
    shards: int,
    out_dir: str,
    workers: int = 0,
    jobs: int = 1,
    heartbeat_timeout: float = 300.0,
    max_retries: int = 2,
    backoff_s: float = 1.0,
    poll_s: float = 0.1,
    allow_missing: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    heartbeat: Optional[Callable[[ClusterStatus], None]] = None,
    faults: Optional[Dict[int, ClusterFault]] = None,
) -> tuple:
    """Run a whole campaign through fault-tolerant local workers.

    Returns ``(rows, report)``.  ``rows`` renders through
    ``part.to_csv`` to bytes identical to ``run_campaign(..., jobs=1)``
    whenever the run completes — enforced by the fault-injection suite
    and the CI smoke leg even across SIGKILLed workers, torn shard
    files, and double-issued shards.

    Args:
        part: Registered part name or a :class:`CampaignPart` whose
            callables are module-level (workers unpickle them).
        config: The campaign preset (must be picklable).
        shards: Number of :class:`ShardSpec` slices to partition into.
        out_dir: Directory for shard JSONL files, worker specs/logs.
        workers: Concurrent local worker processes (``0`` = all CPUs).
        jobs: ``--jobs`` inside each worker (its own process pool).
            Each worker's kernel threads are this process's
            :func:`~repro.sim.ckernel.thread_budget` over ``workers``.
        heartbeat_timeout: Seconds without a new complete record before
            a running shard is declared dead and its workers killed.
        max_retries: Re-issues allowed per shard after its first issue.
        backoff_s: Base of the exponential re-issue backoff
            (``backoff_s * 2**(deaths-1)`` seconds).
        poll_s: Longest coordinator sleep.  The coordinator wakes at
            once on a worker's ack or death, and at heartbeat and
            backoff deadlines; ``poll_s`` only bounds how stale shard
            progress, row lines and the ``heartbeat`` hook can get.
        allow_missing: On retry exhaustion, degrade to partial rows
            plus a coverage report instead of raising
            :class:`ClusterError`.
        progress: Optional line sink (row lines exactly like a serial
            campaign, plus lifecycle lines).
        heartbeat: Optional hook observing a :class:`ClusterStatus`
            snapshot after every wake (feeds the CLI status line).
        faults: Optional fault plan per shard index (the test layer).
    """
    resolved = get_part(part)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    workers_n = resolve_jobs(workers)
    threads = max(1, thread_budget() // workers_n)
    faults = dict(faults or {})
    os.makedirs(out_dir, exist_ok=True)
    width = len(str(shards - 1))
    states = [
        _ShardState(
            spec=ShardSpec(index, shards),
            path=os.path.join(out_dir, f"shard{index:0{width}d}.jsonl"),
        )
        for index in range(shards)
    ]
    merger = IncrementalMerger(
        resolved,
        config,
        shard_count=shards,
        paths={state.index: state.path for state in states},
    )

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    def emit_rows(released: List[CompletedPoint]) -> None:
        for point in released:
            line = resolved.format_progress(point.row)
            say(line + (" [partial]" if point.partial else ""))

    pool: List[subprocess.Popen] = []  # every worker started; reaped if killed

    def start_worker() -> subprocess.Popen:
        with open(os.path.join(out_dir, f"worker{len(pool)}.log"), "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.parallel.worker"],
                stdin=subprocess.PIPE,
                bufsize=0,  # a path is one write, never a buffered flush
                stdout=subprocess.PIPE,  # one ack line per finished spec
                stderr=log,
                # Own process group, so a kill reaches the worker's
                # --jobs pool children too.
                start_new_session=True,
            )
        pool.append(proc)
        return proc

    def issue(state: _ShardState, now: float) -> None:
        state.attempts += 1
        fault = faults.get(state.index)
        if fault is not None and state.attempts > 1 and not fault.every_attempt:
            fault = None
        spec_path = os.path.join(
            out_dir, f"shard{state.index:0{width}d}.spec.pkl"
        )
        write_worker_spec(
            spec_path,
            part=part if isinstance(part, str) else resolved,
            config=config,
            shard=state.spec,
            out=state.path,
            jobs=jobs,
            threads=threads,
            fault=fault,
        )
        n_procs = 2 if fault is not None and fault.double_issue else 1
        busy = [proc for other in states for proc in other.procs]
        idle = [p for p in pool if p not in busy and p.returncode is None]
        # A worker that died idle costs a relaunch, not a death here.
        kill([p for p in idle if p.poll() is not None])
        idle = [p for p in idle if p.returncode is None]
        for _ in range(n_procs):
            proc = idle.pop(0) if idle else start_worker()
            try:
                proc.stdin.write(f"{spec_path}\n".encode())
            except BrokenPipeError:
                pass  # died just now: this shard's exit check sees it
            state.procs.append(proc)
        state.status = "running"
        state.issued_at = now
        state.last_progress = now
        say(
            f"shard {state.spec}: issued (attempt {state.attempts}"
            + (f", {n_procs} workers" if n_procs > 1 else "")
            + ")"
        )

    def kill(procs: List[subprocess.Popen]) -> None:
        # Kill the whole group even when its leader is dead already:
        # a SIGKILLed worker leaves its pool children running.
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for proc in procs:
            proc.stdin.close()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                pass

    def settle(state: _ShardState, status: str, now: float) -> None:
        state.wall_s += now - state.issued_at
        state.status = status
        if status != "done" or len(state.procs) > 1:
            kill(state.procs)  # dead, or a double issue's slower copy
        state.procs = []

    def on_death(state: _ShardState, reason: str, now: float) -> None:
        state.deaths += 1
        settle(state, "pending", now)
        if state.attempts > max_retries:
            state.status = "failed"
            say(
                f"shard {state.spec}: dead ({reason}); retry budget of "
                f"{max_retries} exhausted"
            )
            if not allow_missing:
                raise ClusterError(
                    f"shard {state.spec} failed after {state.attempts} "
                    f"attempt(s): {reason} (re-run with allow_missing / "
                    f"--allow-missing for partial rows, or raise "
                    f"max_retries)"
                )
            return
        delay = backoff_s * (2 ** (state.deaths - 1))
        state.next_eligible = now + delay
        say(
            f"shard {state.spec}: dead ({reason}); re-issue "
            f"{state.deaths} in {delay:.1f}s"
        )

    def wait() -> None:
        # Sleep until a busy worker's stdout turns readable (an ack, or
        # EOF when it dies) or the next heartbeat or backoff deadline
        # falls due, and never longer than poll_s.
        now = time.perf_counter()
        deadline = now + poll_s
        pipes = {}
        for state in states:
            if state.status == "running":
                deadline = min(
                    deadline, state.last_progress + heartbeat_timeout
                )
                for proc in state.procs:
                    if proc.returncode is None:
                        pipes[proc.stdout] = proc
            elif state.status == "pending" and state.next_eligible > now:
                deadline = min(deadline, state.next_eligible)
        readable, _, _ = select.select(
            list(pipes), [], [], max(0.0, deadline - now)
        )
        for pipe in readable:
            if not os.read(pipe.fileno(), 4096):
                kill([pipes[pipe]])  # EOF: the worker is gone, reap it

    started = time.perf_counter()
    try:
        while True:
            now = time.perf_counter()
            # Settle first, so a worker freed in this pass takes a
            # pending shard in this pass too.
            for state in states:
                if state.status != "running":
                    continue
                new, released = merger.poll_shard(state.index)
                if new:
                    state.last_progress = now
                    state.records = len(
                        merger.owned(state.index) & merger.seen
                    )
                emit_rows(released)
                if merger.shard_done(state.index):
                    settle(state, "done", now)
                    say(
                        f"shard {state.spec}: complete "
                        f"({state.records} graph(s), "
                        f"attempt {state.attempts})"
                    )
                elif all(proc.poll() is not None for proc in state.procs):
                    codes = sorted(
                        {proc.returncode for proc in state.procs}
                    )
                    on_death(
                        state,
                        f"worker exit {codes} with shard incomplete",
                        now,
                    )
                elif now - state.last_progress > heartbeat_timeout:
                    on_death(
                        state,
                        f"no new records for {heartbeat_timeout:.1f}s",
                        now,
                    )
            running = sum(1 for s in states if s.status == "running")
            for state in states:
                if (
                    state.status == "pending"
                    and running < workers_n
                    and now >= state.next_eligible
                ):
                    issue(state, now)
                    running += 1
            if heartbeat is not None:
                heartbeat(
                    ClusterStatus(
                        shard_count=shards,
                        done=sum(1 for s in states if s.status == "done"),
                        running=sum(
                            1 for s in states if s.status == "running"
                        ),
                        pending=sum(
                            1 for s in states if s.status == "pending"
                        ),
                        failed=sum(1 for s in states if s.status == "failed"),
                        deaths=sum(s.deaths for s in states),
                        merged_records=len(merger.seen),
                        expected_records=merger.expected_records,
                        rows_released=len(merger.rows),
                        wall_s=now - started,
                    )
                )
            if all(state.status == "done" for state in states):
                break
            if not any(
                state.status in ("pending", "running") for state in states
            ):
                break  # only failed shards left (allow_missing path)
            wait()
    finally:
        kill([proc for proc in pool if proc.returncode is None])
        for proc in pool:
            proc.stdout.close()

    partial_rows = 0
    if not merger.done:
        # Retry budgets exhausted under allow_missing: degraded-mode
        # completion — fold what arrived, report what did not.
        flushed = merger.flush_incomplete()
        partial_rows = sum(1 for point in flushed if point.partial)
        emit_rows(flushed)

    report = ClusterReport(
        part=resolved.name,
        shard_count=shards,
        workers=workers_n,
        launches=len(pool),
        wall_s=time.perf_counter() - started,
        shards=[
            ClusterShardReport(
                index=state.index,
                path=state.path,
                status=state.status,
                attempts=state.attempts,
                deaths=state.deaths,
                records=len(merger.owned(state.index) & merger.seen),
                owned=len(merger.owned(state.index)),
                wall_s=state.wall_s,
            )
            for state in states
        ],
        coverage=merger.coverage(),
        rows=len(merger.rows),
        partial_rows=partial_rows,
        complete=merger.done,
    )
    say(report.summary())
    return [point.row for point in merger.rows], report


__all__ = [
    "ClusterError",
    "ClusterFault",
    "ClusterReport",
    "ClusterShardReport",
    "ClusterStatus",
    "IncrementalMerger",
    "run_cluster",
    "write_worker_spec",
]
