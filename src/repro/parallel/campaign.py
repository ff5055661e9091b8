"""Campaign orchestration: stream, aggregate, checkpoint, time.

A *campaign* is one sweep along an X axis — classically the Fig. 6
parts ``"ab"`` / ``"cd"``, but any workload can register a
:class:`CampaignPart` with :func:`register_part` or pass one directly.
The part bundles everything the engine needs to stay generic: how to
derive the task list, run one graph, fold a point's results into a row,
encode/decode per-graph results for shard files, and render rows as
progress lines and CSV.

Execution is **streaming**: every per-graph task of every pending point
goes into one :meth:`~repro.parallel.engine.PoolRunner.map_consume`
call, results are folded into a
:class:`~repro.parallel.aggregate.CampaignAccumulator` the moment they
arrive, and completed rows are released in X order and printed while
later points are still computing.  No per-point barrier, no per-point
result lists: resident memory is O(points in flight), and a single
item stream keeps workers saturated across heterogeneous point costs.

A checkpoint is a one-shard log (shard ``0/1``, see
:mod:`repro.parallel.checkpoint`): every fresh graph result is appended
the moment it arrives, and a rerun folds every recorded graph back
before mapping only the unrecorded ones, so a kill loses at most the
graphs in flight.  :func:`run_campaign` and
:func:`~repro.parallel.shard.run_shard` share that load → skip recorded
→ map → append loop.

Because graphs are pure functions of ``(config, seed)`` with seeds
derived upfront, and the per-point fold sorts by replica index, the
produced rows — and hence the CSV — are identical for any ``jobs``
value and identical to the sharded run + merge of
:mod:`repro.parallel.shard`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.parallel.aggregate import CampaignAccumulator, CompletedPoint
from repro.parallel.checkpoint import (
    JsonlLog,
    shard_header,
    shard_record,
    valid_record,
)
from repro.parallel.engine import MapStats, PoolRunner, resolve_jobs


@dataclass(frozen=True)
class CampaignPart:
    """Everything the campaign engine needs to run one kind of sweep.

    Attributes:
        name: Registry key (``"ab"``, ``"cd"``, ...); also the
            shard-file fingerprint component.
        tasks: ``tasks(config) -> list`` of schedulable units, each
            with ``.x``, ``.graph_index`` and ``.seed`` attributes, in
            the canonical (X-major) order — list position is the global
            ordinal the shard partition is defined over.
        run_graph: Pure worker function ``(config, task) -> result``.
        aggregate: Exact fold ``(x, results) -> row`` (must sort by
            replica index internally so completion order never leaks).
        decode_result: Inverse of ``dataclasses.asdict`` for the
            per-graph result dataclass (shard files and checkpoints
            round-trip results as JSON).
        format_progress: One human line per completed row.
        to_csv: Render rows to the part's CSV text.
        metric: Scalar per-result observable feeding the campaign-wide
            streaming sketches (mean/min/max/percentiles).
    """

    name: str
    tasks: Callable[[object], Sequence[object]]
    run_graph: Callable[[object, object], object]
    aggregate: Callable[[int, Sequence[object]], object]
    decode_result: Callable[[dict], object]
    format_progress: Callable[[object], str]
    to_csv: Callable[[Sequence[object]], str]
    metric: Callable[[object], float]


_REGISTRY: Dict[str, CampaignPart] = {}


def register_part(part: CampaignPart) -> CampaignPart:
    """Register ``part`` under its name (idempotent; returns it)."""
    _REGISTRY[part.name] = part
    return part


def get_part(part: Union[str, CampaignPart]) -> CampaignPart:
    """Resolve a part name (or pass a part through).

    The Fig. 6 parts register themselves when
    :mod:`repro.experiments.fig6` is imported; unknown names list the
    registered choices.
    """
    if isinstance(part, CampaignPart):
        return part
    if part not in _REGISTRY:
        from repro.experiments import fig6  # noqa: F401  (registers ab/cd)
    found = _REGISTRY.get(part)
    if found is None:
        raise ValueError(
            f"unknown campaign part {part!r}; "
            f"registered: {tuple(sorted(_REGISTRY))}"
        )
    return found


@dataclass
class PointTiming:
    """Timing record of one X-axis point of a campaign.

    ``graphs`` counts every result folded into the row; the
    ``resumed_graphs`` of them came from the checkpoint and add no busy
    or stage seconds.
    """

    x: int
    graphs: int
    wall_s: float
    busy_s: float
    utilization: float
    generate_s: float
    analyze_s: float
    simulate_s: float
    resumed_graphs: int = 0

    def to_dict(self) -> dict:
        return {
            key: round(value, 6) if isinstance(value, float) else value
            for key, value in asdict(self).items()
        }


@dataclass
class CampaignTiming:
    """Aggregated observability of one campaign run."""

    part: str
    jobs: int
    wall_s: float = 0.0
    points: List[PointTiming] = field(default_factory=list)
    #: Final :class:`~repro.parallel.engine.MapStats` of the streaming
    #: map (``None`` when every graph was resumed from checkpoint).
    map_stats: Optional[dict] = None
    #: Campaign-wide sketch summary + peak-residency counters from the
    #: streaming accumulator (observability only, never CSV data).
    stream: Optional[dict] = None

    @property
    def resumed_graphs(self) -> int:
        return sum(point.resumed_graphs for point in self.points)

    @property
    def busy_s(self) -> float:
        return sum(point.busy_s for point in self.points)

    @property
    def utilization(self) -> float:
        """Whole-campaign worker busy fraction of the streaming map.

        Uses the map's own wall/busy accounting (point walls overlap
        under cross-point streaming, so summing them would overstate
        the denominator); a fully resumed campaign ran no map and
        reports 0.0.
        """
        if self.jobs <= 0 or self.map_stats is None:
            return 0.0
        wall = float(self.map_stats.get("wall_s", 0.0))
        busy = float(self.map_stats.get("busy_s", 0.0))
        if wall <= 0.0:
            return 0.0
        return min(1.0, busy / (wall * self.jobs))

    def stage_totals(self) -> dict:
        return {
            "generate_s": round(sum(p.generate_s for p in self.points), 6),
            "analyze_s": round(sum(p.analyze_s for p in self.points), 6),
            "simulate_s": round(sum(p.simulate_s for p in self.points), 6),
        }

    def to_dict(self) -> dict:
        data = {
            "part": self.part,
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 6),
            "busy_s": round(self.busy_s, 6),
            "utilization": round(self.utilization, 4),
            "resumed_graphs": self.resumed_graphs,
            "stage_totals": self.stage_totals(),
            "points": [point.to_dict() for point in self.points],
        }
        if self.map_stats is not None:
            data["map"] = self.map_stats
        if self.stream is not None:
            data["stream"] = self.stream
        return data

    def summary(self) -> str:
        """One human line for ``--progress`` output."""
        stages = self.stage_totals()
        return (
            f"{self.part}: {self.wall_s:.2f}s wall with {self.jobs} "
            f"worker(s), {self.utilization:.0%} busy "
            f"(generate {stages['generate_s']:.2f}s, "
            f"analyze {stages['analyze_s']:.2f}s, "
            f"simulate {stages['simulate_s']:.2f}s"
            + (
                f"; {self.resumed_graphs} graph(s) resumed)"
                if self.resumed_graphs
                else ")"
            )
        )


def _accumulator(
    part: CampaignPart, config, tasks: Sequence[object]
) -> Tuple[CampaignAccumulator, Dict[int, int]]:
    """The part's accumulator over the X grid, and each point's graph count."""
    expected = dict.fromkeys(config.x_values, 0)
    for task in tasks:
        expected[task.x] += 1
    acc = CampaignAccumulator(
        list(expected.items()), part.aggregate, metric=part.metric
    )
    return acc, expected


def _run_recorded(
    part: CampaignPart,
    config,
    tasks: Sequence[object],
    path: Optional[str],
    shard: Tuple[int, int],
    *,
    jobs: int,
    on_result: Optional[Callable[[int, object, Optional[float]], None]],
    heartbeat: Optional[Callable[[MapStats], None]],
    progress: Optional[Callable[[str], None]],
    label: str,
) -> Tuple[int, int, Optional[MapStats]]:
    """Load the shard file at ``path``, skip its recorded graphs, map the
    rest and append each.

    Works on the ordinals ``shard = (index, count)`` owns.  Every valid
    record is decoded and handed to ``on_result(ordinal, result, None)``
    before the map starts; each fresh result is appended and then
    handed over with its busy seconds.  Without ``on_result`` recorded
    results are only counted, never decoded; without ``path`` nothing
    is read or recorded.  Returns ``(recorded, run, map_stats)``.
    """
    index, count = shard
    recorded: Dict[int, dict] = {}
    log = None
    if path is not None:
        log = JsonlLog(path, shard_header(part.name, config, shard))
        for record in log.load():
            if valid_record(record, len(tasks), index, count):
                recorded[record["ordinal"]] = record["result"]
    if recorded and progress is not None:
        progress(f"{label}: {len(recorded)} recorded graph(s) found")
    if on_result is not None:
        for ordinal in sorted(recorded):
            on_result(ordinal, part.decode_result(recorded[ordinal]), None)
    work = [o for o in range(index, len(tasks), count) if o not in recorded]
    map_stats: Optional[MapStats] = None

    def on_item(item: int, result: object, elapsed: float) -> None:
        ordinal = work[item]
        if log is not None:
            log.append(shard_record(ordinal, tasks[ordinal], result))
        if on_result is not None:
            on_result(ordinal, result, elapsed)

    try:
        if work:
            with PoolRunner(jobs) as pool:
                map_stats = pool.map_consume(
                    partial(part.run_graph, config),
                    [tasks[ordinal] for ordinal in work],
                    on_item=on_item,
                    heartbeat=heartbeat,
                )
    finally:
        if log is not None:
            log.close()
    return len(recorded), len(work), map_stats


def run_campaign(
    part: Union[str, CampaignPart],
    config,
    *,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    checkpoint: Optional[str] = None,
    heartbeat: Optional[Callable[[MapStats], None]] = None,
) -> Tuple[list, CampaignTiming]:
    """Run one campaign sweep; returns ``(rows, timing)``.

    Args:
        part: A registered part name (``"ab"`` / ``"cd"``) or a
            :class:`CampaignPart`.
        config: The sweep preset (:class:`Fig6ABConfig` /
            :class:`Fig6CDConfig` / a part-specific config).
        jobs: Worker processes (``0``/negative means every CPU; ``1``
            runs inline with no pool).
        progress: Optional line sink (one line per completed point, in
            X order, plus a final timing summary).
        checkpoint: Optional shard-file path (shard ``0/1``); every
            completed graph is appended there and skipped on the next
            run with the same ``(part, config)``.  The file is kept
            after completion — delete it to force a fresh sweep — and
            is a valid input to :func:`~repro.parallel.shard.merge_shards`.
        heartbeat: Optional hook observing the live
            :class:`~repro.parallel.engine.MapStats` after every
            completed graph — what feeds the CLI's ``--progress``
            utilization line.
    """
    resolved = get_part(part)
    jobs_n = resolve_jobs(jobs)
    timing = CampaignTiming(part=resolved.name, jobs=jobs_n)
    x_values = list(config.x_values)
    tasks = resolved.tasks(config)
    acc, _ = _accumulator(resolved, config, tasks)
    resumed: Dict[int, int] = {x: 0 for x in x_values}
    rows_by_x: Dict[int, object] = {}
    records: Dict[int, PointTiming] = {}

    def fold(ordinal: int, result: object, elapsed: Optional[float]) -> None:
        x = tasks[ordinal].x
        if elapsed is None:
            resumed[x] += 1
            released = acc.add(x, result)
        else:
            released = acc.add(
                x, result, elapsed_s=elapsed, now=time.perf_counter()
            )
        for done in released:
            rows_by_x[done.x] = done.row
            records[done.x] = _point_timing(done, resumed[done.x], jobs_n)
            if progress is not None:
                line = resolved.format_progress(done.row)
                if resumed[done.x]:
                    line += f" [{resumed[done.x]}/{len(done.results)} resumed]"
                progress(line)

    started = time.perf_counter()
    _, _, map_stats = _run_recorded(
        resolved,
        config,
        tasks,
        checkpoint,
        (0, 1),
        jobs=jobs,
        on_result=fold,
        heartbeat=heartbeat,
        progress=progress,
        label="checkpoint",
    )
    timing.wall_s = time.perf_counter() - started
    timing.points = [records[x] for x in x_values]
    timing.map_stats = map_stats.to_dict() if map_stats is not None else None
    timing.stream = acc.summary()
    if progress is not None:
        progress(timing.summary())
    return [rows_by_x[x] for x in x_values], timing


def _point_timing(done: CompletedPoint, resumed: int, jobs: int) -> PointTiming:
    # Recorded graphs are folded before the map starts, so a point's
    # first ``resumed`` results are exactly its resumed ones.
    fresh = done.results[resumed:]
    utilization = 0.0
    if done.wall_s > 0.0 and jobs > 0:
        utilization = min(1.0, done.busy_s / (done.wall_s * jobs))
    return PointTiming(
        x=done.x,
        graphs=len(done.results),
        wall_s=done.wall_s,
        busy_s=done.busy_s,
        utilization=utilization,
        generate_s=sum(r.timing.generate_s for r in fresh),
        analyze_s=sum(r.timing.analyze_s for r in fresh),
        simulate_s=sum(r.timing.simulate_s for r in fresh),
        resumed_graphs=resumed,
    )


__all__ = [
    "CampaignPart",
    "CampaignTiming",
    "PointTiming",
    "get_part",
    "register_part",
    "run_campaign",
]
