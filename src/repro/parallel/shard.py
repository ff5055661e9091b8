"""Scenario-space sharding: split a campaign, merge to identical bytes.

A campaign's scenario space is its task list — every ``(x, replica,
seed)`` triple, seeds pre-derived from the config in a fixed order (see
:func:`repro.experiments.fig6.graph_tasks`).  A :class:`ShardSpec`
partitions that list by **global ordinal**: shard ``i`` of ``n`` owns
every task whose list position satisfies ``ordinal % n == i``.  The
partition is a pure function of ``(config, shard spec)`` — no
coordination, no shared state — so shards can run on separate machines
and at different times.

:func:`run_shard` executes one shard and writes its per-graph results
to a JSONL file (header + one record per graph, the format of
:mod:`repro.parallel.checkpoint`).  The file doubles as the shard's own
resume log: re-running against a partial file skips the graphs already
recorded, tolerating a torn final line; a campaign checkpoint is
exactly the file of shard ``0/1``.

:func:`merge_shards` reads any permutation of the shard files,
verifies they cover the whole task list, regroups results per X value
and applies the part's **exact** aggregation fold — the same callable,
over the same floats (JSON round-trips Python floats losslessly), in
the same replica order a serial run uses.  The merged rows, and the CSV
rendered from them, are therefore byte-identical to ``--jobs 1``; the
golden and hypothesis suites enforce this for arbitrary shard counts
and orders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.parallel.campaign import CampaignPart, _run_recorded, get_part
from repro.parallel.checkpoint import JsonlLog, shard_header, valid_record

_SPEC_RE = re.compile(r"^(\d+)/(\d+)$")


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a campaign's scenario space: ``shard_index/shard_count``.

    Ownership is round-robin over global task ordinals, so every shard
    receives a near-equal share of *every* X-axis point — the work of a
    shard is balanced even when per-point costs vary wildly along the
    sweep.
    """

    shard_index: int
    shard_count: int

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {self.shard_count}")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), "
                f"got {self.shard_index}"
            )

    def owns(self, ordinal: int) -> bool:
        """Whether this shard runs the task at global position ``ordinal``."""
        return ordinal % self.shard_count == self.shard_index

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI spelling ``"INDEX/COUNT"`` (e.g. ``"0/4"``)."""
        match = _SPEC_RE.match(text.strip())
        if match is None:
            raise ValueError(
                f"invalid shard spec {text!r}; expected INDEX/COUNT, e.g. 0/4"
            )
        return cls(shard_index=int(match.group(1)), shard_count=int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.shard_index}/{self.shard_count}"


@dataclass
class ShardRunReport:
    """What one :func:`run_shard` call did."""

    shard: ShardSpec
    path: str
    n_owned: int
    n_resumed: int
    n_run: int
    map_stats: Optional[dict] = None

    def summary(self) -> str:
        wall = (self.map_stats or {}).get("wall_s", 0.0)
        note = f", {self.n_resumed} resumed" if self.n_resumed else ""
        return (
            f"shard {self.shard}: {self.n_run}/{self.n_owned} graph(s) "
            f"run in {wall:.2f}s{note} -> {self.path}"
        )


def run_shard(
    part: Union[str, CampaignPart],
    config,
    shard: ShardSpec,
    out_path: str,
    *,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> ShardRunReport:
    """Run one shard of a campaign, appending per-graph results to JSONL.

    The output file is also the resume log: when it already holds a
    compatible header (same part, config fingerprint and shard spec),
    recorded graphs are skipped and fresh results are appended — so a
    killed shard run continues where it stopped.  Results are appended
    in completion order; order never matters downstream because
    :func:`merge_shards` regroups by ordinal.
    """
    resolved = get_part(part)
    tasks = resolved.tasks(config)
    spec = (shard.shard_index, shard.shard_count)
    n_resumed, n_run, map_stats = _run_recorded(
        resolved,
        config,
        tasks,
        out_path,
        spec,
        jobs=jobs,
        on_result=None,
        heartbeat=None,
        progress=progress,
        label=f"shard {shard}",
    )
    report = ShardRunReport(
        shard=shard,
        path=out_path,
        n_owned=n_resumed + n_run,
        n_resumed=n_resumed,
        n_run=n_run,
        map_stats=map_stats.to_dict() if map_stats is not None else None,
    )
    if progress is not None:
        progress(report.summary())
    return report


def _merge_gap_message(
    missing: Sequence[int],
    total: int,
    shard_count: Optional[int],
    owners: Dict[int, List[str]],
) -> str:
    """Spell out a coverage gap: which ordinals, owed by which files.

    Every missing ordinal is attributed to the shard index that owns it
    under the round-robin partition, and each such index to the file(s)
    that declared it — or to the absence of any file for it — so the
    operator knows exactly which shard to (re-)run or fetch.
    """
    preview = ", ".join(str(o) for o in missing[:20])
    if len(missing) > 20:
        preview += f", ... ({len(missing) - 20} more)"
    lines = [
        f"merge incomplete: {len(missing)} of {total} graph(s) missing "
        f"(ordinals {preview})"
    ]
    if shard_count:
        by_owner: Dict[int, List[int]] = {}
        for ordinal in missing:
            by_owner.setdefault(ordinal % shard_count, []).append(ordinal)
        for index in sorted(by_owner):
            gap = by_owner[index]
            head = ", ".join(str(o) for o in gap[:10])
            if len(gap) > 10:
                head += f", ... ({len(gap) - 10} more)"
            paths = owners.get(index)
            if paths:
                source = (
                    f"expected in {paths[0]} (file present but partial)"
                    if len(paths) == 1
                    else "expected in " + " or ".join(paths) + " (partial)"
                )
            else:
                source = (
                    f"no file supplied for shard {index}/{shard_count}"
                )
            lines.append(
                f"  shard {index}/{shard_count} owes ordinal(s) {head}: "
                f"{source}"
            )
    return "\n".join(lines)


def merge_shards(
    part: Union[str, CampaignPart],
    config,
    shard_paths: Sequence[str],
) -> list:
    """Merge shard result files into the campaign's rows — exact bytes.

    Accepts the shard files in **any order** and from **any shard
    count** (all files must agree on it); validates that together they
    cover every task of the campaign, then applies the part's
    aggregation fold per X value over replica-ordered results — the
    identical float operations a serial run performs, so
    ``part.to_csv(rows)`` is byte-identical to a ``--jobs 1`` run.

    Raises:
        ValueError: A file is not a shard file of this ``(part,
            config)``, shard counts disagree, or tasks are missing
            (the message names the missing ordinals and the shard
            file expected to own each of them).
    """
    resolved = get_part(part)
    tasks = resolved.tasks(config)
    records: Dict[int, dict] = {}
    shard_count: Optional[int] = None
    owners: Dict[int, List[str]] = {}
    for path in shard_paths:
        log = JsonlLog(path, shard_header(resolved.name, config))
        rows = log.load()
        header = log.loaded_header or {}
        count = header.get("shard_count")
        index = header.get("shard_index")
        if not (isinstance(count, int) and isinstance(index, int)):
            raise ValueError(
                f"{path}: not a shard result file of part "
                f"{resolved.name!r} with this config (wrong or torn header)"
            )
        if shard_count is None:
            shard_count = count
        elif count != shard_count:
            raise ValueError(
                f"{path}: shard_count {count} disagrees with {shard_count} "
                f"from earlier files"
            )
        owners.setdefault(index, []).append(path)
        for record in rows:
            if valid_record(record, len(tasks), index, count):
                records[record["ordinal"]] = record
    missing = [o for o in range(len(tasks)) if o not in records]
    if missing:
        raise ValueError(_merge_gap_message(missing, len(tasks), shard_count, owners))
    by_x: Dict[int, List[object]] = {x: [] for x in config.x_values}
    for ordinal, task in enumerate(tasks):
        by_x[task.x].append(resolved.decode_result(records[ordinal]["result"]))
    return [resolved.aggregate(x, by_x[x]) for x in config.x_values]


__all__ = [
    "ShardRunReport",
    "ShardSpec",
    "merge_shards",
    "run_shard",
]
