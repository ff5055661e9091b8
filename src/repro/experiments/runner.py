"""High-level experiment runner used by the CLI and the benchmarks."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.config import (
    DEFAULT_AB,
    DEFAULT_CD,
    PAPER_AB,
    PAPER_CD,
    SMOKE_AB,
    SMOKE_CD,
    Fig6ABConfig,
    Fig6CDConfig,
)
from repro.experiments.reporting import (
    check_shapes_ab,
    check_shapes_cd,
    render_table_ab,
    render_table_cd,
)
from repro.parallel.campaign import CampaignPart, get_part, run_campaign

_PRESETS = {
    "ab": {"paper": PAPER_AB, "default": DEFAULT_AB, "smoke": SMOKE_AB},
    "cd": {"paper": PAPER_CD, "default": DEFAULT_CD, "smoke": SMOKE_CD},
}
#: Table renderer and shape check of each Fig. 6 sweep, by part name.
_REPORTS = {
    "ab": (render_table_ab, check_shapes_ab),
    "cd": (render_table_cd, check_shapes_cd),
}


def preset(part: str, name: str):
    """Look up the preset ``name`` of the Fig. 6 sweep ``part``."""
    presets = _PRESETS[part]
    try:
        return presets[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(presets)}"
        ) from None


def preset_ab(name: str) -> Fig6ABConfig:
    """Look up an (a)/(b) preset by name."""
    return preset("ab", name)


def preset_cd(name: str) -> Fig6CDConfig:
    """Look up a (c)/(d) preset by name."""
    return preset("cd", name)


def timing_path(out_csv: Path) -> Path:
    """The timing-report path written alongside a CSV."""
    return out_csv.with_suffix(".timing.json")


class LiveLine:
    """A single self-overwriting progress line.

    ``render(snapshot)`` turns each snapshot into the line's text: the
    campaign's live :class:`~repro.parallel.engine.MapStats` after every
    completed graph, or a :class:`~repro.parallel.cluster.ClusterStatus`
    after every coordinator poll.  Only attached when the output stream
    is a terminal, so piped/CI logs never fill with carriage returns.
    """

    def __init__(self, tag: str, stream, render) -> None:
        self._tag = tag
        self._stream = stream
        self._render = render
        self._dirty = False

    def __call__(self, snapshot) -> None:
        self._stream.write(f"\r[{self._tag}] {self._render(snapshot)}")
        self._stream.flush()
        self._dirty = True

    def finish(self) -> None:
        if self._dirty:
            self._stream.write("\n")
            self._stream.flush()
            self._dirty = False


def _render_map(stats) -> str:
    return f"{stats.completed}/{stats.n_items} graphs, {stats.utilization:.0%} busy"


def _render_cluster(status) -> str:
    deaths = f", {status.deaths} death(s)" if status.deaths else ""
    failed = f", {status.failed} failed" if status.failed else ""
    return (
        f"shards {status.done}/{status.shard_count} done "
        f"({status.running} running, {status.pending} pending{failed}), "
        f"{status.merged_records}/{status.expected_records} graphs, "
        f"{status.rows_released} row(s){deaths}"
    )


def _live_line(tag: str, stream, enabled: bool, render) -> Optional[LiveLine]:
    if enabled and getattr(stream, "isatty", lambda: False)():
        return LiveLine(tag, stream, render)
    return None


def cluster_live_line(tag: str, stream, enabled: bool) -> Optional[LiveLine]:
    """The ``cluster run --progress`` status line (TTY only)."""
    return _live_line(tag, stream, enabled, _render_cluster)


def format_cluster_report(report) -> List[str]:
    """Render a :class:`~repro.parallel.cluster.ClusterReport` as lines."""
    lines = [report.summary()]
    for shard in report.shards:
        note = ""
        if shard.deaths:
            note = f", {shard.deaths} death(s), {shard.re_issues} re-issue(s)"
        lines.append(
            f"shard {shard.index}: {shard.status}, "
            f"{shard.records}/{shard.owned} graph(s), "
            f"{shard.attempts} attempt(s), {shard.wall_s:.2f}s{note}"
        )
    coverage = report.coverage
    if not report.complete and coverage:
        missing = coverage.get("missing_ordinals", [])
        preview = ", ".join(str(o) for o in missing[:10])
        if len(missing) > 10:
            preview += f", ... ({len(missing) - 10} more)"
        lines.append(
            f"coverage: {coverage.get('merged_records', 0)}/"
            f"{coverage.get('expected_records', 0)} graph(s) merged; "
            f"missing ordinal(s) {preview}"
        )
        for x, point in coverage.get("points", {}).items():
            if point["merged"] < point["expected"]:
                lines.append(
                    f"  x={x}: partial row over {point['merged']}/"
                    f"{point['expected']} graph(s)"
                )
    return lines


def _write_outputs(
    tag: str, csv_text: str, timing, out_csv: Optional[Path], stream
) -> None:
    if out_csv is None:
        return
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    out_csv.write_text(csv_text)
    print(f"[{tag}] wrote {out_csv}", file=stream)
    report = timing_path(out_csv)
    report.write_text(json.dumps(timing.to_dict(), indent=2) + "\n")
    print(f"[{tag}] wrote {report}", file=stream)


def _point_timing_lines(timing) -> List[str]:
    lines = []
    for point in timing.points:
        resumed = point.resumed_graphs
        lines.append(
            f"x={point.x}: {point.wall_s:.2f}s wall, "
            f"{point.utilization:.0%} busy "
            f"(gen {point.generate_s:.2f}s / ana {point.analyze_s:.2f}s / "
            f"sim {point.simulate_s:.2f}s, {point.graphs} graphs"
            + (f", {resumed} resumed)" if resumed else ")")
        )
    return lines


def run_part(
    part: Union[str, CampaignPart],
    config,
    *,
    out_csv: Optional[Path] = None,
    stream=None,
    verbose: bool = True,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    show_timing: bool = False,
) -> list:
    """Run one Fig. 6 sweep (``"ab"`` / ``"cd"``), print its table,
    optionally save CSV.

    ``jobs`` fans per-graph work across worker processes (rows are
    identical for any value); ``checkpoint`` enables per-graph
    resume; ``show_timing`` prints the per-point stage/utilization
    breakdown that is always saved to ``<csv>.timing.json``.
    """
    resolved = get_part(part)
    render_table, check_shapes = _REPORTS[resolved.name]
    tag = f"fig6{resolved.name}"
    stream = stream if stream is not None else sys.stdout
    progress = (lambda msg: print(f"  {msg}", file=stream)) if verbose else None
    live = _live_line(tag, stream, show_timing, _render_map)
    rows, timing = run_campaign(
        resolved,
        config,
        progress=progress,
        jobs=jobs,
        checkpoint=checkpoint,
        heartbeat=live,
    )
    if live is not None:
        live.finish()
    print(render_table(rows), file=stream)
    print(f"[{tag}] {len(rows)} points in {timing.wall_s:.1f}s", file=stream)
    if show_timing:
        for line in _point_timing_lines(timing):
            print(f"  {line}", file=stream)
        print(f"  {timing.summary()}", file=stream)
    for violation in check_shapes(rows):
        print(f"[{tag}] SHAPE VIOLATION: {violation}", file=stream)
    _write_outputs(tag, resolved.to_csv(rows), timing, out_csv, stream)
    return rows
