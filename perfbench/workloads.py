"""The benchmark's workloads: fixed batch inputs, run to completion.

Every workload turns ``(seed, seconds)`` into one fixed input, runs it
:data:`PASSES` times through the program's public entry points with
``jobs=1`` (:meth:`run`), then checks the outputs (:meth:`verify`),
including that every pass produced the first pass's CSV.  Input sizes
are stated for ``--seconds 30`` (:data:`REFERENCE_SECONDS`, the
``run_seconds`` of ``BENCHMARK.json``), where the passes together take
25-35 s on a 2-core machine, and scale linearly with ``--seconds``; the
same seed and seconds always give the same input.

The reported wall is a median over the passes (:func:`_robust_wall`):
the speed of a shared VM swings by 10-25% within seconds, and one pass
over the input reads whatever the machine was doing; medians over
passes remove the swings shorter than a pass.

Why each workload exists, and which layers it loads, is recorded in
``BENCHMARK.json`` and ``LAYERS.md``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import traceback
from dataclasses import dataclass, field, replace
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exact import search
from repro.experiments import fig6
from repro.experiments.config import DEFAULT_AB, DEFAULT_CD
from repro.gen import scenario
from repro.parallel.campaign import run_campaign
from repro.parallel.cluster import run_cluster
from repro.sim.batch import PHASE_TIMES, reset_phase_times

#: ``--seconds`` value the sizes below are stated for.
REFERENCE_SECONDS = 30
#: Passes over the same input in an untraced run.
PASSES = 3


def _scaled(count: int, seconds: int) -> int:
    return max(1, round(count * seconds / REFERENCE_SECONDS))


@dataclass
class Outcome:
    """Timed passes over a workload's input.

    Everything but ``wall_s``, ``pass_walls`` and ``repeat_csvs`` comes
    from the first pass.  Item peaks do too: later passes start from the
    heap the earlier ones left behind, which depends on which graphs the
    seed drew.
    """

    #: Wall of one pass; with several passes, a median over them.
    wall_s: float
    #: The first pass's result table; equal inputs must give equal bytes.
    csv: str
    #: Items (graphs or searched systems) the pass produced.
    items: list
    #: Accumulated ``repro.sim.batch.PHASE_TIMES`` of the pass.
    phases: Dict[str, float]
    #: Workload-specific observability (campaign utilization, cluster report).
    details: dict = field(default_factory=dict)
    #: Peak RSS (MiB) of this process while running each in-process item.
    item_peaks_mb: List[float] = field(default_factory=list)
    #: Wall of every pass, the first included.
    pass_walls: List[float] = field(default_factory=list)
    #: Result table of every pass after the first.
    repeat_csvs: List[str] = field(default_factory=list)


def _measure_item(peaks: List[float], times: List[float], call: Callable, *args):
    """``call(*args)``, appending its time and this process's peak RSS.

    Resets the kernel's high-water mark first (``/proc/self/clear_refs``),
    so each item's peak is its own, not the heaviest item's so far.
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
    started = perf_counter()
    result = call(*args)
    times.append(perf_counter() - started)
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return result


def _robust_wall(
    pass_walls: Sequence[float], item_times: Sequence[Sequence[float]]
) -> float:
    """A pass's wall with short swings of the machine's speed damped.

    ``item_times[p][i]`` is the time of item ``i`` in pass ``p`` (items
    in the same order in every pass; no items for a workload whose items
    run out of reach).  The result is the median over passes of the
    time outside the items plus, for each item, its median time over the
    passes.  With one pass it is that pass's wall.
    """
    outside = median(
        wall - sum(times) for wall, times in zip(pass_walls, item_times)
    )
    return outside + sum(median(times) for times in zip(*item_times))


def _repeat_check(workload: str, outcome: Outcome) -> Tuple[int, List[str]]:
    """One checked item per extra pass: its CSV must equal the first's."""
    failures = [
        f"{workload}: pass {index} CSV differs from pass 1's"
        for index, csv in enumerate(outcome.repeat_csvs, start=2)
        if csv != outcome.csv
    ]
    return len(outcome.repeat_csvs), failures


def _fail(workload: str, x: int, seed: int, what: str) -> str:
    return f"{workload} x={x} seed={seed}: {what}"


def _timed(body: Callable[[], tuple]) -> Tuple[float, tuple, Dict[str, float]]:
    reset_phase_times()
    started = perf_counter()
    result = body()
    return perf_counter() - started, result, dict(PHASE_TIMES)


def _check_ab(workload: str, r) -> Optional[str]:
    """Soundness of one (a)/(b) graph: Sim <= S-diff and Sim <= P-diff."""
    return _violations(workload, r.n_tasks, r.seed, (
        ("Sim", r.sim_ms, "S-diff", r.s_diff_ms),
        ("Sim", r.sim_ms, "P-diff", r.p_diff_ms),
    ))


def _check_cd(workload: str, r) -> Optional[str]:
    """Soundness of one (c)/(d) graph, unbuffered and under Algorithm 1."""
    return _violations(workload, r.tasks_per_chain, r.seed, (
        ("Sim", r.sim_ms, "S-diff", r.s_diff_ms),
        ("Sim-B", r.sim_b_ms, "S-diff-B", r.s_diff_b_ms),
    ))


def _violations(workload: str, x: int, seed: int, pairs) -> Optional[str]:
    """One message naming every observed value above its bound, if any."""
    broken = [
        f"{label} {value} ms > {bound_label} {bound} ms"
        for label, value, bound_label, bound in pairs
        if not value <= bound
    ]
    return _fail(workload, x, seed, "; ".join(broken)) if broken else None


@dataclass(frozen=True)
class Sweep:
    """One Fig. 6 campaign part with its preset, size and soundness check."""

    part: object
    base: object
    graphs_per_point: int
    check: Callable


class Fig6Campaign:
    """``fig6``: both Fig. 6 sweeps in process, (a)/(b) then (c)/(d), ``jobs=1``.

    Each pass runs every sweep's registered campaign part through
    ``run_campaign`` (what ``run_fig6_ab`` / ``run_fig6_cd`` call) with
    its fold wrapped to keep the per-graph results for the soundness
    checks.  A pass's CSV is the sweeps' CSVs one after the other.
    """

    def __init__(self, name: str, sweeps: Sequence[Sweep]) -> None:
        self.name = name
        self.sweeps = tuple(sweeps)

    def make_input(self, seed: int, seconds: int) -> tuple:
        return tuple(
            sweep.base.scaled(
                seed=seed,
                graphs_per_point=_scaled(sweep.graphs_per_point, seconds),
            )
            for sweep in self.sweeps
        )

    def run(self, configs: tuple, passes: int = 1) -> Outcome:
        outcome = None
        item_times: List[List[float]] = []
        peaks: List[float] = []
        for _ in range(passes):
            times: List[float] = []
            wall, csv, items, phases, busy = 0.0, "", [], {}, 0.0
            for sweep, config in zip(self.sweeps, configs):
                sweep_wall, sweep_csv, results, sweep_phases, timing = self._pass(
                    sweep, config, times, peaks if outcome is None else []
                )
                wall += sweep_wall
                csv += sweep_csv
                items.extend((sweep, r) for r in results)
                for phase, seconds in sweep_phases.items():
                    phases[phase] = phases.get(phase, 0.0) + seconds
                busy += timing.utilization * sweep_wall
            item_times.append(times)
            if outcome is None:
                details = {"utilization": busy / wall if wall > 0 else 0.0}
                outcome = Outcome(wall, csv, items, phases, details, peaks)
            else:
                outcome.repeat_csvs.append(csv)
            outcome.pass_walls.append(wall)
        outcome.wall_s = _robust_wall(outcome.pass_walls, item_times)
        return outcome

    def _pass(self, sweep: Sweep, config, times: List[float], peaks: List[float]):
        results: list = []
        aggregate = sweep.part.aggregate
        run_graph = sweep.part.run_graph
        name = self.name

        def keep(x, point_results):
            results.extend(point_results)
            return aggregate(x, point_results)

        def reported(config, task):
            try:
                return _measure_item(peaks, times, run_graph, config, task)
            except Exception:
                message = _fail(name, task.x, task.seed, "raised")
                print(f"FAIL {message}", file=sys.stderr)
                raise

        part = replace(sweep.part, aggregate=keep, run_graph=reported)
        wall, (rows, timing), phases = _timed(
            lambda: run_campaign(part, config, jobs=1)
        )
        return wall, part.to_csv(rows), results, phases, timing

    def verify(self, configs: tuple, outcome: Outcome) -> Tuple[int, List[str]]:
        failures = [sweep.check(self.name, r) for sweep, r in outcome.items]
        repeats, mismatches = _repeat_check(self.name, outcome)
        failures = [msg for msg in failures if msg] + mismatches
        return len(outcome.items) + repeats, failures


class ClusterLet:
    """``cluster-let``: the (a)/(b) sweep under LET through ``run_cluster``.

    Several shards on one local worker subprocess, so every shard pays a
    worker launch and import, JSONL shard writes, tail polling and the
    incremental merge.  Shard files go to a fresh directory per pass.
    """

    name = "cluster-let"
    SHARDS = 4
    WORKERS = 1
    GRAPHS_PER_POINT = 5

    def __init__(self, workdir: str) -> None:
        self.out_dir = os.path.join(workdir, "cluster")

    def make_input(self, seed: int, seconds: int):
        return DEFAULT_AB.scaled(
            seed=seed,
            graphs_per_point=_scaled(self.GRAPHS_PER_POINT, seconds),
            semantics="let",
        )

    def run(self, config, passes: int = 1) -> Outcome:
        """``passes`` coordinator runs; shard files are read after the first.

        The workers' items are out of reach, so the wall is the median
        pass wall.
        """
        outcome = None
        for _ in range(passes):
            shutil.rmtree(self.out_dir, ignore_errors=True)
            wall, (rows, report), phases = _timed(lambda: run_cluster(
                fig6.AB_PART, config, shards=self.SHARDS, out_dir=self.out_dir,
                workers=self.WORKERS, jobs=1,
            ))
            csv = fig6.AB_PART.to_csv(rows)
            if outcome is None:
                outcome = self._read_shards(wall, csv, report, phases)
            else:
                outcome.repeat_csvs.append(csv)
            outcome.pass_walls.append(wall)
        outcome.wall_s = median(outcome.pass_walls)
        return outcome

    def _read_shards(self, wall, csv, report, phases) -> Outcome:
        by_ordinal: Dict[int, object] = {}
        records = size = 0
        stages = {"generate_s": 0.0, "analyze_s": 0.0, "simulate_s": 0.0}
        for shard in report.shards:
            size += os.path.getsize(shard.path)
            with open(shard.path) as handle:
                for line in handle:
                    record = json.loads(line)
                    if "result" in record:
                        records += 1
                        by_ordinal[record["ordinal"]] = (
                            fig6.AB_PART.decode_result(record["result"])
                        )
        items = [by_ordinal[ordinal] for ordinal in sorted(by_ordinal)]
        for r in items:
            for stage in stages:
                stages[stage] += getattr(r.timing, stage)
        details = {
            "report": report, "records": records, "bytes": size,
            "stages": stages, "workers": self.WORKERS,
        }
        return Outcome(wall, csv, items, phases, details)

    def verify(self, config, outcome: Outcome) -> Tuple[int, List[str]]:
        """Per-graph soundness, plus the merged CSV against ``--jobs 1``.

        The CSV comparison counts as one more checked item, and so does
        each extra pass's CSV.
        """
        failures = [_check_ab(self.name, r) for r in outcome.items]
        failures = [msg for msg in failures if msg]
        rows, _ = run_campaign(fig6.AB_PART, config, jobs=1)
        if fig6.AB_PART.to_csv(rows) != outcome.csv:
            failures.append(
                f"{self.name}: merged CSV differs from in-process run_campaign"
            )
        repeats, mismatches = _repeat_check(self.name, outcome)
        return len(outcome.items) + 1 + repeats, failures + mismatches


@dataclass(frozen=True)
class SearchInput:
    seed: int
    rounds: int


class OffsetSearch:
    """``offset-search``: coordinate-ascent offset search, WCET policy.

    Searches a fixed set of generated multi-ECU systems of 10 to 16
    tasks; ``--seed`` drives the search (each system gets its own
    derived search seed).  The systems are fixed because a search's
    cost is set mostly by the system's period mix (one 1 ms task makes
    a system several times dearer), which would make a seed-drawn set
    time the draw instead of the search.
    """

    name = "offset-search"
    SIZES = (10, 12, 14, 16)
    ROUNDS = 8
    SYSTEMS_SEED = 2023
    SEARCH = {"restarts": 1, "sweeps": 2, "candidates_per_task": 2}

    def make_input(self, seed: int, seconds: int) -> SearchInput:
        return SearchInput(seed=seed, rounds=_scaled(self.ROUNDS, seconds))

    def run(self, spec: SearchInput, passes: int = 1) -> Outcome:
        outcome = None
        item_times: List[List[float]] = []
        peaks: List[float] = []
        for _ in range(passes):
            times: List[float] = []
            wall, csv, items, phases = self._pass(
                spec, times, peaks if outcome is None else []
            )
            item_times.append(times)
            if outcome is None:
                outcome = Outcome(wall, csv, items, phases, {}, peaks)
            else:
                outcome.repeat_csvs.append(csv)
            outcome.pass_walls.append(wall)
        if any(len(times) != len(item_times[0]) for times in item_times):
            # A search raised in some passes only; the CSV check reports it.
            outcome.wall_s = median(outcome.pass_walls)
        else:
            outcome.wall_s = _robust_wall(outcome.pass_walls, item_times)
        return outcome

    def _pass(self, spec: SearchInput, times: List[float], peaks: List[float]):
        systems = random.Random(self.SYSTEMS_SEED)
        searches = random.Random(spec.seed)
        items: list = []

        def body():
            for _ in range(spec.rounds):
                for n_tasks in self.SIZES:
                    system_seed = scenario.derive_seed(systems)
                    search_seed = scenario.derive_seed(searches)
                    try:
                        generated = scenario.generate_random_scenario(
                            n_tasks,
                            random.Random(system_seed),
                            scenario.ScenarioConfig(),
                        )
                        found = _measure_item(
                            peaks, times, self._search, generated, search_seed
                        )
                    except Exception:  # one failed item must not stop the rest
                        failed = traceback.format_exc()
                        items.append((n_tasks, system_seed, None, failed))
                        continue
                    items.append((n_tasks, system_seed, generated, found))
            return ()

        wall, _, phases = _timed(body)
        lines = ["system,n_tasks,system_seed,disparity,evaluations"]
        for index, (n_tasks, system_seed, _, found) in enumerate(items):
            if isinstance(found, str):
                lines.append(f"{index},{n_tasks},{system_seed},error,error")
            else:
                lines.append(
                    f"{index},{n_tasks},{system_seed},"
                    f"{found.disparity},{found.evaluations}"
                )
        return wall, "\n".join(lines) + "\n", items, phases

    def _search(self, generated, search_seed: int):
        return search.maximize_disparity_offsets(
            generated.system, generated.sink, random.Random(search_seed),
            jobs=1, **self.SEARCH,
        )

    def verify(self, spec: SearchInput, outcome: Outcome) -> Tuple[int, List[str]]:
        """Every searched disparity must stay within its S-diff."""
        from repro.api import AnalysisSession

        failures = []
        for n_tasks, system_seed, generated, found in outcome.items:
            if isinstance(found, str):
                failures.append(
                    _fail(self.name, n_tasks, system_seed, f"raised\n{found}")
                )
                continue
            bound = AnalysisSession(generated.system).disparity(
                generated.sink, method="forkjoin"
            )
            if not found.disparity <= bound:
                failures.append(_fail(
                    self.name, n_tasks, system_seed,
                    f"searched {found.disparity} > S-diff {bound}",
                ))
        repeats, mismatches = _repeat_check(self.name, outcome)
        return len(outcome.items) + repeats, failures + mismatches


def workloads(workdir: str) -> dict:
    """Every workload by name; ``workdir`` holds cluster shard files."""
    return {
        # Ten replications per graph, as in the paper, instead of the
        # default presets' twenty: about twice the graphs in the same
        # time, so the wall depends less on which graphs the seed drew.
        "fig6": Fig6Campaign("fig6", (
            Sweep(fig6.AB_PART, DEFAULT_AB.scaled(sims_per_graph=10), 12, _check_ab),
            Sweep(fig6.CD_PART, DEFAULT_CD.scaled(sims_per_graph=10), 4, _check_cd),
        )),
        "offset-search": OffsetSearch(),
        "cluster-let": ClusterLet(workdir),
    }
