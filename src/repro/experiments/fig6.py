"""The Fig. 6 evaluation harness.

Regenerates the four panels of the paper's Fig. 6:

* **(a)** absolute worst-case time disparity over the number of tasks
  in random single-sink DAGs: simulated lower bound (``Sim``) versus
  Theorem 1 (``P-diff``) and Theorem 2 (``S-diff``);
* **(b)** the incremental ratio ``(bound - Sim) / Sim`` of both bounds;
* **(c)** absolute disparity over the tasks-per-chain of two chains
  merged at one sink: ``Sim``/``S-diff`` and their buffered
  counterparts ``Sim-B``/``S-diff-B`` after Algorithm 1;
* **(d)** the incremental ratios of the unbuffered and buffered pairs.

Per point on the X axis the harness generates ``graphs_per_point``
scenarios; each is analyzed once and simulated ``sims_per_graph`` times
with fresh random offsets (as in the paper), taking the per-graph
maximum observed disparity and averaging across graphs.

The unit of work is one *graph*: :func:`run_graph_ab` and
:func:`run_graph_cd` are pure functions of ``(config, x, seed)``, and
every graph's seed is derived upfront from ``config.seed`` (one parent
draw each — see :func:`repro.gen.scenario.derive_seed`).  Results are
therefore independent of execution order, which is what lets
:mod:`repro.parallel` fan the graphs across worker processes and still
produce byte-identical CSVs to a serial run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.api import AnalysisSession
from repro.buffers.sizing import design_buffer_pair
from repro.core.pairwise import disparity_bound_forkjoin
from repro.experiments.config import Fig6ABConfig, Fig6CDConfig
from repro.gen.scenario import (
    derive_seed,
    generate_merged_pair_scenario,
    generate_random_scenario,
)
from repro.model.system import System
from repro.parallel.campaign import CampaignPart, register_part, run_campaign
from repro.units import Time, to_ms


@dataclass(frozen=True)
class PointAB:
    """One X-axis point of Fig. 6 (a)/(b), averaged over graphs (ms).

    The ``*_std_ms`` fields carry the across-graph sample standard
    deviation (0 when a single graph was measured) — they feed the CSV
    output so replication dispersion is never lost.
    """

    n_tasks: int
    sim_ms: float
    p_diff_ms: float
    s_diff_ms: float
    sim_std_ms: float = 0.0
    p_diff_std_ms: float = 0.0
    s_diff_std_ms: float = 0.0

    @property
    def p_ratio(self) -> float:
        """Incremental ratio of P-diff over Sim (Fig. 6(b))."""
        return _ratio(self.p_diff_ms, self.sim_ms)

    @property
    def s_ratio(self) -> float:
        """Incremental ratio of S-diff over Sim (Fig. 6(b))."""
        return _ratio(self.s_diff_ms, self.sim_ms)


@dataclass(frozen=True)
class PointCD:
    """One X-axis point of Fig. 6 (c)/(d), averaged over graphs (ms)."""

    tasks_per_chain: int
    sim_ms: float
    s_diff_ms: float
    sim_b_ms: float
    s_diff_b_ms: float
    sim_std_ms: float = 0.0
    s_diff_std_ms: float = 0.0
    sim_b_std_ms: float = 0.0
    s_diff_b_std_ms: float = 0.0

    @property
    def s_ratio(self) -> float:
        """Incremental ratio of S-diff over Sim (Fig. 6(d))."""
        return _ratio(self.s_diff_ms, self.sim_ms)

    @property
    def s_b_ratio(self) -> float:
        """Incremental ratio of S-diff-B over Sim-B (Fig. 6(d))."""
        return _ratio(self.s_diff_b_ms, self.sim_b_ms)


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock seconds one graph spent in each pipeline stage."""

    generate_s: float
    analyze_s: float
    simulate_s: float


@dataclass(frozen=True)
class GraphResultAB:
    """Measurements of one random graph of the (a)/(b) sweep."""

    n_tasks: int
    graph_index: int
    seed: int
    sim_ms: float
    p_diff_ms: float
    s_diff_ms: float
    timing: StageTiming


@dataclass(frozen=True)
class GraphResultCD:
    """Measurements of one merged-pair graph of the (c)/(d) sweep."""

    tasks_per_chain: int
    graph_index: int
    seed: int
    sim_ms: float
    s_diff_ms: float
    sim_b_ms: float
    s_diff_b_ms: float
    timing: StageTiming


@dataclass(frozen=True)
class GraphTask:
    """One schedulable unit of Fig. 6 work: (X value, replica, seed)."""

    x: int
    graph_index: int
    seed: int


def _ratio(bound_ms: float, sim_ms: float) -> float:
    if sim_ms <= 0.0:
        return 0.0
    return (bound_ms - sim_ms) / sim_ms


def graph_tasks(
    config, x_values: Optional[Sequence[int]] = None
) -> List[GraphTask]:
    """Derive the full task list of a sweep, with per-graph child seeds.

    All seeds are drawn upfront from a single root generator in a fixed
    order (X value major, replica minor), so the seed of graph ``g`` at
    point ``x`` never depends on which other graphs ran, or in what
    order — the foundation of serial/parallel determinism.
    """
    root = random.Random(config.seed)
    tasks: List[GraphTask] = []
    for x in config.x_values:
        for graph_index in range(config.graphs_per_point):
            seed = derive_seed(root)
            if x_values is None or x in x_values:
                tasks.append(GraphTask(x=x, graph_index=graph_index, seed=seed))
    return tasks


def _buffer_fill_warmup(system: System, base_warmup: Time, duration: Time) -> Time:
    """Warm-up long enough for every FIFO to fill (Lemma 6's premise)."""
    fill = 0
    for channel in system.graph.channels:
        if channel.capacity > 1:
            fill = max(fill, channel.capacity * system.T(channel.src))
    warmup = base_warmup + 2 * fill
    # Keep at least half the horizon for measurement.
    return min(warmup, duration // 2)


def run_graph_ab(
    config: Fig6ABConfig, task: GraphTask
) -> GraphResultAB:
    """Generate, analyze and simulate one (a)/(b) graph — pure in
    ``(config, task)``, safe to run in any process and any order."""
    rng = random.Random(task.seed)
    t0 = time.perf_counter()
    scenario = generate_random_scenario(task.x, rng, config.scenario)
    t1 = time.perf_counter()
    session = AnalysisSession(scenario.system, semantics=config.semantics)
    p_diff = to_ms(session.disparity(scenario.sink, method="independent"))
    s_diff = to_ms(session.disparity(scenario.sink, method="forkjoin"))
    t2 = time.perf_counter()
    sim = to_ms(
        session.observed_disparity(
            scenario.sink,
            sims=config.sims_per_graph,
            duration=config.sim_duration,
            warmup=config.warmup,
            rng=rng,
            policy=config.policy,
        )
    )
    t3 = time.perf_counter()
    return GraphResultAB(
        n_tasks=task.x,
        graph_index=task.graph_index,
        seed=task.seed,
        sim_ms=sim,
        p_diff_ms=p_diff,
        s_diff_ms=s_diff,
        timing=StageTiming(
            generate_s=t1 - t0, analyze_s=t2 - t1, simulate_s=t3 - t2
        ),
    )


def run_graph_cd(
    config: Fig6CDConfig, task: GraphTask
) -> GraphResultCD:
    """Generate, analyze and simulate one (c)/(d) graph — pure in
    ``(config, task)``."""
    rng = random.Random(task.seed)
    t0 = time.perf_counter()
    scenario = generate_merged_pair_scenario(task.x, rng, config.scenario)
    t1 = time.perf_counter()
    session = AnalysisSession(scenario.system, semantics=config.semantics)
    lam, nu = session.chains(scenario.sink)
    base = disparity_bound_forkjoin(lam, nu, session.cache)
    design = design_buffer_pair(lam, nu, session.cache)
    s_diff = to_ms(base.bound)
    s_diff_b = to_ms(base.bound - design.shift)
    t2 = time.perf_counter()
    sim = to_ms(
        session.observed_disparity(
            scenario.sink,
            sims=config.sims_per_graph,
            duration=config.sim_duration,
            warmup=config.warmup,
            rng=rng,
            policy=config.policy,
        )
    )
    buffered = session.with_buffer_plan(design.plan)
    warmup_b = _buffer_fill_warmup(
        buffered.system, config.warmup, config.sim_duration
    )
    sim_b = to_ms(
        buffered.observed_disparity(
            scenario.sink,
            sims=config.sims_per_graph,
            duration=config.sim_duration,
            warmup=warmup_b,
            rng=rng,
            policy=config.policy,
        )
    )
    t3 = time.perf_counter()
    return GraphResultCD(
        tasks_per_chain=task.x,
        graph_index=task.graph_index,
        seed=task.seed,
        sim_ms=sim,
        s_diff_ms=s_diff,
        sim_b_ms=sim_b,
        s_diff_b_ms=s_diff_b,
        timing=StageTiming(
            generate_s=t1 - t0, analyze_s=t2 - t1, simulate_s=t3 - t2
        ),
    )


def aggregate_ab(n_tasks: int, results: Sequence[GraphResultAB]) -> PointAB:
    """Fold per-graph results of one X point into its Fig. 6 row.

    ``results`` may arrive in any completion order; they are sorted by
    replica index first so the row never depends on scheduling.
    """
    ordered = sorted(results, key=lambda r: r.graph_index)
    sims = [r.sim_ms for r in ordered]
    p_diffs = [r.p_diff_ms for r in ordered]
    s_diffs = [r.s_diff_ms for r in ordered]
    return PointAB(
        n_tasks=n_tasks,
        sim_ms=_mean(sims),
        p_diff_ms=_mean(p_diffs),
        s_diff_ms=_mean(s_diffs),
        sim_std_ms=_std(sims),
        p_diff_std_ms=_std(p_diffs),
        s_diff_std_ms=_std(s_diffs),
    )


def aggregate_cd(
    tasks_per_chain: int, results: Sequence[GraphResultCD]
) -> PointCD:
    """Fold per-graph results of one X point into its Fig. 6 row."""
    ordered = sorted(results, key=lambda r: r.graph_index)
    sims = [r.sim_ms for r in ordered]
    s_diffs = [r.s_diff_ms for r in ordered]
    sims_b = [r.sim_b_ms for r in ordered]
    s_diffs_b = [r.s_diff_b_ms for r in ordered]
    return PointCD(
        tasks_per_chain=tasks_per_chain,
        sim_ms=_mean(sims),
        s_diff_ms=_mean(s_diffs),
        sim_b_ms=_mean(sims_b),
        s_diff_b_ms=_mean(s_diffs_b),
        sim_std_ms=_std(sims),
        s_diff_std_ms=_std(s_diffs),
        sim_b_std_ms=_std(sims_b),
        s_diff_b_std_ms=_std(s_diffs_b),
    )


def _format_progress_ab(row: PointAB) -> str:
    return (
        f"n={row.n_tasks}: Sim={row.sim_ms:.1f}ms "
        f"P-diff={row.p_diff_ms:.1f}ms S-diff={row.s_diff_ms:.1f}ms"
    )


def _format_progress_cd(row: PointCD) -> str:
    return (
        f"k={row.tasks_per_chain}: Sim={row.sim_ms:.1f} "
        f"S-diff={row.s_diff_ms:.1f} Sim-B={row.sim_b_ms:.1f} "
        f"S-diff-B={row.s_diff_b_ms:.1f} (ms)"
    )


def _decode_result_ab(data: dict) -> GraphResultAB:
    """Rebuild a :class:`GraphResultAB` from its ``asdict`` form.

    Inverse of the JSON round-trip shard files use; floats survive the
    trip bit-for-bit, so merged aggregation reproduces serial bytes.
    """
    data = dict(data)
    data["timing"] = StageTiming(**data["timing"])
    return GraphResultAB(**data)


def _decode_result_cd(data: dict) -> GraphResultCD:
    """Rebuild a :class:`GraphResultCD` from its ``asdict`` form."""
    data = dict(data)
    data["timing"] = StageTiming(**data["timing"])
    return GraphResultCD(**data)


def _metric_sim_ms(result) -> float:
    """The campaign-wide streamed observable: observed disparity (ms)."""
    return result.sim_ms


def _csv_ab(rows: Sequence[PointAB]) -> str:
    from repro.experiments.reporting import csv_ab

    return csv_ab(rows)


def _csv_cd(rows: Sequence[PointCD]) -> str:
    from repro.experiments.reporting import csv_cd

    return csv_cd(rows)


#: The Fig. 6 sweeps as registered campaign parts — what lets the
#: generic engine (:mod:`repro.parallel.campaign`) and the shard tools
#: (:mod:`repro.parallel.shard`) run them by name.
AB_PART = register_part(
    CampaignPart(
        name="ab",
        tasks=graph_tasks,
        run_graph=run_graph_ab,
        aggregate=aggregate_ab,
        decode_result=_decode_result_ab,
        format_progress=_format_progress_ab,
        to_csv=_csv_ab,
        metric=_metric_sim_ms,
    )
)
CD_PART = register_part(
    CampaignPart(
        name="cd",
        tasks=graph_tasks,
        run_graph=run_graph_cd,
        aggregate=aggregate_cd,
        decode_result=_decode_result_cd,
        format_progress=_format_progress_cd,
        to_csv=_csv_cd,
        metric=_metric_sim_ms,
    )
)


def run_fig6_ab(
    config: Fig6ABConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[PointAB]:
    """Run the Fig. 6 (a)/(b) sweep and return one row per X value.

    ``jobs > 1`` fans the per-graph work across worker processes via
    :mod:`repro.parallel`; seeds are pre-derived per graph, so the rows
    are identical to a serial run.  ``run_campaign(AB_PART, ...)``
    also returns the campaign's timing report.
    """
    return run_campaign(AB_PART, config, progress=progress, jobs=jobs)[0]


def run_fig6_cd(
    config: Fig6CDConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[PointCD]:
    """Run the Fig. 6 (c)/(d) sweep and return one row per X value."""
    return run_campaign(CD_PART, config, progress=progress, jobs=jobs)[0]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _std(values: Sequence[float]) -> float:
    from repro.experiments.stats import summarize

    return summarize(values).std
