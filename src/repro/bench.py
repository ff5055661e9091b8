"""Kernel-ratio benchmarks: one paired-arm primitive over a spec table.

``repro bench`` and the committed ``BENCH_kernel.json`` gate time each
optimized path against the slower path it replaced, on identical inputs
in one process; ``perfbench/`` measures end-to-end campaign time.  A
kernel is a :class:`Spec`, :func:`measure` is the only paired-arm loop,
and :func:`run_benchmarks`, :func:`format_benchmarks` and
:func:`compare_to_baseline` are loops over :data:`SPECS`.  Walls use
:func:`time.perf_counter`.  Most gates compare ratios, which survive
machine changes where absolute throughput does not; timing on shared
machines is still noisy, so the CLI gate soft-fails by default.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.api import AnalysisSession
from repro.chains.backward import BackwardBoundsCache
from repro.experiments.fig6 import StageTiming, graph_tasks
from repro.gen import generate_random_scenario
from repro.model.chain import enumerate_source_chains
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import Task
from repro.parallel.campaign import CampaignPart, run_campaign
from repro.parallel.checkpoint import config_fingerprint
from repro.parallel.cluster import run_cluster
from repro.parallel.engine import PoolRunner
from repro.sim.batch import PHASE_TIMES, CompiledScenario, run_batch
from repro.sim.engine import Simulator, randomize_offsets
from repro.sim.exec_time import wcet_policy
from repro.sim.faults import FaultPlan
from repro.sim.metrics import DisparityMonitor
from repro.units import ms, seconds, to_ms

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Relative slowdown tolerated by the regression gate before it trips.
DEFAULT_TOLERANCE = 0.25

#: Generator seed of every benchmark input.
SEED = 2023

#: An arm runs once per repeat; it may record extra row columns in
#: ``note`` (the note of its fastest run is kept).
Arm = Callable[[Dict[str, Any]], Any]
#: Builder keywords of one row; ``repeats`` is consumed by :func:`measure`.
#: A list of shapes makes a table (one row each).
Shape = Union[Dict[str, Any], List[Dict[str, Any]]]


class Column(NamedTuple):
    """Derived column ``name = round(scale * row[num] / row[den], digits)``."""

    name: str
    num: str
    den: str
    digits: int = 2
    scale: float = 1.0


class Gate(NamedTuple):
    """The one metric the regression gate compares, and which way is good."""

    metric: str
    better: str  # "higher" or "lower"
    label: str
    unit: str = "x"


@dataclass(frozen=True)
class Spec:
    """One benchmark kernel: how to build its arms and what to report.

    Attributes:
        kernel: ``repro bench --kernel`` name.
        section: Key of the entry in the benchmark document.
        build: ``build(rng, **shape) -> (arms, info)``: named arms whose
            outputs must be equal, and row columns known before any arm
            runs.
        arms: Timed arm names, reference first; each adds ``<arm>_s``.
        columns: Ratios and throughputs derived from the row.
        gate: The gated metric.
        full: Shape of the committed full run.
        quick: Shape of the CI run.
        shape_keys: Row keys that must equal the baseline's before the
            gate compares (empty: the metric is comparable across shapes).
        winner: Arm that must beat the reference arm on the same run.
    """

    kernel: str
    section: str
    build: Callable[..., Tuple[Dict[str, Arm], Dict[str, Any]]]
    arms: Tuple[str, ...]
    columns: Tuple[Column, ...]
    gate: Gate
    full: Shape
    quick: Shape
    shape_keys: Tuple[str, ...] = ()
    winner: Optional[str] = None


def measure(spec: Spec, shape: Shape) -> Union[Dict[str, Any], List[Dict[str, Any]]]:
    """Run ``spec`` at ``shape``: one row, or one row per shape of a table.

    The inputs are built once.  Each repeat runs every arm from the same
    generator state and then checks every arm's output against the
    reference arm's; the row keeps each arm's minimum wall.
    """
    if isinstance(shape, list):
        return [measure(spec, row_shape) for row_shape in shape]
    params = dict(shape)
    repeats = max(1, params.pop("repeats", 1))
    rng = random.Random(SEED)
    arms, info = spec.build(rng, **params)
    state = rng.getstate()
    walls: Dict[str, float] = {}
    notes: Dict[str, Dict[str, Any]] = {}
    reference = spec.arms[0]
    for _ in range(repeats):
        outputs = {}
        for name in spec.arms:
            rng.setstate(state)
            note: Dict[str, Any] = {}
            start = time.perf_counter()
            outputs[name] = arms[name](note)
            elapsed = time.perf_counter() - start
            if name not in walls or elapsed < walls[name]:
                walls[name], notes[name] = elapsed, note
        for name in spec.arms[1:]:
            if outputs[name] != outputs[reference]:
                raise AssertionError(
                    f"{spec.kernel} benchmark: arm {name!r} diverged from "
                    f"reference arm {reference!r}"
                )
    row = {**params, **info}
    for name in spec.arms:
        row.update(notes[name])
    raw = {**row, **{f"{name}_s": wall for name, wall in walls.items()}}
    row.update({f"{name}_s": round(wall, 4) for name, wall in walls.items()})
    for column in spec.columns:
        den = raw[column.den]
        row[column.name] = (
            round(column.scale * raw[column.num] / den, column.digits) if den else 0.0
        )
    return row


def _sim_arms(rng, *, n_tasks: int, sims: int, duration_s: float):
    """Reference-simulator throughput on one WATERS-style scenario.

    ``sims`` runs (distinct seeds, disparity monitored at the sink, the
    Fig. 6 configuration) of the unoptimized :class:`Simulator`, which
    campaigns only reach for batch-ineligible scenarios.
    """
    scenario = generate_random_scenario(n_tasks, rng)
    graph = randomize_offsets(scenario.system.graph, rng)
    system = System(graph=graph, response_times=scenario.system.response_times)
    duration = seconds(duration_s)

    def wall(note):
        jobs = 0
        for index in range(sims):
            monitor = DisparityMonitor([scenario.sink], warmup=duration // 4)
            run = Simulator(system, duration, seed=SEED + index, observers=[monitor])
            jobs += run.run().stats.jobs_completed
        note["jobs"] = jobs
        return jobs

    return {"wall": wall}, {}


def _replication_arms(
    rng, *, n_tasks: int, sims: int, duration_s: float,
    semantics: str = "implicit", dropout: bool = False,
):
    """The same ``sims`` randomized replications through three paths.

    ``sequential`` runs independent :class:`Simulator` calls (per-run
    setup, the pre-batch Fig. 6 path), ``replay`` the per-replication
    compiled loop (``run_batch(engine="compiled")``) and ``batched`` /
    ``columnar`` the auto-selected fastest tier, ``columnar`` also
    recording the draw/advance/derive split.  ``dropout`` drops the
    first source mid-horizon: the fault plan compiles to release masks
    in the batched tiers and to suppressed releases in the simulator.
    """
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    info: Dict[str, Any] = {}
    faults = None
    if dropout:
        info["victim"] = victim = sorted(system.graph.sources())[0]
        faults = FaultPlan().drop(victim, 2 * duration // 5, 3 * duration // 5)

    def sequential(note):
        disparities = []
        for _ in range(sims):
            monitor = DisparityMonitor([sink], warmup=warmup)
            run_seed = rng.randrange(2**31)
            run_system = System(
                graph=randomize_offsets(system.graph, rng),
                response_times=system.response_times,
            )
            Simulator(
                run_system, duration, seed=run_seed, observers=[monitor],
                semantics=semantics, faults=faults,
            ).run()
            disparities.append(monitor.disparity(sink))
        return disparities

    def batched(engine):
        def arm(note):
            result = run_batch(
                system, sink, sims=sims, duration=duration, warmup=warmup,
                rng=rng, semantics=semantics, engine=engine, faults=faults,
            )
            if engine == "auto":
                note["engine"] = result.engine
            return list(result.disparities)
        return arm

    def columnar(note):
        before = dict(PHASE_TIMES)
        disparities = auto(note)
        note["phases"] = {
            key: round(PHASE_TIMES[key] - before[key], 4)
            for key in ("draw_s", "advance_s", "derive_s")
        }
        return disparities

    auto = batched("auto")
    arms = {"sequential": sequential, "replay": batched("compiled"),
            "batched": auto, "columnar": columnar}
    return arms, info


def _offset_edits(system: System, rng, candidates: int):
    """Random in-domain offset vectors: the ``exact.search`` probe shape."""
    periods = [task.period for task in system.graph.tasks]
    edits = [
        {"offsets": tuple(rng.randint(1, period) for period in periods)}
        for _ in range(candidates)
    ]
    return edits, {}


def _structural_edits(system: System, rng, candidates: int):
    """Period and capacity edits at one fixed in-domain offset vector.

    Period edits only scale periods *up*, so the vector stays in
    ``[0, T]`` and both arms replay through the compiled loop.  The 1:2
    period:capacity mix mirrors the Algorithm 1 / sensitivity workload,
    where capacity rounds outnumber period probes.
    """
    vector = tuple(rng.randint(1, task.period) for task in system.graph.tasks)
    compute = [t.name for t in system.graph.tasks if not t.is_instantaneous]
    channels = [(c.src, c.dst) for c in system.graph.channels]
    edits: List[Dict[str, Any]] = []
    n_period = n_capacity = 0
    for index in range(candidates):
        if index % 3 == 0 and compute:
            name = compute[n_period % len(compute)]
            period = system.graph.task(name).period * (2 + n_period % 3)
            edits.append({"periods": {name: period}, "offsets": vector})
            n_period += 1
        else:
            edge = channels[n_capacity % len(channels)]
            edits.append({"capacities": {edge: 2 + n_capacity % 5}, "offsets": vector})
            n_capacity += 1
    return edits, {"period_candidates": n_period, "capacity_candidates": n_capacity}


def _edited_system(system: System, edit: Dict[str, Any]) -> System:
    """``system`` with an edit's periods and capacities applied."""
    if set(edit) <= {"offsets"}:
        return system
    graph = system.graph.copy()
    for name, period in edit.get("periods", {}).items():
        graph.replace_task(replace(graph.task(name), period=period))
    for (src, dst), capacity in edit.get("capacities", {}).items():
        graph.set_channel_capacity(src, dst, capacity)
    return System(graph=graph, response_times=system.response_times)


def _sweep_arms(rng, *, n_tasks: int, candidates: int, duration_s: float, edits):
    """Candidates derived from one compiled scenario vs a compile each.

    ``fresh`` compiles the edited system per candidate (the cost model
    before delta compilation: every grid, rank table and schedule
    rebuilt); ``delta`` / ``view`` (one arm, named per section) compiles
    the base once and derives each candidate through
    :meth:`~repro.sim.batch.CompiledScenario.edit`, which rebuilds only
    what the edit invalidates (capacity edits even share the schedule
    memo); offset-only candidates replay the base directly.  The WCET
    policy with one fixed seed makes every per-candidate disparity
    deterministic.
    """
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    sweep, info = edits(system, rng, candidates)

    def fresh(note):
        return [
            CompiledScenario(_edited_system(system, edit), sink).disparity(
                edit["offsets"], SEED, duration, warmup, wcet_policy
            )
            for edit in sweep
        ]

    def shared(note):
        base = CompiledScenario(system, sink)
        derived = []
        for edit in sweep:
            changes = {key: value for key, value in edit.items() if key != "offsets"}
            derived.append((base.edit(**changes) if changes else base, edit["offsets"]))
        disparities = [
            compiled.disparity(offsets, SEED, duration, warmup, wcet_policy)
            for compiled, offsets in derived
        ]
        note["delta_replay"] = all(
            compiled.eligible and compiled.in_domain(offsets)
            for compiled, offsets in derived
        )
        return disparities

    return {"fresh": fresh, "delta": shared, "view": shared}, info


@dataclass(frozen=True)
class _BenchResult:
    """One graph of the synthetic campaign: id, observed, bound."""

    x: int
    graph_index: int
    seed: int
    sim_ms: float
    s_diff_ms: float
    timing: StageTiming


@dataclass(frozen=True)
class _BenchRow:
    """One point (X value) of the synthetic campaign."""

    x: int
    sim_ms: float
    s_diff_ms: float


@dataclass(frozen=True)
class _BenchCampaignConfig:
    """Points-heavy campaign shape: X is a point id, not a size knob.

    The Fig. 6 parts sweep structural sizes along X, so a
    10^4-scenario campaign there would mean enormous graphs.  The
    benchmark part instead holds the scenario size fixed
    (``n_tasks``) and makes X a plain point index — the many-points /
    cheap-points shape where per-point engine overhead (task filtering,
    checkpoint rewriting, pool barriers) is measurable against real
    generate/analyze/simulate work.
    """

    x_values: Tuple[int, ...]
    graphs_per_point: int
    sims_per_graph: int
    duration_s: float
    n_tasks: int
    seed: int = SEED


def _bench_campaign_run_graph(config: _BenchCampaignConfig, task):
    """Generate + analyze + simulate one fixed-size graph (pure)."""
    rng = random.Random(task.seed)
    t0 = time.perf_counter()
    scenario = generate_random_scenario(config.n_tasks, rng)
    t1 = time.perf_counter()
    session = AnalysisSession(scenario.system)
    s_diff = to_ms(session.disparity(scenario.sink))
    t2 = time.perf_counter()
    duration = seconds(config.duration_s)
    sim = to_ms(
        session.observed_disparity(
            scenario.sink, sims=config.sims_per_graph, duration=duration,
            warmup=duration // 4, rng=rng,
        )
    )
    timing = StageTiming(t1 - t0, t2 - t1, time.perf_counter() - t2)
    return _BenchResult(task.x, task.graph_index, task.seed, sim, s_diff, timing)


def _bench_campaign_aggregate(x: int, results) -> _BenchRow:
    ordered = sorted(results, key=lambda r: r.graph_index)
    return _BenchRow(
        x=x,
        sim_ms=sum(r.sim_ms for r in ordered) / len(ordered),
        s_diff_ms=sum(r.s_diff_ms for r in ordered) / len(ordered),
    )


def _bench_campaign_decode(data: dict) -> _BenchResult:
    return _BenchResult(**{**data, "timing": StageTiming(**data["timing"])})


def _bench_campaign_format(row: _BenchRow) -> str:
    return f"x={row.x}: Sim={row.sim_ms:.1f}ms S-diff={row.s_diff_ms:.1f}ms"


def _bench_campaign_csv(rows) -> str:
    lines = ["x,sim_ms,s_diff_ms"]
    lines += [f"{r.x},{r.sim_ms:.6f},{r.s_diff_ms:.6f}" for r in rows]
    return "\n".join(lines) + "\n"


def bench_campaign_part() -> CampaignPart:
    """The synthetic points-heavy campaign as a :class:`CampaignPart`."""
    return CampaignPart(
        name="bench",
        tasks=graph_tasks,
        run_graph=_bench_campaign_run_graph,
        aggregate=_bench_campaign_aggregate,
        row_type=_BenchRow,
        result_type=_BenchResult,
        decode_result=_bench_campaign_decode,
        format_progress=_bench_campaign_format,
        to_csv=_bench_campaign_csv,
        metric=attrgetter("sim_ms"),
    )


def _legacy_campaign(config: _BenchCampaignConfig, checkpoint_path: Path):
    """The pre-streaming campaign loop, faithfully reproduced.

    One pool ``map_ordered`` barrier per point over tasks selected by a
    linear filter of the full task list (O(points² × graphs) across the
    campaign), one result list per point, and — after every point — an
    atomic rewrite of the *entire* checkpoint document in the old
    whole-file JSON format (O(points²) bytes across the campaign).
    """
    tasks = graph_tasks(config)
    rows = []
    saved_rows: Dict[str, dict] = {}
    order: List[str] = []
    fingerprint = config_fingerprint("bench", config)
    with PoolRunner(1) as pool:
        for x in config.x_values:
            point_tasks = [task for task in tasks if task.x == x]
            results, _stats = pool.map_ordered(
                partial(_bench_campaign_run_graph, config), point_tasks
            )
            row = _bench_campaign_aggregate(x, results)
            rows.append(row)
            saved_rows[str(x)] = asdict(row)
            order.append(str(x))
            payload = {"fingerprint": fingerprint, "order": order, "rows": saved_rows}
            tmp = f"{checkpoint_path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, str(checkpoint_path))
    return rows


def _campaign_arms(
    rng, *, points: int, graphs_per_point: int, sims_per_graph: int,
    duration_s: float, n_tasks: int, shards: int = 1, workers: int = 1,
):
    """One points-heavy campaign through four engines, rows compared.

    ``legacy`` is :func:`_legacy_campaign`; ``streaming`` is
    :func:`repro.parallel.campaign.run_campaign` on one worker (single
    adaptive map, bounded accumulators, O(1) JSONL appends), both
    checkpointing, and records the accumulator's *measured* peak
    residency next to the legacy loop's whole-campaign row dict.
    ``pool`` runs ``run_campaign`` on a ``workers``-wide process pool;
    ``cluster`` runs :func:`repro.parallel.cluster.run_cluster` with
    ``shards`` shards on ``workers`` worker subprocesses (launch, shard
    JSONL writes, tail polling and merge included): its overhead over
    ``pool`` is the measured price of fault tolerance.
    """
    config = _BenchCampaignConfig(
        tuple(range(points)), graphs_per_point, sims_per_graph, duration_s, n_tasks
    )
    part = bench_campaign_part()

    def legacy(note):
        with tempfile.TemporaryDirectory() as tmpdir:
            rows = _legacy_campaign(config, Path(tmpdir) / "legacy.ckpt")
        note["legacy_resident_rows"] = points
        return rows

    def streaming(note):
        with tempfile.TemporaryDirectory() as tmpdir:
            checkpoint = str(Path(tmpdir) / "stream.ckpt")
            rows, timing = run_campaign(part, config, jobs=1, checkpoint=checkpoint)
        stream = timing.stream or {}
        for key in ("peak_in_flight_results", "peak_points_open"):
            note[key] = stream.get(key, 0)
        return rows

    def pool(note):
        return run_campaign(part, config, jobs=workers)[0]

    def cluster(note):
        with tempfile.TemporaryDirectory() as tmpdir:
            rows, report = run_cluster(
                part, config, shards=shards, workers=workers, out_dir=tmpdir,
                heartbeat_timeout=300.0, poll_s=0.02,
            )
        if report.deaths:
            raise AssertionError(
                f"benchmark run saw {report.deaths} unexpected worker death(s)"
            )
        return rows

    arms = {"legacy": legacy, "streaming": streaming, "pool": pool, "cluster": cluster}
    return arms, {"scenarios": points * graphs_per_point * sims_per_graph}


def _diamond_ladder(levels: int, width: int = 2):
    """``levels`` fork/join stages of ``width`` branches each.

    The graph has ``width**levels`` source chains of identical length
    ``2*levels + 1``, so growing ``width`` multiplies the chain count
    without lengthening any chain — isolating the prefix-sharing
    effect from per-chain traversal cost.  Every task runs on its own
    unit at negligible utilization, so the system is trivially
    schedulable and the benchmark measures *analysis* cost only.
    """
    graph = CauseEffectGraph()

    def add(name: str, *, sensor: bool = False) -> str:
        # Sources are instantaneous sensors in this model (W = B = 0).
        wcet = 0 if sensor else ms(1)
        graph.add_task(
            Task(name, period=ms(10), wcet=wcet, bcet=wcet // 2, offset=0,
                 ecu=f"u_{name}", priority=1)
        )
        return name

    prev = add("src", sensor=True)
    for level in range(levels):
        join = add(f"j{level}")
        for branch in range(width):
            middle = add(f"b{level}_{branch}")
            graph.add_channel(prev, middle)
            graph.add_channel(middle, join)
        prev = join
    return graph, prev


def _analysis_arms(rng, *, levels: int, width: int):
    """One full backward-bounds pass over every chain of a ladder.

    A fresh :class:`BackwardBoundsCache` computes WCBT/BCBT for all
    ``width**levels`` chains.  The cache interns per-edge and per-task
    ingredients once and accumulates along shared prefixes, so the
    per-chain cost *falls* as chains multiply — the point of the
    DAG-shared DP.
    """
    graph, sink = _diamond_ladder(levels, width)
    system = System.build(graph)
    chains = enumerate_source_chains(system.graph, sink)

    def wall(note):
        cache = BackwardBoundsCache(system)
        for chain in chains:
            cache.bounds(chain)

    return {"wall": wall}, {"chains": len(chains)}


_BATCH_FULL = {"n_tasks": 10, "sims": 20, "duration_s": 6.0, "repeats": 3}
_BATCH_QUICK = {**_BATCH_FULL, "sims": 8, "duration_s": 2.0, "repeats": 2}
_SWEEP = {"n_tasks": 20, "candidates": 150, "duration_s": 0.25, "repeats": 3}
_CAMPAIGN = {"points": 120, "graphs_per_point": 1, "sims_per_graph": 2,
             "duration_s": 0.2, "n_tasks": 5}
_CLUSTER = {**_CAMPAIGN, "points": 200, "shards": 2, "workers": 2}
_SIMS_PER_S = Column("sims_per_s", "sims", "batched_s")
_REPLICATION = (
    Column("speedup", "sequential_s", "batched_s"),
    Column("columnar_speedup", "replay_s", "batched_s"),
    _SIMS_PER_S,
)

#: Every kernel, in document order.  The batched tiers gate ratios at
#: any shape; the reference-simulator throughput, the legacy loop's
#: quadratic overhead, the coordinator's fixed costs and the per-chain
#: analysis cost all depend on the shape, so those gates compare only
#: rows whose ``shape_keys`` equal the baseline's.
SPECS: Tuple[Spec, ...] = (
    Spec(
        "sim", "kernel", _sim_arms, ("wall",),
        (Column("jobs_per_s", "jobs", "wall_s", 1),
         Column("sims_per_s", "sims", "wall_s")),
        Gate("jobs_per_s", "higher", "sim kernel throughput", " jobs/s"),
        full={"n_tasks": 30, "sims": 6, "duration_s": 2.0},
        quick={"n_tasks": 20, "sims": 3, "duration_s": 1.0},
        shape_keys=("n_tasks", "sims", "duration_s"),
    ),
    Spec(
        "batch", "batch", _replication_arms, ("sequential", "replay", "batched"),
        _REPLICATION, Gate("speedup", "higher", "batch replication speedup"),
        _BATCH_FULL, _BATCH_QUICK, winner="batched",
    ),
    Spec(
        "let", "let", partial(_replication_arms, semantics="let"),
        ("sequential", "replay", "batched"),
        _REPLICATION, Gate("speedup", "higher", "LET batch speedup"),
        _BATCH_FULL, _BATCH_QUICK, winner="batched",
    ),
    Spec(
        "columnar", "columnar", _replication_arms, ("replay", "columnar"),
        (Column("speedup", "replay_s", "columnar_s"),
         Column("sims_per_s", "sims", "columnar_s")),
        Gate("speedup", "higher", "columnar replay speedup"),
        {**_BATCH_FULL, "sims": 40}, {**_BATCH_QUICK, "sims": 12},
        winner="columnar",
    ),
    Spec(
        "fault", "fault", partial(_replication_arms, dropout=True),
        ("sequential", "batched"),
        (Column("speedup", "sequential_s", "batched_s"), _SIMS_PER_S),
        Gate("speedup", "higher", "faulted batch speedup"),
        _BATCH_FULL, _BATCH_QUICK, winner="batched",
    ),
    Spec(
        "delta", "delta", partial(_sweep_arms, edits=_offset_edits), ("fresh", "delta"),
        (Column("speedup", "fresh_s", "delta_s"),
         Column("candidates_per_s", "candidates", "delta_s")),
        Gate("speedup", "higher", "delta-replay speedup"),
        _SWEEP, {**_SWEEP, "candidates": 40, "repeats": 2}, winner="delta",
    ),
    Spec(
        "structural", "structural", partial(_sweep_arms, edits=_structural_edits),
        ("fresh", "view"),
        (Column("speedup", "fresh_s", "view_s"),
         Column("candidates_per_s", "candidates", "view_s")),
        Gate("speedup", "higher", "structural-view speedup"),
        {**_SWEEP, "candidates": 60}, {**_SWEEP, "candidates": 24, "repeats": 2},
        winner="view",
    ),
    Spec(
        "campaign", "campaign", _campaign_arms, ("legacy", "streaming"),
        (Column("speedup", "legacy_s", "streaming_s"),
         Column("scenarios_per_s", "scenarios", "streaming_s", 1)),
        Gate("speedup", "higher", "streaming campaign speedup"),
        {**_CAMPAIGN, "points": 1250, "sims_per_graph": 8}, _CAMPAIGN,
        shape_keys=("points", "sims_per_graph"), winner="streaming",
    ),
    Spec(
        "cluster", "cluster", _campaign_arms, ("pool", "cluster"),
        (Column("overhead", "cluster_s", "pool_s"),
         Column("scenarios_per_s", "scenarios", "cluster_s", 1)),
        Gate("overhead", "lower", "cluster coordinator overhead"),
        _CLUSTER, {**_CLUSTER, "points": 24},
        shape_keys=("points", "sims_per_graph", "shards"),
    ),
    Spec(
        "analysis", "analysis", _analysis_arms, ("wall",),
        (Column("per_chain_us", "wall_s", "chains", 2, 1e6),),
        Gate("per_chain_us", "lower", "backward-bounds cost", " us/chain"),
        [{"levels": 6, "width": w, "repeats": 3} for w in (1, 2, 3, 5)],
        [{"levels": 4, "width": w, "repeats": 3} for w in (1, 2, 4)],
        shape_keys=("levels", "width"),
    ),
)

#: ``repro bench --kernel`` names, in document order.
KERNELS = tuple(spec.kernel for spec in SPECS)


def _rows(entry) -> List[Dict[str, Any]]:
    """A document section as a list of rows (tables are lists already)."""
    return entry if isinstance(entry, list) else [] if entry is None else [entry]


def run_benchmarks(
    *, quick: bool = False, kernels: Sequence[str] = KERNELS
) -> Dict[str, Any]:
    """Measure the selected kernels as one JSON-serializable document.

    ``quick=True`` uses each spec's CI shape; ``kernels`` is any subset
    of :data:`KERNELS`.
    """
    unknown = set(kernels) - set(KERNELS)
    if unknown:
        raise ValueError(f"unknown benchmark kernels: {sorted(unknown)}")
    document: Dict[str, Any] = {"schema": SCHEMA_VERSION, "quick": quick}
    for spec in SPECS:
        if spec.kernel in kernels:
            document[spec.section] = measure(spec, spec.quick if quick else spec.full)
    return document


def format_benchmarks(results: Dict[str, Any]) -> str:
    """One ``key=value`` line per row of a :func:`run_benchmarks` document."""
    return "\n".join(
        f"{spec.kernel:<11}" + " ".join(f"{k}={v}" for k, v in row.items())
        for spec in SPECS
        for row in _rows(results.get(spec.section))
    )


def compare_to_baseline(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Regressions of ``current`` vs the committed ``baseline``.

    One message per row whose gated metric moved the wrong way by more
    than :data:`DEFAULT_TOLERANCE` (relative) against the baseline row
    with equal shape keys.  Rows without such a baseline row, and
    sections absent from either document, are skipped.
    """
    regressions: List[str] = []
    for spec in SPECS:
        metric, better, label, unit = spec.gate
        base_rows = {
            tuple(base.get(key) for key in spec.shape_keys): base
            for base in _rows(baseline.get(spec.section))
        }
        for row in _rows(current.get(spec.section)):
            shape = tuple(row[key] for key in spec.shape_keys)
            base = base_rows.get(shape, {}).get(metric)
            if not base:
                continue
            change = row[metric] / base - 1.0
            if (-change if better == "higher" else change) <= DEFAULT_TOLERANCE:
                continue
            where = ", ".join(f"{k}={v}" for k, v in zip(spec.shape_keys, shape))
            regressions.append(
                f"{label} {row[metric]:,.2f}{unit} is {abs(change):.0%} "
                f"{'below' if change < 0 else 'above'} the committed "
                f"{base:,.2f}{unit}" + (f" ({where})" if where else "")
            )
    return regressions


def load_baseline(path: Path) -> Optional[Dict[str, Any]]:
    """The committed benchmark document, or ``None`` if absent."""
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)
