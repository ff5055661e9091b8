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
import random
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.chains.backward import BackwardBoundsCache
from repro.core.disparity import worst_case_disparity
from repro.core.pairwise import disparity_bound_forkjoin
from repro.exact.hyperperiod import steady_state_disparity
from repro.exact.search import _CompiledObjective
from repro.gen import generate_random_scenario
from repro.model.chain import enumerate_source_chains
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import Task
from repro.sim.batch import PHASE_TIMES, CompiledScenario, run_batch
from repro.sim.ckernel import set_thread_budget, thread_budget
from repro.sim.engine import Simulator, randomize_offsets
from repro.sim.exec_time import wcet_policy
from repro.sim.faults import FaultPlan
from repro.sim.metrics import DisparityMonitor
from repro.units import ms, seconds

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
    """The same ``sims`` randomized replications through two paths.

    ``sequential`` runs independent :class:`Simulator` calls (per-run
    setup, the pre-batch Fig. 6 path); ``batched`` runs
    :func:`run_batch` on its auto-selected tier and records the
    columnar phase split (``draw_s`` key extraction, ``advance_s`` the
    kernel call, ``derive_s`` the numpy fold).  ``dropout`` drops the
    first source mid-horizon: the fault plan compiles to release masks
    in the columnar tier and to suppressed releases in the simulator.
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

    def batched(note):
        before = dict(PHASE_TIMES)
        result = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng, semantics=semantics, faults=faults,
        )
        note["engine"] = result.engine
        note["phases"] = {
            key: round(PHASE_TIMES[key] - before[key], 4)
            for key in ("draw_s", "advance_s", "derive_s")
        }
        return list(result.disparities)

    return {"sequential": sequential, "batched": batched}, info


def _split_arms(rng, *, n_tasks: int, sims: int, duration_s: float):
    """One columnar batch on one kernel thread and split across threads.

    Both arms run the same :func:`run_batch` call; ``serial`` under a
    thread budget of 1, ``split`` under ``threads`` = this process's
    budget, capped at 2 so hosts with more CPUs still record a
    comparable row.  The shapes are above the split threshold
    (``columnar.SPLIT_MIN_WORK``).
    """
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    threads = min(2, thread_budget())

    def arm(count: int) -> Arm:
        def run(note):
            budget = thread_budget()
            set_thread_budget(count)
            try:
                result = run_batch(
                    system, sink, sims=sims, duration=duration,
                    warmup=duration // 4, rng=rng,
                )
            finally:
                set_thread_budget(budget)
            return list(result.disparities)

        return run

    return {"serial": arm(1), "split": arm(threads)}, {"threads": threads}


def _sweep_arms(rng, *, n_tasks: int, candidates: int, duration_s: float):
    """Offset candidates against one compiled scenario vs a compile each.

    ``fresh`` compiles the system per candidate; ``delta`` compiles it
    once and replays every candidate on it, reusing the per-horizon
    columnar kernel inputs.  Both arms evaluate each random in-domain
    offset vector (the ``exact.search`` probe shape) with
    :meth:`~repro.sim.batch.CompiledScenario.disparity`, a one-row
    columnar replay.  The WCET policy with one fixed seed makes every
    per-candidate disparity deterministic.
    """
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    periods = [task.period for task in system.graph.tasks]
    vectors = [
        tuple(rng.randint(1, period) for period in periods)
        for _ in range(candidates)
    ]

    def fresh(note):
        return [
            CompiledScenario(system, sink).disparity(
                offsets, SEED, duration, warmup, wcet_policy
            )
            for offsets in vectors
        ]

    def delta(note):
        compiled = CompiledScenario(system, sink)
        note["delta_replay"] = compiled.eligible and all(
            compiled.in_domain(offsets) for offsets in vectors
        )
        return [
            compiled.disparity(offsets, SEED, duration, warmup, wcet_policy)
            for offsets in vectors
        ]

    return {"fresh": fresh, "delta": delta}, {}


def _search_arms(rng, *, n_tasks: int, candidates: int, max_windows: int):
    """One offset-search candidate batch through the steady-state objective.

    ``reference`` runs :func:`~repro.exact.hyperperiod.steady_state_disparity`
    per candidate on the :class:`Simulator`; ``batched`` evaluates the
    whole batch with the search's objective, one columnar windowed call
    per probe phase.  The scenario is compiled before either arm runs,
    as the search compiles once per restart.  WCET pins every value.
    """
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    batch = [
        {task.name: rng.randint(1, task.period) for task in system.graph.tasks}
        for _ in range(candidates)
    ]
    objective = _CompiledObjective(system, sink, wcet_policy, max_windows)

    def reference(note):
        return [
            steady_state_disparity(
                system.with_offsets(offsets), sink,
                policy=wcet_policy, max_windows=max_windows,
            ).disparity
            for offsets in batch
        ]

    def batched(note):
        note["engine"] = "columnar" if objective.probe_eligible else "simulator"
        return objective.values(batch)

    return {"reference": reference, "batched": batched}, {}


def _diamond_ladder(levels: int, width: int = 2):
    """``levels`` fork/join stages of ``width`` branches each.

    The graph has ``width**levels`` source chains of identical length
    ``2*levels + 1``, so growing ``width`` multiplies the chain count
    without lengthening any chain — isolating the per-chain cost from
    the chain length.  Every task runs on its own
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
    terms once and sums each chain's hops into its prefix arrays, so
    the per-chain cost stays flat as chains multiply.
    """
    graph, sink = _diamond_ladder(levels, width)
    system = System.build(graph)
    chains = enumerate_source_chains(system.graph, sink)

    def wall(note):
        cache = BackwardBoundsCache(system)
        for chain in chains:
            cache.bounds(chain)

    return {"wall": wall}, {"chains": len(chains)}


def _pairs_arms(rng, *, n_tasks: int, graphs: int):
    """Theorem 2 over every chain pair of ``graphs`` generated systems.

    ``evidence`` calls :func:`~repro.core.pairwise.disparity_bound_forkjoin`
    per pair, which builds each pair's decomposition, offsets and
    windows; ``loop`` calls :func:`~repro.core.disparity.worst_case_disparity`,
    which evaluates every pair on the chains' prefix sums and builds
    evidence for the worst pair only.  Each arm starts every system
    from a fresh bounds cache and returns its bound and pair bounds.
    """
    inputs = []
    for _ in range(graphs):
        scenario = generate_random_scenario(n_tasks, rng)
        system = scenario.system
        inputs.append(
            (system, scenario.sink, enumerate_source_chains(system.graph, scenario.sink))
        )

    def evidence(note):
        out = []
        for system, _sink, chains in inputs:
            cache = BackwardBoundsCache(system)
            bounds = tuple(
                disparity_bound_forkjoin(lam, nu, cache).bound
                for lam, nu in combinations(chains, 2)
            )
            out.append((max(bounds, default=0), bounds))
        return out

    def loop(note):
        out = []
        for system, sink, chains in inputs:
            result = worst_case_disparity(
                system, sink, cache=BackwardBoundsCache(system), chains=chains
            )
            out.append((result.bound, result.pair_bounds))
        return out

    pairs = sum(len(chains) * (len(chains) - 1) // 2 for _, _, chains in inputs)
    return {"evidence": evidence, "loop": loop}, {"pairs": pairs}


_BATCH_FULL = {"n_tasks": 10, "sims": 20, "duration_s": 6.0, "repeats": 3}
_BATCH_QUICK = {**_BATCH_FULL, "sims": 8, "duration_s": 2.0, "repeats": 2}
#: Full runs record the quick shape too, so CI compares like with like.
_BATCH_SHAPES = [_BATCH_FULL, _BATCH_QUICK]
_BATCH_KEYS = ("n_tasks", "sims", "duration_s")
_SPLIT_FULL = {**_BATCH_FULL, "repeats": 5}
_SPLIT_QUICK = {**_SPLIT_FULL, "sims": 10, "duration_s": 3.0}
_SWEEP = {"n_tasks": 20, "candidates": 150, "duration_s": 0.25, "repeats": 3}
_PAIRS_FULL = {"n_tasks": 25, "graphs": 12, "repeats": 3}
_PAIRS_QUICK = {**_PAIRS_FULL, "graphs": 4}
_REPLICATION = (
    Column("speedup", "sequential_s", "batched_s"),
    Column("sims_per_s", "sims", "batched_s"),
)

#: Every kernel, in document order.  A gate whose metric depends on the
#: shape compares only rows whose ``shape_keys`` equal the baseline's:
#: the reference-simulator throughput, the replication speedups (the
#: batched arm's fixed costs weigh more on short batches), the split
#: speedup (and its thread count), the per-chain analysis cost and the
#: pair-loop speedup.
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
        "batch", "batch", _replication_arms, ("sequential", "batched"),
        _REPLICATION, Gate("speedup", "higher", "batch replication speedup"),
        _BATCH_SHAPES, _BATCH_QUICK, _BATCH_KEYS, winner="batched",
    ),
    Spec(
        "let", "let", partial(_replication_arms, semantics="let"),
        ("sequential", "batched"),
        _REPLICATION, Gate("speedup", "higher", "LET batch speedup"),
        _BATCH_SHAPES, _BATCH_QUICK, _BATCH_KEYS, winner="batched",
    ),
    Spec(
        "fault", "fault", partial(_replication_arms, dropout=True),
        ("sequential", "batched"),
        _REPLICATION, Gate("speedup", "higher", "faulted batch speedup"),
        _BATCH_SHAPES, _BATCH_QUICK, _BATCH_KEYS, winner="batched",
    ),
    Spec(
        "split", "split", _split_arms, ("serial", "split"),
        (Column("speedup", "serial_s", "split_s"),),
        Gate("speedup", "higher", "kernel thread-split speedup"),
        [_SPLIT_FULL, _SPLIT_QUICK], _SPLIT_QUICK,
        _BATCH_KEYS + ("threads",),
    ),
    Spec(
        "delta", "delta", _sweep_arms, ("fresh", "delta"),
        (Column("speedup", "fresh_s", "delta_s"),
         Column("candidates_per_s", "candidates", "delta_s")),
        Gate("speedup", "higher", "delta-replay speedup"),
        _SWEEP, {**_SWEEP, "candidates": 40, "repeats": 2}, winner="delta",
    ),
    Spec(
        "search", "search", _search_arms, ("reference", "batched"),
        (Column("speedup", "reference_s", "batched_s"),
         Column("candidates_per_s", "candidates", "batched_s")),
        Gate("speedup", "higher", "batched search-objective speedup"),
        {"n_tasks": 12, "candidates": 96, "max_windows": 4, "repeats": 3},
        {"n_tasks": 12, "candidates": 48, "max_windows": 4, "repeats": 2},
        winner="batched",
    ),
    Spec(
        "analysis", "analysis", _analysis_arms, ("wall",),
        (Column("per_chain_us", "wall_s", "chains", 2, 1e6),),
        Gate("per_chain_us", "lower", "backward-bounds cost", " us/chain"),
        [{"levels": 6, "width": w, "repeats": 3} for w in (1, 2, 3, 5)],
        [{"levels": 4, "width": w, "repeats": 3} for w in (1, 2, 4)],
        shape_keys=("levels", "width"),
    ),
    Spec(
        "pairs", "pairs", _pairs_arms, ("evidence", "loop"),
        (Column("speedup", "evidence_s", "loop_s"),
         Column("pairs_per_s", "pairs", "loop_s", 0)),
        Gate("speedup", "higher", "pair-loop speedup"),
        [_PAIRS_FULL, _PAIRS_QUICK], _PAIRS_QUICK, ("n_tasks", "graphs"),
        winner="loop",
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
