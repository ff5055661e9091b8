"""Performance observability: micro-benchmarks and profiling helpers.

This module is the measurement side of the single-worker hot-path
optimization work:

* :func:`profile_to_text` wraps any callable in :mod:`cProfile` and
  renders the top-N cumulative entries — the CLI's ``--profile`` flag
  on ``fig6``/``analyze``/``diagnose`` is a thin shim over it.
* :func:`bench_sim_kernel` measures raw simulator throughput
  (completed jobs per wall-clock second) on a fixed WATERS-style
  scenario.  This is the unoptimized reference loop
  (:class:`~repro.sim.engine.Simulator`); campaigns replay through the
  batch tiers measured below.
* :func:`bench_batch_kernel` measures the batched replication engine
  (:mod:`repro.sim.batch`) against the same replications run as
  independent simulations — a paired, in-process comparison whose
  speedup ratio the regression gate tracks.  A third arm pins the
  per-replication compiled replay (``engine="compiled"``) so the
  columnar engine's gain over it is reported separately
  (``columnar_speedup``).
* :func:`bench_let_kernel` is the same paired comparison under LET
  semantics, with the same third replay arm.
* :func:`bench_columnar_kernel` is the dedicated columnar-vs-replay
  pair: the same replications through the columnar lockstep engine
  and through the per-replication compiled loop, asserted identical;
  its ratio is the regression-gate metric for the columnar tier.
* :func:`bench_fault_kernel` is the paired comparison for faulted
  runs: a dropout plan compiled to release masks and replayed through
  the batched tiers versus the same replications as independent
  simulator runs (the pre-mask fault path), disparities asserted
  identical; its ratio gates the faulted batched replay.
* :func:`bench_delta_kernel` measures delta compilation: many offset
  candidates on one system, evaluated as cheap
  :meth:`~repro.sim.batch.CompiledScenario.with_offsets` views of one
  compiled scenario versus a fresh compile per candidate (the
  offset-sweep cost model before delta compilation).
* :func:`bench_campaign_kernel` measures the streaming campaign engine
  (:func:`repro.parallel.campaign.run_campaign` — single adaptive map,
  bounded accumulators, append-only JSONL checkpoint) against a
  faithful reproduction of the legacy per-point loop (per-point task
  filter, per-point barriers, whole-document checkpoint rewrite) on a
  points-heavy synthetic campaign, rows asserted identical; the entry
  also records the streaming arm's measured peak result residency next
  to the legacy arm's whole-campaign row dict.
* :func:`bench_cluster_kernel` measures the cluster coordinator
  (:func:`repro.parallel.cluster.run_cluster` — worker subprocesses,
  shard-file liveness polling, incremental merge) against a plain
  single-machine process pool on the same campaign, rows asserted
  identical; the entry reports the coordinator's overhead ratio — the
  measured price of fault tolerance.
* :func:`bench_analysis_scaling` measures the *per-chain* cost of the
  backward-bounds analysis on diamond-ladder graphs whose chain count
  doubles per rung; the DAG-shared prefix DP
  (:class:`repro.chains.backward.BackwardBoundsTable`) makes that cost
  *fall* as chains multiply, which the benchmark asserts.
* :func:`run_benchmarks` bundles the sections into the JSON document committed
  as ``BENCH_kernel.json``; :func:`compare_to_baseline` implements the
  CI regression gate against that file (throughput metrics only, so
  the comparison survives horizon changes between quick and full
  runs — though not machine changes, hence the soft-fail default).

Wall-clock numbers use :func:`time.perf_counter`; everything here is
deliberately dependency-free (stdlib only).
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Relative slowdown tolerated by the regression gate before it trips.
DEFAULT_TOLERANCE = 0.25


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------

def profile_to_text(
    func: Callable[..., Any],
    *args: Any,
    top: int = 30,
    **kwargs: Any,
) -> Tuple[Any, str]:
    """Run ``func`` under cProfile; return ``(result, report_text)``.

    The report lists the ``top`` entries by cumulative time, which is
    the view that answers "where does the campaign actually spend its
    wall clock" (the hot event loop shows up as one fat line).
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(func, *args, **kwargs)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return result, buffer.getvalue()


# ----------------------------------------------------------------------
# simulator-kernel throughput
# ----------------------------------------------------------------------

def bench_sim_kernel(
    *,
    n_tasks: int = 30,
    sims: int = 6,
    duration_s: float = 2.0,
    seed: int = 2023,
) -> Dict[str, Any]:
    """Completed jobs per second of wall clock on one fixed scenario.

    Generates a WATERS-style random scenario, then runs ``sims``
    simulations (distinct seeds, disparity monitored at the sink — the
    Fig. 6 configuration) and reports aggregate throughput.
    """
    from repro.gen import generate_random_scenario
    from repro.model.system import System
    from repro.sim.engine import Simulator, randomize_offsets
    from repro.sim.metrics import DisparityMonitor
    from repro.units import seconds

    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = randomize_offsets(scenario.system.graph, rng)
    system = System(graph=graph, response_times=scenario.system.response_times)
    duration = seconds(duration_s)

    jobs = 0
    start = time.perf_counter()
    for index in range(sims):
        monitor = DisparityMonitor([scenario.sink], warmup=duration // 4)
        result = Simulator(
            system,
            duration,
            seed=seed + index,
            observers=[monitor],
        ).run()
        jobs += result.stats.jobs_completed
    wall = time.perf_counter() - start
    return {
        "n_tasks": n_tasks,
        "sims": sims,
        "duration_s": duration_s,
        "jobs": jobs,
        "wall_s": round(wall, 4),
        "jobs_per_s": round(jobs / wall, 1) if wall else 0.0,
        "sims_per_s": round(sims / wall, 2) if wall else 0.0,
    }


# ----------------------------------------------------------------------
# batched replications vs per-run setup
# ----------------------------------------------------------------------

def bench_batch_kernel(
    *,
    n_tasks: int = 10,
    sims: int = 20,
    duration_s: float = 6.0,
    seed: int = 2023,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Compiled batch engine vs N sequential simulator runs, paired.

    Runs the same ``sims`` replications twice from identical generator
    states — once as independent ``simulate()`` calls (per-run scenario
    setup, the pre-batch Fig. 6 path) and once through
    :func:`repro.sim.batch.run_batch` (compile once, replicate many) —
    asserts the per-replication disparities match, and reports both
    (min-of-``repeats``) walls plus their ratio.  The defaults mirror
    one graph of the default Fig. 6 (a)/(b) campaign (20 replications
    of a 6 s horizon).  Measuring the pair back-to-back in one process
    keeps the speedup honest on machines with drifting load; the ratio
    is also what the regression gate checks, since it survives machine
    changes where absolute throughput does not.

    A third arm replays the same replications through the
    per-replication compiled loop (``engine="compiled"``), isolating
    the columnar lockstep engine's gain over it as
    ``columnar_speedup`` — the ratio the columnar tier must keep ≥ 1
    to pay for itself (and which the ``columnar`` kernel gates).
    """
    from repro.api import AnalysisSession
    from repro.gen import generate_random_scenario
    from repro.sim.batch import run_batch
    from repro.sim.metrics import DisparityMonitor
    from repro.units import seconds

    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    state = rng.getstate()
    session = AnalysisSession(system)

    sequential_s: Optional[float] = None
    replay_s: Optional[float] = None
    batched_s: Optional[float] = None
    engine = ""
    for _ in range(max(1, repeats)):
        rng.setstate(state)
        start = time.perf_counter()
        sequential: List[int] = []
        for _ in range(sims):
            monitor = DisparityMonitor([sink], warmup=warmup)
            session.simulate(
                duration,
                seed=rng.randrange(2**31),
                observers=[monitor],
                offsets_rng=rng,
            )
            sequential.append(monitor.disparity(sink))
        elapsed = time.perf_counter() - start
        sequential_s = elapsed if sequential_s is None else min(
            sequential_s, elapsed
        )

        rng.setstate(state)
        start = time.perf_counter()
        replayed = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng, engine="compiled",
        )
        elapsed = time.perf_counter() - start
        replay_s = elapsed if replay_s is None else min(replay_s, elapsed)
        if list(replayed.disparities) != sequential:
            raise AssertionError(
                "compiled replay diverged from sequential runs"
            )

        rng.setstate(state)
        start = time.perf_counter()
        result = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng,
        )
        elapsed = time.perf_counter() - start
        batched_s = elapsed if batched_s is None else min(batched_s, elapsed)
        engine = result.engine
        if list(result.disparities) != sequential:
            raise AssertionError(
                "batched replications diverged from sequential runs"
            )
    return {
        "n_tasks": n_tasks,
        "sims": sims,
        "duration_s": duration_s,
        "engine": engine,
        "sequential_s": round(sequential_s, 4),
        "replay_s": round(replay_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2) if batched_s else 0.0,
        "columnar_speedup": round(
            replay_s / batched_s, 2
        ) if batched_s else 0.0,
        "sims_per_s": round(sims / batched_s, 2) if batched_s else 0.0,
    }


def bench_let_kernel(
    *,
    n_tasks: int = 10,
    sims: int = 20,
    duration_s: float = 6.0,
    seed: int = 2023,
    repeats: int = 3,
) -> Dict[str, Any]:
    """LET compiled batch engine vs N simulator runs, paired.

    The LET twin of :func:`bench_batch_kernel`: the sequential side
    replays ``sims`` replications as independent
    ``simulate(semantics="let")`` calls and the batched side routes the same replications through
    ``run_batch`` with ``semantics="let"`` (compile once per batch,
    replicate many).  Both
    start from identical generator states, the per-replication
    disparities are asserted equal, and the (min-of-``repeats``) walls
    plus their ratio are reported; the ratio feeds the regression gate.
    As in :func:`bench_batch_kernel`, a third arm pins the
    per-replication compiled replay (``engine="compiled"``) and
    ``columnar_speedup`` records the columnar engine's gain over it
    under LET semantics.
    """
    from repro.gen import generate_random_scenario
    from repro.model.system import System
    from repro.sim.batch import run_batch
    from repro.sim.engine import Simulator, randomize_offsets
    from repro.sim.metrics import DisparityMonitor
    from repro.units import seconds

    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    state = rng.getstate()

    sequential_s: Optional[float] = None
    replay_s: Optional[float] = None
    batched_s: Optional[float] = None
    engine = ""
    for _ in range(max(1, repeats)):
        rng.setstate(state)
        start = time.perf_counter()
        sequential: List[int] = []
        for _ in range(sims):
            monitor = DisparityMonitor([sink], warmup=warmup)
            run_seed = rng.randrange(2**31)
            run_system = System(
                graph=randomize_offsets(system.graph, rng),
                response_times=system.response_times,
            )
            Simulator(
                run_system,
                duration,
                seed=run_seed,
                observers=[monitor],
                semantics="let",
            ).run()
            sequential.append(monitor.disparity(sink))
        elapsed = time.perf_counter() - start
        sequential_s = elapsed if sequential_s is None else min(
            sequential_s, elapsed
        )

        rng.setstate(state)
        start = time.perf_counter()
        replayed = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng, semantics="let", engine="compiled",
        )
        elapsed = time.perf_counter() - start
        replay_s = elapsed if replay_s is None else min(replay_s, elapsed)
        if list(replayed.disparities) != sequential:
            raise AssertionError(
                "LET compiled replay diverged from general-loop runs"
            )

        rng.setstate(state)
        start = time.perf_counter()
        result = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng, semantics="let",
        )
        elapsed = time.perf_counter() - start
        batched_s = elapsed if batched_s is None else min(batched_s, elapsed)
        engine = result.engine
        if list(result.disparities) != sequential:
            raise AssertionError(
                "LET batched replications diverged from general-loop runs"
            )
    return {
        "n_tasks": n_tasks,
        "sims": sims,
        "duration_s": duration_s,
        "engine": engine,
        "sequential_s": round(sequential_s, 4),
        "replay_s": round(replay_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2) if batched_s else 0.0,
        "columnar_speedup": round(
            replay_s / batched_s, 2
        ) if batched_s else 0.0,
        "sims_per_s": round(sims / batched_s, 2) if batched_s else 0.0,
    }


def bench_columnar_kernel(
    *,
    n_tasks: int = 10,
    sims: int = 40,
    duration_s: float = 6.0,
    seed: int = 2023,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Columnar lockstep engine vs per-replication compiled replay, paired.

    The dedicated pairing of the two batched tiers: the same ``sims``
    replications run once through the per-replication compiled loop
    (``engine="compiled"``, one Python event loop per replication) and
    once through the columnar engine (``engine="auto"``, which must
    select it here — the result's engine label is reported), from
    identical generator states, with the per-replication disparities
    asserted equal.  Each arm calls :func:`repro.sim.batch.run_batch`
    afresh, so both pay one compile per batch and the ratio isolates
    the replay cost — Python event loop per sim vs one C advance plus
    vectorized derivation across all sims.  The (min-of-``repeats``)
    walls, their ratio (the regression-gate metric for the columnar
    tier) and the columnar phase split (draw/advance/derive seconds,
    from :data:`repro.sim.batch.PHASE_TIMES`) are reported.  ``sims``
    doubles :func:`bench_batch_kernel`'s default to exercise a wider
    batch — the shape the columnar engine exists for — with the
    per-batch compile cost amortized equally in both arms.
    """
    import repro.sim.batch as batch_mod
    from repro.gen import generate_random_scenario
    from repro.sim.batch import run_batch
    from repro.units import seconds

    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    state = rng.getstate()

    replay_s: Optional[float] = None
    columnar_s: Optional[float] = None
    engine = ""
    phases = {"draw_s": 0.0, "advance_s": 0.0, "derive_s": 0.0}
    for _ in range(max(1, repeats)):
        rng.setstate(state)
        start = time.perf_counter()
        replayed = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng, engine="compiled",
        )
        elapsed = time.perf_counter() - start
        replay_s = elapsed if replay_s is None else min(replay_s, elapsed)

        rng.setstate(state)
        before = {key: batch_mod.PHASE_TIMES[key] for key in phases}
        start = time.perf_counter()
        result = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng,
        )
        elapsed = time.perf_counter() - start
        if columnar_s is None or elapsed < columnar_s:
            columnar_s = elapsed
            phases = {
                key: round(batch_mod.PHASE_TIMES[key] - before[key], 4)
                for key in phases
            }
        engine = result.engine
        if result.disparities != replayed.disparities:
            raise AssertionError(
                "columnar replications diverged from compiled replay"
            )
    return {
        "n_tasks": n_tasks,
        "sims": sims,
        "duration_s": duration_s,
        "engine": engine,
        "replay_s": round(replay_s, 4),
        "columnar_s": round(columnar_s, 4),
        "speedup": round(replay_s / columnar_s, 2) if columnar_s else 0.0,
        "sims_per_s": round(sims / columnar_s, 2) if columnar_s else 0.0,
        "phases": phases,
    }


def bench_fault_kernel(
    *,
    n_tasks: int = 10,
    sims: int = 20,
    duration_s: float = 6.0,
    seed: int = 2023,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Faulted batched replay vs per-replication simulator runs, paired.

    Fault plans used to force the per-replication simulator — the one
    workload that stressed the provenance machinery never benefited
    from the batched tiers.  With dropouts compiled to boolean release
    masks over the pre-drawn release tables, faulted runs replay
    through the fastest eligible batched tier.  This kernel measures
    that gain on a periodic scenario with a mid-horizon dropout of one
    source: the sequential arm runs ``sims`` replications as
    independent ``simulate()`` calls (the pre-mask fault
    path), the batched arm routes the same replications — same
    generator state, same fault plan — through
    :func:`repro.sim.batch.run_batch`; per-replication disparities are
    asserted equal and the (min-of-``repeats``) walls plus their ratio
    (the regression-gate metric) are reported.
    """
    from repro.gen import generate_random_scenario
    from repro.model.system import System
    from repro.sim.batch import run_batch
    from repro.sim.engine import Simulator, randomize_offsets
    from repro.sim.faults import FaultPlan
    from repro.sim.metrics import DisparityMonitor
    from repro.units import seconds

    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    victim = sorted(system.graph.sources())[0]
    faults = FaultPlan().drop(victim, 2 * duration // 5, 3 * duration // 5)
    state = rng.getstate()

    sequential_s: Optional[float] = None
    batched_s: Optional[float] = None
    engine = ""
    for _ in range(max(1, repeats)):
        rng.setstate(state)
        start = time.perf_counter()
        sequential: List[int] = []
        for _ in range(sims):
            monitor = DisparityMonitor([sink], warmup=warmup)
            run_seed = rng.randrange(2**31)
            run_system = System(
                graph=randomize_offsets(system.graph, rng),
                response_times=system.response_times,
            )
            Simulator(
                run_system,
                duration,
                seed=run_seed,
                observers=[monitor],
                faults=faults,
            ).run()
            sequential.append(monitor.disparity(sink))
        elapsed = time.perf_counter() - start
        sequential_s = elapsed if sequential_s is None else min(
            sequential_s, elapsed
        )

        rng.setstate(state)
        start = time.perf_counter()
        result = run_batch(
            system, sink, sims=sims, duration=duration, warmup=warmup,
            rng=rng, faults=faults,
        )
        elapsed = time.perf_counter() - start
        batched_s = elapsed if batched_s is None else min(batched_s, elapsed)
        engine = result.engine
        if list(result.disparities) != sequential:
            raise AssertionError(
                "faulted batched replications diverged from the simulator"
            )
    return {
        "n_tasks": n_tasks,
        "sims": sims,
        "duration_s": duration_s,
        "engine": engine,
        "victim": victim,
        "sequential_s": round(sequential_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2) if batched_s else 0.0,
        "sims_per_s": round(sims / batched_s, 2) if batched_s else 0.0,
    }


def bench_delta_kernel(
    *,
    n_tasks: int = 20,
    candidates: int = 150,
    duration_s: float = 0.25,
    seed: int = 2023,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Delta-replayed offset candidates vs per-candidate recompile, paired.

    Models the offset-only sweep shape (``exact.search`` candidates,
    Fig. 6 replications within one graph): ``candidates`` offset
    vectors evaluated on the *same* system.  The fresh arm compiles a
    new :class:`~repro.sim.batch.CompiledScenario` per candidate —
    the pre-delta-compilation cost model, regenerating and re-sorting
    the release grid each time — while the delta arm compiles once and
    evaluates every candidate through a
    :meth:`~repro.sim.batch.CompiledScenario.with_offsets` view, which
    rebases the shared precomputed release-stream tables by vector
    shift.  Both arms use the WCET policy with one fixed execution
    seed, so every per-candidate disparity is deterministic; the arms
    are asserted identical before the (min-of-``repeats``) walls and
    their ratio are reported.  The ratio is the gate metric: it is
    machine-independent and must stay well above 1 for delta
    compilation to pay for itself.  The default shape (many candidates
    on a short horizon) mirrors the coordinate-ascent probes of
    ``exact.search``, where per-candidate compile cost is the
    dominant overhead delta compilation removes.
    """
    from repro.gen import generate_random_scenario
    from repro.sim.batch import CompiledScenario
    from repro.sim.exec_time import wcet_policy
    from repro.units import seconds

    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    periods = [task.period for task in system.graph.tasks]
    vectors = [
        tuple(rng.randint(1, period) for period in periods)
        for _ in range(candidates)
    ]

    fresh_s: Optional[float] = None
    delta_s: Optional[float] = None
    delta_replay = False
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fresh = [
            CompiledScenario(system, sink)
            .with_offsets(vector)
            .disparity(seed, duration, warmup, wcet_policy)
            for vector in vectors
        ]
        elapsed = time.perf_counter() - start
        fresh_s = elapsed if fresh_s is None else min(fresh_s, elapsed)

        start = time.perf_counter()
        compiled = CompiledScenario(system, sink)
        views = [compiled.with_offsets(vector) for vector in vectors]
        delta = [
            view.disparity(seed, duration, warmup, wcet_policy)
            for view in views
        ]
        elapsed = time.perf_counter() - start
        delta_s = elapsed if delta_s is None else min(delta_s, elapsed)
        delta_replay = all(view.delta_replay for view in views)
        if delta != fresh:
            raise AssertionError(
                "delta-replayed candidates diverged from fresh compiles"
            )
    return {
        "n_tasks": n_tasks,
        "candidates": candidates,
        "duration_s": duration_s,
        "delta_replay": delta_replay,
        "fresh_s": round(fresh_s, 4),
        "delta_s": round(delta_s, 4),
        "speedup": round(fresh_s / delta_s, 2) if delta_s else 0.0,
        "candidates_per_s": round(candidates / delta_s, 2) if delta_s else 0.0,
    }


def bench_structural_kernel(
    *,
    n_tasks: int = 20,
    candidates: int = 60,
    duration_s: float = 0.25,
    seed: int = 2023,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Structural delta views vs per-candidate recompile, paired.

    Models the period/capacity sweep shape (``explore.sensitivity``
    candidates, Algorithm 1 rounds): a mixed list of period edits
    (period scaled up on rotating compute tasks) and capacity edits
    (rotating channels) of one system, every candidate evaluated at the
    same fixed in-domain offset vector under the WCET policy.  The
    fresh arm builds the edited system and compiles a new
    :class:`~repro.sim.batch.CompiledScenario` per candidate — the
    pre-structural cost model, regenerating every grid, rank table and
    schedule from scratch — while the view arm compiles the base once
    and derives each candidate through
    :meth:`~repro.sim.batch.CompiledScenario.edit`: period candidates
    rebuild only the edited task's release grid, capacity candidates
    share the release streams *and* the memoized schedule (buffer
    sizes never affect scheduling), so the schedule is computed once
    across the whole capacity half of the sweep.  The arms are
    asserted identical before the (min-of-``repeats``) walls and their
    machine-independent ratio — the regression-gate metric — are
    reported.
    """
    from repro.gen import generate_random_scenario
    from repro.model.system import System
    from repro.sim.batch import CompiledScenario
    from repro.sim.exec_time import wcet_policy
    from repro.units import seconds

    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(duration_s)
    warmup = duration // 4
    vector = tuple(
        rng.randint(1, task.period) for task in system.graph.tasks
    )
    compute = [t.name for t in system.graph.tasks if not t.is_instantaneous]
    channels = [(c.src, c.dst) for c in system.graph.channels]
    # Period edits only scale periods *up*, so the fixed offset vector
    # stays in [0, T] and both arms replay through the compiled loop.
    # The 1:2 period:capacity mix mirrors the Algorithm 1 / sensitivity
    # workload, where capacity rounds outnumber period probes.
    edits: List[Tuple[str, Any]] = []
    n_period = n_capacity = 0
    for index in range(candidates):
        if index % 3 == 0 and compute:
            name = compute[n_period % len(compute)]
            factor = 2 + n_period % 3
            period = system.graph.task(name).period * factor
            edits.append(("periods", {name: period}))
            n_period += 1
        else:
            edge = channels[n_capacity % len(channels)]
            capacity = 2 + n_capacity % 5
            edits.append(("capacities", {edge: capacity}))
            n_capacity += 1

    def edited_system(kind: str, payload: Dict[Any, Any]) -> System:
        graph = system.graph.copy()
        if kind == "periods":
            from dataclasses import replace

            for name, period in payload.items():
                graph.replace_task(replace(graph.task(name), period=period))
        else:
            for (src, dst), capacity in payload.items():
                graph.set_channel_capacity(src, dst, capacity)
        return System(graph=graph, response_times=system.response_times)

    fresh_s: Optional[float] = None
    view_s: Optional[float] = None
    delta_replay = False
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fresh = [
            CompiledScenario(edited_system(kind, payload), sink)
            .with_offsets(vector)
            .disparity(seed, duration, warmup, wcet_policy)
            for kind, payload in edits
        ]
        elapsed = time.perf_counter() - start
        fresh_s = elapsed if fresh_s is None else min(fresh_s, elapsed)

        start = time.perf_counter()
        base = CompiledScenario(system, sink)
        views = [
            base.edit(**{kind: payload, "offsets": vector})
            for kind, payload in edits
        ]
        via_views = [
            view.disparity(seed, duration, warmup, wcet_policy)
            for view in views
        ]
        elapsed = time.perf_counter() - start
        view_s = elapsed if view_s is None else min(view_s, elapsed)
        delta_replay = all(view.delta_replay for view in views)
        if via_views != fresh:
            raise AssertionError(
                "structural views diverged from per-candidate recompiles"
            )
    return {
        "n_tasks": n_tasks,
        "candidates": candidates,
        "period_candidates": n_period,
        "capacity_candidates": n_capacity,
        "duration_s": duration_s,
        "delta_replay": delta_replay,
        "fresh_s": round(fresh_s, 4),
        "view_s": round(view_s, 4),
        "speedup": round(fresh_s / view_s, 2) if view_s else 0.0,
        "candidates_per_s": round(
            candidates / view_s, 2
        ) if view_s else 0.0,
    }


# ----------------------------------------------------------------------
# streaming campaign engine vs the legacy per-point loop
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _BenchStage:
    """Per-graph stage split of the synthetic campaign part."""

    generate_s: float
    analyze_s: float
    simulate_s: float


@dataclass(frozen=True)
class _BenchResult:
    """One graph of the synthetic campaign: id, observed, bound."""

    x: int
    graph_index: int
    seed: int
    sim_ms: float
    s_diff_ms: float
    timing: _BenchStage


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
    graphs_per_point: int = 1
    sims_per_graph: int = 4
    duration_s: float = 0.2
    n_tasks: int = 5
    seed: int = 2023


def _bench_campaign_tasks(config: _BenchCampaignConfig):
    from repro.experiments.fig6 import GraphTask
    from repro.gen.scenario import derive_seed

    root = random.Random(config.seed)
    tasks = []
    for x in config.x_values:
        for graph_index in range(config.graphs_per_point):
            tasks.append(
                GraphTask(x=x, graph_index=graph_index, seed=derive_seed(root))
            )
    return tasks


def _bench_campaign_run_graph(config: _BenchCampaignConfig, task):
    """Generate + analyze + simulate one fixed-size graph (pure)."""
    from repro.api import AnalysisSession
    from repro.gen import generate_random_scenario
    from repro.units import seconds, to_ms

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
            scenario.sink,
            sims=config.sims_per_graph,
            duration=duration,
            warmup=duration // 4,
            rng=rng,
        )
    )
    t3 = time.perf_counter()
    return _BenchResult(
        x=task.x,
        graph_index=task.graph_index,
        seed=task.seed,
        sim_ms=sim,
        s_diff_ms=s_diff,
        timing=_BenchStage(t1 - t0, t2 - t1, t3 - t2),
    )


def _bench_campaign_aggregate(x: int, results) -> _BenchRow:
    ordered = sorted(results, key=lambda r: r.graph_index)
    return _BenchRow(
        x=x,
        sim_ms=sum(r.sim_ms for r in ordered) / len(ordered),
        s_diff_ms=sum(r.s_diff_ms for r in ordered) / len(ordered),
    )


def _bench_campaign_decode(data: dict) -> _BenchResult:
    data = dict(data)
    data["timing"] = _BenchStage(**data["timing"])
    return _BenchResult(**data)


def _bench_campaign_format(row: _BenchRow) -> str:
    return f"x={row.x}: Sim={row.sim_ms:.1f}ms S-diff={row.s_diff_ms:.1f}ms"


def _bench_campaign_csv(rows) -> str:
    lines = ["x,sim_ms,s_diff_ms"]
    lines += [f"{r.x},{r.sim_ms:.6f},{r.s_diff_ms:.6f}" for r in rows]
    return "\n".join(lines) + "\n"


def _bench_campaign_metric(result) -> float:
    return result.sim_ms


def bench_campaign_part():
    """The synthetic points-heavy campaign as a :class:`CampaignPart`."""
    from repro.parallel.campaign import CampaignPart

    return CampaignPart(
        name="bench",
        tasks=_bench_campaign_tasks,
        run_graph=_bench_campaign_run_graph,
        aggregate=_bench_campaign_aggregate,
        row_type=_BenchRow,
        result_type=_BenchResult,
        decode_result=_bench_campaign_decode,
        format_progress=_bench_campaign_format,
        to_csv=_bench_campaign_csv,
        metric=_bench_campaign_metric,
    )


def _legacy_campaign(config: _BenchCampaignConfig, checkpoint_path: Path):
    """The pre-streaming campaign loop, faithfully reproduced.

    One pool ``map_ordered`` barrier per point over tasks selected by a
    linear filter of the full task list (O(points² × graphs) across the
    campaign), one result list per point, and — after every point — an
    atomic rewrite of the *entire* checkpoint document in the old
    whole-file JSON format (O(points²) bytes across the campaign).
    This is the arm the streaming engine is measured against.
    """
    import os

    from repro.parallel.checkpoint import config_fingerprint
    from repro.parallel.engine import PoolRunner

    tasks = _bench_campaign_tasks(config)
    rows = []
    saved_rows: Dict[str, dict] = {}
    order: List[str] = []
    fingerprint = config_fingerprint("bench", config)
    from dataclasses import asdict
    from functools import partial

    with PoolRunner(1) as pool:
        for x in config.x_values:
            point_tasks = [task for task in tasks if task.x == x]
            results, _stats = pool.map_ordered(
                partial(_bench_campaign_run_graph, config), point_tasks
            )
            row = _bench_campaign_aggregate(x, results)
            rows.append(row)
            key = str(x)
            saved_rows[key] = asdict(row)
            order.append(key)
            payload = {
                "fingerprint": fingerprint,
                "order": order,
                "rows": saved_rows,
            }
            tmp = f"{checkpoint_path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, str(checkpoint_path))
    return rows


def bench_campaign_kernel(
    *,
    points: int = 1250,
    graphs_per_point: int = 1,
    sims_per_graph: int = 8,
    duration_s: float = 0.2,
    n_tasks: int = 5,
    seed: int = 2023,
) -> Dict[str, Any]:
    """Streaming campaign engine vs the legacy per-point loop, paired.

    Runs the same points-heavy campaign (``points × graphs_per_point ×
    sims_per_graph`` simulated scenarios, checkpointing enabled in both
    arms) twice on one worker: once through the legacy loop
    (:func:`_legacy_campaign` — per-point task filter, per-point result
    lists, whole-document checkpoint rewrite after every point) and
    once through the streaming engine
    (:func:`repro.parallel.campaign.run_campaign` — single adaptive
    map, bounded accumulators, O(1) JSONL appends).  Rows are asserted
    identical, the walls and their ratio are reported, and the
    streaming arm's **measured** peak residency
    (``peak_in_flight_results`` from the accumulator, vs the legacy
    arm's whole-campaign row dict) is recorded — the bounded-memory
    evidence next to the throughput claim.
    """
    import tempfile

    from repro.parallel.campaign import run_campaign

    config = _BenchCampaignConfig(
        x_values=tuple(range(points)),
        graphs_per_point=graphs_per_point,
        sims_per_graph=sims_per_graph,
        duration_s=duration_s,
        n_tasks=n_tasks,
        seed=seed,
    )
    part = bench_campaign_part()
    with tempfile.TemporaryDirectory() as tmpdir:
        start = time.perf_counter()
        legacy_rows = _legacy_campaign(config, Path(tmpdir) / "legacy.ckpt")
        legacy_s = time.perf_counter() - start

        start = time.perf_counter()
        stream_rows, timing = run_campaign(
            part,
            config,
            jobs=1,
            checkpoint=str(Path(tmpdir) / "stream.ckpt"),
        )
        streaming_s = time.perf_counter() - start
    if stream_rows != legacy_rows:
        raise AssertionError(
            "streaming campaign rows diverged from the legacy loop"
        )
    stream = timing.stream or {}
    scenarios = points * graphs_per_point * sims_per_graph
    return {
        "points": points,
        "graphs_per_point": graphs_per_point,
        "sims_per_graph": sims_per_graph,
        "n_tasks": n_tasks,
        "duration_s": duration_s,
        "scenarios": scenarios,
        "legacy_s": round(legacy_s, 4),
        "streaming_s": round(streaming_s, 4),
        "speedup": round(legacy_s / streaming_s, 2) if streaming_s else 0.0,
        "scenarios_per_s": round(
            scenarios / streaming_s, 1
        ) if streaming_s else 0.0,
        "peak_in_flight_results": stream.get("peak_in_flight_results", 0),
        "peak_points_open": stream.get("peak_points_open", 0),
        "legacy_resident_rows": points,
    }


def bench_cluster_kernel(
    *,
    points: int = 200,
    graphs_per_point: int = 1,
    sims_per_graph: int = 2,
    duration_s: float = 0.2,
    n_tasks: int = 5,
    seed: int = 2023,
    shards: int = 2,
    workers: int = 2,
) -> Dict[str, Any]:
    """Cluster coordinator vs a single process pool, paired, rows equal.

    Runs the same points-heavy campaign twice: once through
    :func:`repro.parallel.campaign.run_campaign` with a ``workers``-wide
    process pool (the single-machine fast path) and once through
    :func:`repro.parallel.cluster.run_cluster` with ``shards`` shards on
    ``workers`` local worker subprocesses — subprocess launch, shard
    JSONL writes, file-tail polling and incremental merge included.
    Rows are asserted identical (the coordinator's byte-identity
    contract), and the entry reports the coordinator's **overhead
    ratio** over the plain pool — the price of fault tolerance, which
    amortizes as campaigns grow and must stay small enough to be worth
    paying on a single machine.
    """
    import tempfile

    from repro.parallel.campaign import run_campaign
    from repro.parallel.cluster import run_cluster

    config = _BenchCampaignConfig(
        x_values=tuple(range(points)),
        graphs_per_point=graphs_per_point,
        sims_per_graph=sims_per_graph,
        duration_s=duration_s,
        n_tasks=n_tasks,
        seed=seed,
    )
    part = bench_campaign_part()
    with tempfile.TemporaryDirectory() as tmpdir:
        start = time.perf_counter()
        pool_rows, _ = run_campaign(part, config, jobs=workers)
        pool_s = time.perf_counter() - start

        start = time.perf_counter()
        cluster_rows, report = run_cluster(
            part,
            config,
            shards=shards,
            workers=workers,
            out_dir=tmpdir,
            heartbeat_timeout=300.0,
            poll_s=0.02,
        )
        cluster_s = time.perf_counter() - start
    if cluster_rows != pool_rows:
        raise AssertionError(
            "cluster coordinator rows diverged from the single-pool run"
        )
    if report.deaths:
        raise AssertionError(
            f"benchmark run saw {report.deaths} unexpected worker death(s)"
        )
    scenarios = points * graphs_per_point * sims_per_graph
    return {
        "points": points,
        "graphs_per_point": graphs_per_point,
        "sims_per_graph": sims_per_graph,
        "n_tasks": n_tasks,
        "duration_s": duration_s,
        "scenarios": scenarios,
        "shards": shards,
        "workers": workers,
        "pool_s": round(pool_s, 4),
        "cluster_s": round(cluster_s, 4),
        "overhead": round(cluster_s / pool_s, 2) if pool_s else 0.0,
        "scenarios_per_s": round(
            scenarios / cluster_s, 1
        ) if cluster_s else 0.0,
    }


# ----------------------------------------------------------------------
# analysis scaling (prefix-shared backward bounds)
# ----------------------------------------------------------------------

def _diamond_ladder(levels: int, width: int = 2):
    """``levels`` fork/join stages of ``width`` branches each.

    The graph has ``width**levels`` source chains of identical length
    ``2*levels + 1``, so growing ``width`` multiplies the chain count
    without lengthening any chain — isolating the prefix-sharing
    effect from per-chain traversal cost.  Every task runs on its own
    unit at negligible utilization, so the system is trivially
    schedulable and the benchmark measures *analysis* cost only.
    """
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task
    from repro.units import ms

    graph = CauseEffectGraph()

    def add(name: str, *, sensor: bool = False) -> str:
        # Sources are instantaneous sensors in this model (W = B = 0).
        graph.add_task(
            Task(
                name,
                period=ms(10),
                wcet=0 if sensor else ms(1),
                bcet=0 if sensor else ms(1) // 2,
                offset=0,
                ecu=f"u_{name}",
                priority=1,
            )
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


def bench_analysis_scaling(
    *,
    levels: int = 6,
    widths: Sequence[int] = (1, 2, 3, 5),
    repeats: int = 3,
) -> List[Dict[str, Any]]:
    """Per-chain cost of a full backward-bounds pass as chains multiply.

    For each ``width`` the ladder has ``width**levels`` equal-length
    chains into the sink; the row reports the (min-of-``repeats``) wall
    time of the complete pass — building a fresh
    :class:`BackwardBoundsTable` and computing WCBT/BCBT for every
    chain — divided by the chain count.  The table interns per-edge and
    per-task ingredients once and accumulates along shared prefixes, so
    that fixed cost amortizes and the per-chain microseconds *decrease*
    as the count grows — the point of the DAG-shared DP, asserted by
    the benchmark suite and the regression gate.
    """
    from repro.chains.backward import BackwardBoundsTable
    from repro.model.chain import enumerate_source_chains
    from repro.model.system import System

    rows: List[Dict[str, Any]] = []
    for width in widths:
        graph, sink = _diamond_ladder(levels, width)
        system = System.build(graph)
        chains = enumerate_source_chains(system.graph, sink)
        wall = None
        for _ in range(repeats):
            start = time.perf_counter()
            table = BackwardBoundsTable(system)
            for chain in chains:
                table.bounds(chain)
            elapsed = time.perf_counter() - start
            wall = elapsed if wall is None else min(wall, elapsed)
        rows.append(
            {
                "levels": levels,
                "width": width,
                "chains": len(chains),
                "wall_s": round(wall, 4),
                "per_chain_us": round(wall / len(chains) * 1e6, 2),
            }
        )
    return rows


# ----------------------------------------------------------------------
# the committed benchmark document
# ----------------------------------------------------------------------

#: Benchmark sections of :func:`run_benchmarks`, in document order.
KERNELS = (
    "sim", "batch", "let", "columnar", "fault", "delta", "structural",
    "campaign", "cluster", "analysis",
)


def run_benchmarks(
    *,
    quick: bool = False,
    kernels: Sequence[str] = KERNELS,
) -> Dict[str, Any]:
    """All benchmark metrics as one JSON-serializable document.

    ``quick=True`` shrinks horizons for CI (the reported metrics are
    throughputs and ratios, so they stay comparable with a full run on
    the same machine).  ``kernels`` selects which sections to measure
    (any subset of :data:`KERNELS`); :func:`format_benchmarks` and
    :func:`compare_to_baseline` skip absent sections.  The ``recorded``
    block preserves the measured end-to-end campaign times of the
    optimization PRs for context; it is *not* re-measured here and not
    part of the regression gate.
    """
    unknown = set(kernels) - set(KERNELS)
    if unknown:
        raise ValueError(f"unknown benchmark kernels: {sorted(unknown)}")
    document: Dict[str, Any] = {"schema": SCHEMA_VERSION, "quick": quick}
    if "sim" in kernels:
        document["kernel"] = (
            bench_sim_kernel(n_tasks=20, sims=3, duration_s=1.0)
            if quick
            else bench_sim_kernel()
        )
    if "batch" in kernels:
        document["batch"] = (
            bench_batch_kernel(sims=8, duration_s=2.0, repeats=2)
            if quick
            else bench_batch_kernel()
        )
    if "let" in kernels:
        document["let"] = (
            bench_let_kernel(sims=8, duration_s=2.0, repeats=2)
            if quick
            else bench_let_kernel()
        )
    if "columnar" in kernels:
        document["columnar"] = (
            bench_columnar_kernel(sims=12, duration_s=2.0, repeats=2)
            if quick
            else bench_columnar_kernel()
        )
    if "fault" in kernels:
        document["fault"] = (
            bench_fault_kernel(sims=8, duration_s=2.0, repeats=2)
            if quick
            else bench_fault_kernel()
        )
    if "delta" in kernels:
        document["delta"] = (
            bench_delta_kernel(candidates=40, repeats=2)
            if quick
            else bench_delta_kernel()
        )
    if "structural" in kernels:
        document["structural"] = (
            bench_structural_kernel(candidates=24, repeats=2)
            if quick
            else bench_structural_kernel()
        )
    if "campaign" in kernels:
        document["campaign"] = (
            bench_campaign_kernel(points=120, sims_per_graph=2)
            if quick
            else bench_campaign_kernel()
        )
    if "cluster" in kernels:
        document["cluster"] = (
            bench_cluster_kernel(points=24, sims_per_graph=2)
            if quick
            else bench_cluster_kernel()
        )
    if "analysis" in kernels:
        document["analysis"] = (
            bench_analysis_scaling(levels=4, widths=(1, 2, 4))
            if quick
            else bench_analysis_scaling()
        )
    return document


def format_benchmarks(results: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_benchmarks` document."""
    lines = []
    kernel = results.get("kernel")
    if kernel is not None:
        sims_rate = kernel.get("sims_per_s")
        rate = (
            f", {sims_rate:,.2f} sims/s" if sims_rate is not None else ""
        )
        lines.append(
            f"sim kernel   {kernel['jobs']:>9} jobs in {kernel['wall_s']:.2f}s"
            f"  -> {kernel['jobs_per_s']:,.0f} jobs/s{rate}"
            f"  ({kernel['n_tasks']} tasks, {kernel['sims']} sims, "
            f"{kernel['duration_s']}s horizon)"
        )
    batch = results.get("batch")
    if batch is not None:
        lines.append(
            f"batch        {batch['sims']:>9} sims"
            f"  {batch['sequential_s']:.2f}s sequential ->"
            f" {batch['batched_s']:.2f}s batched"
            f"  ({batch['speedup']:.2f}x, {batch['sims_per_s']:,.1f} sims/s)"
        )
    let = results.get("let")
    if let is not None:
        lines.append(
            f"let batch    {let['sims']:>9} sims"
            f"  {let['sequential_s']:.2f}s sequential ->"
            f" {let['batched_s']:.2f}s batched"
            f"  ({let['speedup']:.2f}x, {let['sims_per_s']:,.1f} sims/s)"
        )
    columnar = results.get("columnar")
    if columnar is not None:
        lines.append(
            f"columnar     {columnar['sims']:>9} sims"
            f"  {columnar['replay_s']:.2f}s replayed ->"
            f" {columnar['columnar_s']:.2f}s columnar"
            f"  ({columnar['speedup']:.2f}x, "
            f"{columnar['sims_per_s']:,.1f} sims/s, "
            f"engine {columnar['engine']})"
        )
    fault = results.get("fault")
    if fault is not None:
        lines.append(
            f"fault        {fault['sims']:>9} sims"
            f"  {fault['sequential_s']:.2f}s sequential ->"
            f" {fault['batched_s']:.2f}s masked batched"
            f"  ({fault['speedup']:.2f}x, "
            f"{fault['sims_per_s']:,.1f} sims/s, "
            f"engine {fault['engine']})"
        )
    delta = results.get("delta")
    if delta is not None:
        lines.append(
            f"delta        {delta['candidates']:>9} cands"
            f"  {delta['fresh_s']:.2f}s recompiled ->"
            f" {delta['delta_s']:.2f}s delta-replayed"
            f"  ({delta['speedup']:.2f}x, "
            f"{delta['candidates_per_s']:,.1f} cands/s)"
        )
    structural = results.get("structural")
    if structural is not None:
        lines.append(
            f"structural   {structural['candidates']:>9} edits"
            f"  {structural['fresh_s']:.2f}s recompiled ->"
            f" {structural['view_s']:.2f}s via views"
            f"  ({structural['speedup']:.2f}x, "
            f"{structural['candidates_per_s']:,.1f} cands/s)"
        )
    campaign = results.get("campaign")
    if campaign is not None:
        lines.append(
            f"campaign     {campaign['scenarios']:>9} scens"
            f"  {campaign['legacy_s']:.2f}s legacy loop ->"
            f" {campaign['streaming_s']:.2f}s streaming"
            f"  ({campaign['speedup']:.2f}x, "
            f"{campaign['scenarios_per_s']:,.1f} scens/s, "
            f"peak {campaign['peak_in_flight_results']} results in flight "
            f"vs {campaign['legacy_resident_rows']} resident rows)"
        )
    cluster = results.get("cluster")
    if cluster is not None:
        lines.append(
            f"cluster      {cluster['scenarios']:>9} scens"
            f"  {cluster['pool_s']:.2f}s single pool ->"
            f" {cluster['cluster_s']:.2f}s coordinated"
            f"  ({cluster['overhead']:.2f}x overhead, "
            f"{cluster['scenarios_per_s']:,.1f} scens/s, "
            f"{cluster['shards']} shards on {cluster['workers']} workers)"
        )
    for row in results.get("analysis", ()):
        lines.append(
            f"analysis     {row['chains']:>9} chains in {row['wall_s']:.3f}s"
            f"  -> {row['per_chain_us']:.1f} us/chain"
            f"  ({row['levels']} levels x width {row['width']})"
        )
    if "recorded" in results:
        rec = results["recorded"]
        lines.append(
            f"recorded     fig6 AB default: {rec['campaign_ab_baseline_s']}s"
            f" -> {rec['campaign_ab_optimized_s']}s"
            f" ({rec['campaign_ab_speedup']}x single worker)"
        )
        lines.append(
            f"recorded     fig6 CD default: {rec['campaign_cd_baseline_s']}s"
            f" -> {rec['campaign_cd_optimized_s']}s"
            f" ({rec['campaign_cd_speedup']}x single worker)"
        )
        if "batch_ab_sim_stage_speedup" in rec:
            lines.append(
                f"recorded     fig6 AB sim stage: "
                f"{rec['batch_ab_sim_stage_speedup']}x with batched "
                f"replications"
            )
    return "\n".join(lines)


def compare_to_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of ``current`` vs the committed ``baseline``.

    Returns one message per metric that regressed by more than
    ``tolerance`` (relative).  Only ratio- and throughput-style metrics
    are compared — ``jobs_per_s`` must not drop, the batch ``speedup``
    (sequential wall over batched wall, a machine-independent ratio)
    must not drop, and ``per_chain_us`` (at each ladder shape present
    in both documents) must not rise — so a quick run can be gated
    against a full-run baseline.  Sections absent from either document
    are skipped, keeping old baselines comparable.
    """
    regressions: List[str] = []
    cur_kernel = current.get("kernel")
    base_kernel = baseline.get("kernel")
    if cur_kernel is not None and base_kernel is not None:
        cur_rate = cur_kernel["jobs_per_s"]
        base_rate = base_kernel["jobs_per_s"]
        if cur_rate < base_rate * (1.0 - tolerance):
            regressions.append(
                f"sim kernel throughput {cur_rate:,.0f} jobs/s is "
                f"{(1 - cur_rate / base_rate) * 100:.0f}% below the "
                f"committed {base_rate:,.0f} jobs/s"
            )
    cur_batch = current.get("batch")
    base_batch = baseline.get("batch")
    if cur_batch is not None and base_batch is not None:
        cur_speedup = cur_batch["speedup"]
        base_speedup = base_batch["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                f"batch replication speedup {cur_speedup:.2f}x is "
                f"{(1 - cur_speedup / base_speedup) * 100:.0f}% below the "
                f"committed {base_speedup:.2f}x"
            )
    cur_let = current.get("let")
    base_let = baseline.get("let")
    if cur_let is not None and base_let is not None:
        cur_speedup = cur_let["speedup"]
        base_speedup = base_let["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                f"LET batch speedup {cur_speedup:.2f}x is "
                f"{(1 - cur_speedup / base_speedup) * 100:.0f}% below the "
                f"committed {base_speedup:.2f}x"
            )
    cur_columnar = current.get("columnar")
    base_columnar = baseline.get("columnar")
    if cur_columnar is not None and base_columnar is not None:
        cur_speedup = cur_columnar["speedup"]
        base_speedup = base_columnar["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                f"columnar replay speedup {cur_speedup:.2f}x is "
                f"{(1 - cur_speedup / base_speedup) * 100:.0f}% below the "
                f"committed {base_speedup:.2f}x"
            )
    cur_fault = current.get("fault")
    base_fault = baseline.get("fault")
    if cur_fault is not None and base_fault is not None:
        cur_speedup = cur_fault["speedup"]
        base_speedup = base_fault["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                f"faulted batch speedup {cur_speedup:.2f}x is "
                f"{(1 - cur_speedup / base_speedup) * 100:.0f}% below the "
                f"committed {base_speedup:.2f}x"
            )
    cur_delta = current.get("delta")
    base_delta = baseline.get("delta")
    if cur_delta is not None and base_delta is not None:
        cur_speedup = cur_delta["speedup"]
        base_speedup = base_delta["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                f"delta-replay speedup {cur_speedup:.2f}x is "
                f"{(1 - cur_speedup / base_speedup) * 100:.0f}% below the "
                f"committed {base_speedup:.2f}x"
            )
    cur_structural = current.get("structural")
    base_structural = baseline.get("structural")
    if cur_structural is not None and base_structural is not None:
        cur_speedup = cur_structural["speedup"]
        base_speedup = base_structural["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                f"structural-view speedup {cur_speedup:.2f}x is "
                f"{(1 - cur_speedup / base_speedup) * 100:.0f}% below the "
                f"committed {base_speedup:.2f}x"
            )
    cur_campaign = current.get("campaign")
    base_campaign = baseline.get("campaign")
    if (
        cur_campaign is not None
        and base_campaign is not None
        # The legacy loop's overhead is quadratic in the point count, so
        # the ratio is only comparable at the same campaign shape (the
        # quick shape is much smaller than the committed full shape).
        and cur_campaign["points"] == base_campaign["points"]
        and cur_campaign["sims_per_graph"] == base_campaign["sims_per_graph"]
    ):
        cur_speedup = cur_campaign["speedup"]
        base_speedup = base_campaign["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                f"streaming campaign speedup {cur_speedup:.2f}x is "
                f"{(1 - cur_speedup / base_speedup) * 100:.0f}% below the "
                f"committed {base_speedup:.2f}x"
            )
    cur_cluster = current.get("cluster")
    base_cluster = baseline.get("cluster")
    if (
        cur_cluster is not None
        and base_cluster is not None
        # The coordinator's fixed costs (subprocess launch, polling)
        # amortize over campaign size, so the overhead ratio is only
        # comparable at the same shape.
        and cur_cluster["points"] == base_cluster["points"]
        and cur_cluster["sims_per_graph"] == base_cluster["sims_per_graph"]
        and cur_cluster["shards"] == base_cluster["shards"]
    ):
        cur_overhead = cur_cluster["overhead"]
        base_overhead = base_cluster["overhead"]
        if cur_overhead > base_overhead * (1.0 + tolerance):
            regressions.append(
                f"cluster coordinator overhead {cur_overhead:.2f}x is "
                f"{(cur_overhead / base_overhead - 1) * 100:.0f}% above the "
                f"committed {base_overhead:.2f}x"
            )
    base_by_shape = {
        (row["levels"], row["width"]): row
        for row in baseline.get("analysis", ())
    }
    for row in current.get("analysis", ()):
        base_row = base_by_shape.get((row["levels"], row["width"]))
        if base_row is None:
            continue
        if row["per_chain_us"] > base_row["per_chain_us"] * (1.0 + tolerance):
            regressions.append(
                f"backward-bounds cost at {row['chains']} chains is "
                f"{row['per_chain_us']:.1f} us/chain vs committed "
                f"{base_row['per_chain_us']:.1f} us/chain"
            )
    return regressions


def load_baseline(path: Path) -> Optional[Dict[str, Any]]:
    """The committed benchmark document, or ``None`` if absent."""
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)
