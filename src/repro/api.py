"""Unified analysis facade: one session object, shared caches.

Every analysis in this package ultimately reads the same two expensive
artifacts — the response-time table computed when a :class:`System` is
built, and the per-chain backward bounds memoized in a
:class:`BackwardBoundsCache` — yet the functional entry points force
callers to thread ``(system, cache)`` through every call site.
:class:`AnalysisSession` owns that state once:

    from repro.api import AnalysisSession

    session = AnalysisSession(system)
    s_diff = session.disparity("sink")                  # Theorem 2
    p_diff = session.disparity("sink", method="p-diff") # Theorem 1
    bounds = session.backward(session.chains("sink")[0])
    result = session.simulate(seconds(10), seed=7)

Sessions memoize chain enumeration and per-``(task, method)`` disparity
results on top of the shared backward-bounds cache, so repeated queries
(the CLI's report, the Fig. 6 worker computing P-diff *and* S-diff of
one sink, a sweep re-checking several tasks) never recompute anything.
The parallel experiment engine (:mod:`repro.parallel`) builds exactly
one session per generated scenario inside each worker process.

Method names accept the CLI/paper spellings (``"p-diff"``,
``"s-diff"``, ``"best"``) as well as the canonical estimator names
(``"independent"``, ``"forkjoin"``); unknown names raise ``ValueError``
listing the choices.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.analysis_regime import AnalysisRegime, regime_of
from repro.chains.backward import BackwardBounds, BackwardBoundsCache
from repro.core.disparity import (
    TaskDisparityResult,
    normalize_method,
    worst_case_disparity,
)
from repro.model.chain import Chain, enumerate_source_chains
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.sched.response_time import ResponseTimeTable
from repro.sim.batch import BatchResult, CompiledScenario, run_batch
from repro.sim.engine import Observer, SimulationResult, randomize_offsets, simulate
from repro.sim.exec_time import ExecTimePolicy, named_policy
from repro.sim.metrics import DisparityMonitor  # noqa: F401  (re-export)
from repro.units import Time

#: A policy given either by CLI name or as a callable.
PolicyLike = Union[str, ExecTimePolicy]

#: Bound on the per-``(task, semantics)`` compiled-scenario memo of a
#: session (see :meth:`AnalysisSession.compiled_scenario`).
COMPILED_CACHE_SIZE = 8


class AnalysisSession:
    """Shared-cache analysis facade over one :class:`System`.

    A session is cheap to create (the heavy lifting happened when the
    system was built) and amortizes everything computed afterwards:
    backward bounds, chain enumerations, and task-level disparity
    results are each computed at most once per session.

    Args:
        system: The analyzed system.
        bounds_strategy: Optional per-chain bounds function passed to
            the :class:`BackwardBoundsCache` — e.g.
            :func:`repro.let.backward_bounds_let` retargets every query
            of this session to LET semantics.
        semantics: Communication semantics this session simulates by
            default (``"implicit"`` or ``"let"``).  A LET session pins
            both sides at construction — pass
            ``bounds_strategy=backward_bounds_let`` for the analytical
            bounds and ``semantics="let"`` so :meth:`simulate`,
            :meth:`observed_disparity` and :meth:`observed_batch`
            replay LET data flow; per-call ``semantics=`` overrides
            remain available.
    """

    def __init__(
        self,
        system: System,
        *,
        bounds_strategy=None,
        semantics: str = "implicit",
    ) -> None:
        if semantics not in ("implicit", "let"):
            raise ValueError(
                f"unknown semantics {semantics!r}; "
                f"choose from ('implicit', 'let')"
            )
        self._system = system
        self._semantics = semantics
        self._regime = regime_of(system)
        self._cache = BackwardBoundsCache(system, strategy=bounds_strategy)
        self._chains: Dict[str, Tuple[Chain, ...]] = {}
        self._results: Dict[Tuple[str, str, bool], TaskDisparityResult] = {}
        self._compiled: "OrderedDict[Tuple[str, str], CompiledScenario]" = (
            OrderedDict()
        )
        self._compiled_hits = 0
        self._compiled_misses = 0
        self._compiled_evictions = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: CauseEffectGraph,
        *,
        validate: bool = True,
        preemptive: bool = False,
        bounds_strategy=None,
        semantics: str = "implicit",
    ) -> "AnalysisSession":
        """Validate and analyze ``graph``, then open a session on it."""
        system = System.build(graph, validate=validate, preemptive=preemptive)
        return cls(system, bounds_strategy=bounds_strategy, semantics=semantics)

    # ------------------------------------------------------------------
    # shared state
    # ------------------------------------------------------------------

    @property
    def system(self) -> System:
        """The analyzed system."""
        return self._system

    @property
    def graph(self) -> CauseEffectGraph:
        """The underlying cause-effect graph."""
        return self._system.graph

    @property
    def semantics(self) -> str:
        """The communication semantics this session simulates by default."""
        return self._semantics

    @property
    def regime(self) -> AnalysisRegime:
        """Release-model classification of this session's system.

        ``regime.analytical`` is ``True`` for strictly periodic
        workloads — the only regime in which :meth:`worst_case`,
        :meth:`backward` (under the default implicit-communication
        bounds) and :meth:`design_buffers` apply.  Jittered or sporadic
        workloads are simulation-only for those queries: they raise a
        structured :class:`~repro.analysis_regime.RegimeError`, while
        :meth:`simulate`, :meth:`observed_disparity` and
        :meth:`observed_batch` support every release model
        byte-identically across engine tiers.  LET backward bounds
        (``bounds_strategy=backward_bounds_let``) survive non-periodic
        releases with widened upper bounds (see
        :mod:`repro.let.analysis`).
        """
        return self._regime

    @property
    def cache(self) -> BackwardBoundsCache:
        """The shared backward-bounds cache (pass to legacy APIs)."""
        return self._cache

    def response_times(self) -> ResponseTimeTable:
        """The WCRT table computed when the system was built."""
        return self._system.response_times

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def chains(self, task: str) -> Tuple[Chain, ...]:
        """All source-to-``task`` chains (memoized enumeration)."""
        found = self._chains.get(task)
        if found is None:
            found = enumerate_source_chains(self._system.graph, task)
            self._chains[task] = found
        return found

    def backward(self, chain: Chain) -> BackwardBounds:
        """Backward bounds ``[B(chain), W(chain)]`` (Lemmas 4 & 5)."""
        return self._cache.bounds(chain)

    def worst_case(
        self,
        task: str,
        *,
        method: str = "forkjoin",
        truncate_suffix: bool = True,
    ) -> TaskDisparityResult:
        """Full disparity result of ``task`` with per-pair evidence.

        Results are memoized per ``(task, method, truncate_suffix)``;
        the memo key uses the canonical method name, so
        ``method="s-diff"`` and ``method="forkjoin"`` share one entry.
        """
        canonical = normalize_method(method)
        key = (task, canonical, truncate_suffix)
        found = self._results.get(key)
        if found is None:
            found = worst_case_disparity(
                self._system,
                task,
                method=canonical,
                truncate_suffix=truncate_suffix,
                cache=self._cache,
                chains=self.chains(task),
            )
            self._results[key] = found
        return found

    def disparity(
        self,
        task: str,
        *,
        method: str = "forkjoin",
        truncate_suffix: bool = True,
    ) -> Time:
        """Worst-case time disparity bound of ``task`` (memoized)."""
        return self.worst_case(
            task, method=method, truncate_suffix=truncate_suffix
        ).bound

    def all_sinks(
        self, *, method: str = "forkjoin", truncate_suffix: bool = True
    ) -> Dict[str, TaskDisparityResult]:
        """Disparity results of every sink task of the graph."""
        return {
            sink: self.worst_case(
                sink, method=method, truncate_suffix=truncate_suffix
            )
            for sink in self._system.graph.sinks()
        }

    def check_requirement(
        self, task: str, threshold: Time, *, method: str = "forkjoin"
    ) -> bool:
        """True when the disparity bound of ``task`` is within ``threshold``."""
        return self.disparity(task, method=method) <= threshold

    def design_buffers(self, task: str, *, method: str = "forkjoin"):
        """Multi-chain buffer design (Algorithm 1 generalization)."""
        from repro.buffers.sizing import design_buffers_multi

        return design_buffers_multi(
            self._system, task, method=normalize_method(method)
        )

    def with_buffer_plan(
        self, plan: Dict[Tuple[str, str], int]
    ) -> "AnalysisSession":
        """A new session over the system with ``plan`` applied.

        Buffer capacities do not change scheduling, so the response-time
        table carries over; backward bounds do change (Lemma 6), so the
        new session starts a fresh bounds cache.
        """
        return AnalysisSession(self._system.with_buffer_plan(plan))

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def simulate(
        self,
        duration: Time,
        *,
        seed: int = 0,
        policy: PolicyLike = "uniform",
        observers: Sequence[Observer] = (),
        semantics: Optional[str] = None,
        faults=None,
        offsets_rng: Optional[random.Random] = None,
    ) -> SimulationResult:
        """Simulate this session's system (optionally with fresh offsets).

        Args:
            duration: Simulated horizon.
            seed: Per-run RNG seed (execution-time draws).
            policy: Execution-time policy — a CLI name (``"uniform"``,
                ``"wcet"``, ``"bcet"``, ``"extremes"``) or a callable.
            observers: Metric collectors (see :mod:`repro.sim.metrics`).
            semantics: ``"implicit"`` or ``"let"``; defaults to the
                semantics the session was constructed with.
            faults: Optional release-dropout plan.
            offsets_rng: When given, every task first receives a random
                offset in ``[1, T]`` drawn from this generator (the
                paper's evaluation setup); response times are reused
                since offsets do not affect schedulability.
        """
        resolved = named_policy(policy) if isinstance(policy, str) else policy
        system = self._system
        if offsets_rng is not None:
            system = System(
                graph=randomize_offsets(system.graph, offsets_rng),
                response_times=system.response_times,
            )
        return simulate(
            system,
            duration,
            seed=seed,
            policy=resolved,
            observers=observers,
            semantics=self._semantics if semantics is None else semantics,
            faults=faults,
        )

    def observed_disparity(
        self,
        task: str,
        *,
        sims: int,
        duration: Time,
        warmup: Time = 0,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        policy: PolicyLike = "uniform",
        semantics: Optional[str] = None,
        engine: str = "auto",
    ) -> Time:
        """Max observed disparity of ``task`` over randomized runs.

        Runs ``sims`` simulations, each with fresh random offsets and a
        fresh execution-time seed drawn from ``rng`` (or from a local
        generator seeded with ``seed``), and returns the largest
        disparity any run observed — the ``Sim`` estimator of Fig. 6,
        a *lower* bound on the true worst case.

        Replications run through the batched engine
        (:mod:`repro.sim.batch`): the scenario is compiled once per
        session and reused, with results byte-identical to ``sims``
        sequential :meth:`simulate` calls under the same generator.
        ``engine`` pins a tier (``"auto"``/``"columnar"``/
        ``"compiled"``/``"simulator"``) exactly as in
        :func:`~repro.sim.batch.run_batch`.
        """
        return self.observed_batch(
            task,
            sims=sims,
            duration=duration,
            warmup=warmup,
            rng=rng,
            seed=seed,
            policy=policy,
            semantics=semantics,
            engine=engine,
        ).max_disparity

    def compiled_scenario(
        self, task: str, *, semantics: Optional[str] = None
    ) -> CompiledScenario:
        """The offset-independent compiled core of ``task`` (memoized).

        A :class:`~repro.sim.batch.CompiledScenario` carries only
        offset-independent state (task/unit tables, priority ranks,
        provenance domain, backward closure, cached release-stream
        tables), so one core per ``(task, semantics)`` serves every
        replication and every offset candidate of this session:
        :meth:`observed_batch` replays it per replication and callers
        evaluate candidates directly via
        ``compiled_scenario(task).disparity(offsets, ...)`` or derive
        edited siblings with ``compiled_scenario(task).edit(...)``.
        Least-recently-used cores are evicted past
        :data:`COMPILED_CACHE_SIZE`, so a long-lived session sweeping
        many monitored tasks holds a bounded number of them.
        """
        sem = self._semantics if semantics is None else semantics
        key = (task, sem)
        compiled = self._compiled.get(key)
        if compiled is None:
            self._compiled_misses += 1
            compiled = CompiledScenario(self._system, task, semantics=sem)
            self._compiled[key] = compiled
            if len(self._compiled) > COMPILED_CACHE_SIZE:
                self._compiled.popitem(last=False)
                self._compiled_evictions += 1
        else:
            self._compiled_hits += 1
            self._compiled.move_to_end(key)
        return compiled

    def compiled_cache_stats(self) -> Dict[str, int]:
        """Counters of the bounded compiled-scenario memo.

        ``size``/``maxsize`` describe the LRU occupancy, ``hits`` /
        ``misses`` the :meth:`compiled_scenario` traffic, and
        ``evictions`` how many compiled cores a long-lived session has
        already dropped — the number the future service layer alarms
        on when a sweep thrashes the bound.
        """
        return {
            "size": len(self._compiled),
            "maxsize": COMPILED_CACHE_SIZE,
            "hits": self._compiled_hits,
            "misses": self._compiled_misses,
            "evictions": self._compiled_evictions,
        }

    def observed_batch(
        self,
        task: str,
        *,
        sims: int,
        duration: Time,
        warmup: Time = 0,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        policy: PolicyLike = "uniform",
        semantics: Optional[str] = None,
        engine: str = "auto",
    ) -> BatchResult:
        """Batched replications of ``task`` with per-run disparities.

        Like :meth:`observed_disparity` but returns the full
        :class:`~repro.sim.batch.BatchResult` (per-replication
        disparities, percentiles, engine label and phase timing).  The
        semantics default to the session's (a LET session replays LET
        data flow here, never implicit), and the offset-independent
        compiled core is cached per ``(task, semantics)`` on this
        session (see :meth:`compiled_scenario`) — each replication is
        an offset-delta replay of that shared core.  ``engine`` selects
        the replay tier (``"auto"`` picks the fastest eligible one; see
        :func:`~repro.sim.batch.run_batch`).
        """
        sem = self._semantics if semantics is None else semantics
        compiled = self.compiled_scenario(task, semantics=sem)
        return run_batch(
            self._system,
            task,
            sims=sims,
            duration=duration,
            warmup=warmup,
            rng=rng,
            seed=seed,
            policy=policy,
            compiled=compiled,
            semantics=sem,
            engine=engine,
        )

    def observed_stats(
        self,
        task: str,
        *,
        sims: int,
        duration: Time,
        warmup: Time = 0,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        policy: PolicyLike = "uniform",
        semantics: Optional[str] = None,
        engine: str = "auto",
        chunk: int = 256,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99),
    ) -> Dict[str, object]:
        """Streaming summary of ``sims`` replications, memory O(chunk).

        Like :meth:`observed_batch` but never materializes the full
        per-replication disparity list: replications run in chunks of
        ``chunk`` through the batched engine and each chunk is folded
        into O(1) streaming accumulators
        (:class:`~repro.parallel.aggregate.StreamingStats` +
        :class:`~repro.parallel.aggregate.P2Quantile` sketches).  The
        chunks consume the **same** generator stream one big batch
        would, so ``count``/``max``/``min`` are exactly the values
        :meth:`observed_batch` reports for the same arguments; ``mean``
        / ``std`` are Welford-updated and ``quantiles`` are P²
        estimates (a few percent on unimodal data).  This is the
        session-level entry for million-replication studies that only
        need the summary.
        """
        from repro.parallel.aggregate import P2Quantile, StreamingStats

        if sims < 0:
            raise ValueError(f"sims must be >= 0, got {sims}")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        generator = rng if rng is not None else random.Random(seed)
        stats = StreamingStats()
        sketches = {q: P2Quantile(q) for q in quantiles}
        engines = []
        remaining = sims
        while remaining > 0:
            batch = self.observed_batch(
                task,
                sims=min(chunk, remaining),
                duration=duration,
                warmup=warmup,
                rng=generator,
                policy=policy,
                semantics=semantics,
                engine=engine,
            )
            remaining -= batch.sims
            if not engines or engines[-1] != batch.engine:
                engines.append(batch.engine)
            for value in batch.disparities:
                stats.add(value)
                for sketch in sketches.values():
                    sketch.add(value)
        summary: Dict[str, object] = {
            "task": task,
            "count": stats.count,
            "engine": "+".join(engines) if engines else None,
        }
        if stats.count:
            summary.update(
                max=int(stats.max),
                min=int(stats.min),
                mean=stats.mean,
                std=stats.std,
                quantiles={
                    f"p{int(q * 100)}": sketch.value
                    for q, sketch in sketches.items()
                },
            )
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnalysisSession({len(self._system.graph)} tasks, "
            f"{len(self._cache)} cached chains, "
            f"{len(self._results)} cached results)"
        )


__all__ = ["AnalysisSession", "PolicyLike"]
