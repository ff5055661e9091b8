"""Batched replications: compile a scenario once, simulate it many times.

Every replication of one scenario re-derives the same static facts
before its event loop even starts — task/unit tables, the priority
order on every compute unit, the channel tables and the backward
closure of the monitored task.  For an N-replication estimate (the
``Sim`` series of Fig. 6 draws fresh offsets and execution times per
run but never changes the scenario), all of that is loop-invariant.

:class:`CompiledScenario` hoists it: the scenario is compiled once
into immutable tables, and each replication varies only the RNG-drawn
inputs (offsets and execution-time seeds).

:meth:`CompiledScenario.replay` (and :func:`run_batch`, which
compiles and then replays) runs through one of two tiers, both
**byte-identical** to N independent :func:`simulate` calls under the
same derived seeds (pinned by ``tests/test_sim_batch.py``,
``tests/test_engine_fastpath.py`` and ``tests/test_let_fastpath.py``).
The input alone picks the tier — there is no caller option — and
:attr:`BatchResult.engine` and :attr:`BatchResult.reason` record which
one ran and why:

* the **columnar** tier (:mod:`repro.sim.columnar`) draws, advances
  and derives every replication in one C-kernel call, under implicit
  and LET semantics, periodic or table-drawn releases and fault plans
  alike;
* the per-replication reference :class:`~repro.sim.engine.Simulator`
  runs everything else — duplicate priorities on one unit, offsets
  outside ``[0, T]``, policies the kernel cannot draw, a kernel that
  does not load — at the cost of the speedup.  An unmapped compute
  task reaches it too, and its constructor rejects the task with a
  :class:`~repro.model.task.ModelError` naming it.

:meth:`CompiledScenario.disparity` is the one-replication case of the
same tier choice.  The only event loops are the simulator's and the C
kernel's.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.engine import check_semantics, simulate
from repro.sim.exec_time import (
    ExecTimePolicy,
    named_policy,
    uniform_policy,
)
from repro.sim.metrics import DisparityMonitor
from repro.sim.release import needs_tables
from repro.units import Time

#: A policy given either by CLI name or as a callable.
PolicyLike = Union[str, ExecTimePolicy]

#: Wall-clock accumulators for ``--profile`` reporting: scenario
#: compilation (batch phase), the per-replication simulator fallback,
#: and the columnar tier's phases: ``draw_s`` the sims' MT19937 keys,
#: ``advance_s`` the release tables plus the one kernel call that
#: draws, advances and derives every sim, ``derive_s`` the numpy fold
#: of its output columns.
PHASE_TIMES = {
    "compile_s": 0.0,
    "replicate_s": 0.0,
    "draw_s": 0.0,
    "advance_s": 0.0,
    "derive_s": 0.0,
}


def reset_phase_times() -> None:
    """Zero the module-level phase accumulators."""
    for key in PHASE_TIMES:
        PHASE_TIMES[key] = 0.0


def _resolve_policy(policy: PolicyLike) -> ExecTimePolicy:
    return named_policy(policy) if isinstance(policy, str) else policy


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batched replication run.

    Attributes:
        task: The monitored task.
        disparities: Per-replication observed disparity, in replication
            order (replication ``i`` used the ``i``-th derived seed).
        engine: ``"columnar"`` when the batched columnar tier ran,
            otherwise ``"simulator"`` (per-replication fallback).
        compile_s: Wall seconds spent compiling the scenario (0 when
            :meth:`CompiledScenario.replay` ran an already compiled
            one).
        run_s: Wall seconds spent replaying the replications.
        semantics: The communication semantics the replications ran
            under (``"implicit"`` or ``"let"``).
        reason: Why the run fell back to the simulator (every failed
            columnar rule, ``"; "``-joined), ``None`` when the columnar
            tier ran.
    """

    task: str
    disparities: Tuple[Time, ...]
    engine: str
    compile_s: float
    run_s: float
    semantics: str = "implicit"
    reason: Optional[str] = None

    @property
    def sims(self) -> int:
        """Number of replications."""
        return len(self.disparities)

    @property
    def max_disparity(self) -> Time:
        """Largest observed disparity (0 when no replication ran)."""
        return max(self.disparities, default=0)

    def percentile(self, q: float) -> Time:
        """Nearest-rank percentile of the per-replication disparities.

        Returns the element at rank ``max(1, ceil(q * n / 100))`` (1-based)
        of the sorted disparities, computed in exact arithmetic so float
        ``q`` values never round across a rank boundary.  ``q = 0``
        therefore yields the minimum, ``q = 100`` the maximum, and an
        empty result reads 0.  Ties are resolved by multiplicity:
        duplicated values occupy one rank each, so a value repeated
        ``k`` times covers ``k`` consecutive ranks (the nearest-rank
        method never interpolates between distinct values).
        """
        if not 0 <= q <= 100:
            raise ModelError(f"percentile must be in [0, 100], got {q}")
        if not self.disparities:
            return 0
        ordered = sorted(self.disparities)
        rank = max(1, ceil(Fraction(q) * len(ordered) / 100))
        return ordered[rank - 1]

    def percentiles(self) -> Dict[str, Time]:
        """The common summary: p50/p90/p99 and the maximum."""
        return {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max_disparity,
        }


class CompiledScenario:
    """One scenario frozen into tables that N replications share.

    Compilation derives, once: the task and unit tables, per-unit
    priority ranks (as bitmask bit positions), the per-task input
    edges, the source flags, and the backward closure of the monitored
    task (only those tasks are recorded during a replication).  The
    columnar tier adds its batch-invariant kernel inputs per horizon
    (``_plans``) on first replay.

    The columnar tier requires every compute task to be mapped to a
    unit and priorities to be unique per unit; ``ineligible_reasons``
    lists *every* rule that failed (and ``ineligible_reason`` joins
    them), so one compile diagnoses every fallback cause at once.
    Ineligible scenarios (and replications whose offsets leave
    ``[0, T]``) run through the plain simulator instead — same
    results, no speedup.  Zero-BCET compute tasks are eligible: the
    replay records a cascade-depth side table, so the simulator's
    same-instant sub-batch visibility replays exactly.

    ``semantics`` selects the communication model the replications
    reproduce: ``"implicit"`` (read at start / write at finish) or
    ``"let"`` (read at release, publish at deadline, deadline checked
    per finish).  Both replay on the columnar tier; the offset
    search's windowed probe (:func:`repro.sim.columnar.run_windowed`)
    is implicit-only.
    """

    def __init__(
        self,
        system: System,
        task: str,
        *,
        semantics: str = "implicit",
        faults=None,
    ) -> None:
        t0 = _time.perf_counter()
        check_semantics(semantics)
        self.semantics = semantics
        self._let = semantics == "let"
        graph = system.graph
        self.system = system
        self.graph = graph
        self.task = task
        tasks = tuple(graph.tasks)
        self.tasks = tasks
        n = len(tasks)
        self.n = n
        self.names = [t.name for t in tasks]
        # Release tables (jitter/sporadic models, fault plans): a
        # non-empty fault plan or any non-periodic release model makes
        # the columnar tier replay pre-drawn per-replication tables
        # instead of the arithmetic release stream; strictly periodic
        # fault-free scenarios keep the arithmetic path.
        if faults is not None:
            faults.validate(self.names)
        self.faults = faults if faults else None
        self._needs_tables = needs_tables(tasks, self.faults)
        gid = {t.name: i for i, t in enumerate(tasks)}
        if task not in gid:
            raise ModelError(f"unknown task {task!r}")
        self.inst = [t.is_instantaneous for t in tasks]
        self.periods = [t.period for t in tasks]
        self.bcets = [t.bcet for t in tasks]
        self.wcets = [t.wcet for t in tasks]
        self.spans = [t.wcet - t.bcet + 1 for t in tasks]

        unit_names = sorted({t.ecu for t in tasks if t.ecu is not None})
        unit_index = {name: i for i, name in enumerate(unit_names)}
        self.unit_names = unit_names
        self.unit_of = [
            unit_index[t.ecu] if t.ecu is not None else -1 for t in tasks
        ]
        self.n_units = len(unit_names)
        self._gid = gid

        # Zero-BCET compute tasks stay eligible: the replay records
        # cascade depths (implicit) and LET visibility never depends
        # on same-instant finish ordering.
        self._track = not self._let and any(
            t.bcet == 0 for t in tasks if not t.is_instantaneous
        )

        self.rank_tid, self.bit_of, reasons = self._rank_tables(tasks)
        self.ineligible_reasons: Tuple[str, ...] = tuple(reasons)

        # Backward closure of the monitored task: the only tasks whose
        # schedule a replication must record.
        closure = set()
        stack = [task]
        while stack:
            name = stack.pop()
            if name in closure:
                continue
            closure.add(name)
            stack.extend(graph.predecessors(name))
        self.keep = [t.name in closure for t in tasks]
        self.m_gid = gid[task]

        src_set = set(graph.sources())
        self.is_source = [t.name in src_set for t in tasks]
        self.in_edges = self._channel_tables(graph)
        # Batch-invariant columnar kernel inputs per horizon, built by
        # repro.sim.columnar on first replay.
        self._plans: Dict[Time, object] = {}
        elapsed = _time.perf_counter() - t0
        self.compile_s = elapsed
        PHASE_TIMES["compile_s"] += elapsed

    # ------------------------------------------------------------------
    # table builders
    # ------------------------------------------------------------------

    def _rank_tables(
        self, tasks: Tuple
    ) -> Tuple[List[List[int]], List[int], List[str]]:
        """Per-unit priority-rank tables plus every eligibility reason.

        Per unit: member tasks by ascending priority value; bit i of
        the unit's ready mask stands for the rank-i member, so the
        lowest set bit is always the next task to dispatch.  Every
        failed eligibility rule is collected (not just the first), so
        one compile reports all fallback causes.
        """
        n = self.n
        unit_of = self.unit_of
        inst = self.inst
        reasons: List[str] = []
        for t in tasks:
            if t.is_instantaneous:
                continue
            if t.ecu is None:
                reasons.append(
                    f"compute task {t.name!r} has no unit assignment"
                )
        rank_tid: List[List[int]] = []
        bit_of = [0] * n
        for u in range(self.n_units):
            members = sorted(
                (
                    tid
                    for tid in range(n)
                    if unit_of[tid] == u and not inst[tid]
                ),
                key=lambda tid: (tasks[tid].priority or 0, tid),
            )
            rank_tid.append(members)
            prios = [tasks[tid].priority for tid in members]
            if len(set(prios)) != len(prios):
                reasons.append(
                    f"unit {self.unit_names[u]!r} has duplicate priorities "
                    f"(ready order would depend on arrival, not rank)"
                )
            for rank, tid in enumerate(members):
                bit_of[tid] = 1 << rank
        return rank_tid, bit_of, reasons

    def _channel_tables(self, graph) -> List[List[Tuple[int, int]]]:
        """Per-task input edges as ``(producer gid, capacity)`` pairs."""
        gid = self._gid
        return [
            [
                (gid[p], graph.channel(p, t.name).capacity)
                for p in graph.predecessors(t.name)
            ]
            for t in self.tasks
        ]

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------

    @property
    def eligible(self) -> bool:
        """True when the scenario's table rules hold."""
        return not self.ineligible_reasons

    @property
    def ineligible_reason(self) -> Optional[str]:
        """All failed eligibility rules joined, ``None`` when eligible."""
        if not self.ineligible_reasons:
            return None
        return "; ".join(self.ineligible_reasons)

    def in_domain(self, offsets: Sequence[Time]) -> bool:
        """True when every offset lies in ``[0, T]`` of its task.

        The delta-replay rule: out-of-domain offsets still evaluate
        correctly, through the per-replication simulator fallback.
        """
        periods = self.periods
        for tid, off in enumerate(offsets):
            if not 0 <= off <= periods[tid]:
                return False
        return True

    def columnar_reasons(
        self,
        policy: ExecTimePolicy,
        vectors: Sequence[Sequence[Time]] = (),
    ) -> List[str]:
        """Every unmet columnar rule for replaying ``vectors`` (empty = none).

        The scenario's table rules, the columnar ones (batchable
        policy, kernel loaded, ranks fit the ready masks) and offsets
        in ``[0, T]`` for every vector.
        """
        # Imported here: repro.sim.columnar imports this module.
        from repro.sim import columnar as _columnar

        reasons = list(self.ineligible_reasons)
        reasons.extend(_columnar.ineligibility_reasons(self, policy))
        if not all(self.in_domain(offsets) for offsets in vectors):
            reasons.append("offsets outside [0, T]")
        return reasons

    def disparity(
        self,
        offsets: Sequence[Time],
        seed: int,
        duration: Time,
        warmup: Time = 0,
        policy: PolicyLike = uniform_policy,
    ) -> Time:
        """Observed disparity of one replication.

        Equals ``simulate()`` + :class:`DisparityMonitor` on the system
        with these ``offsets`` (listed in graph-task order) under the
        same ``seed`` and ``policy``.  The one-replication case of
        :meth:`replay`'s tier choice: the columnar tier when the
        scenario, policy and offsets are eligible, else exactly that
        simulator run.  A vector of the wrong length or a horizon of 0
        or less raises :class:`~repro.model.task.ModelError`.
        """
        if len(offsets) != self.n:
            raise ModelError(
                f"expected {self.n} offsets, got {len(offsets)}"
            )
        values, _engine, _reason = self._disparities(
            [(seed, tuple(offsets))],
            duration,
            warmup,
            _resolve_policy(policy),
        )
        return values[0]

    def replay(
        self,
        *,
        sims: int,
        duration: Time,
        warmup: Time = 0,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        policy: PolicyLike = uniform_policy,
    ) -> BatchResult:
        """Run ``sims`` randomized replications of this scenario.

        Seeds and offsets are drawn exactly like
        ``AnalysisSession.observed_disparity``: per replication, first
        an execution-time seed from ``rng`` (or a local generator seeded
        with ``seed``), then one offset in ``[1, T]`` per task in graph
        order — so the per-replication disparities are byte-identical
        to the sequential ``simulate()`` loop under the same generator
        state, semantics and fault plan.

        The replications run on the **columnar** batch engine (all
        replications drawn, advanced and derived in one C-kernel call
        — requires a batchable named policy and the runtime C kernel)
        when the scenario is eligible, else on the
        per-replication **simulator**; both tiers return identical
        disparities, and the result's ``engine`` and ``reason`` say
        which ran and why.  Every replication's seed/offsets are drawn
        up front, so after a mid-batch LET-violation error ``rng`` has
        advanced past all ``sims`` draws (the sequential loop stops at
        the violating replication).  A negative ``sims`` or a horizon
        of 0 or less raises :class:`~repro.model.task.ModelError`.
        """
        if sims < 0:
            raise ModelError(f"sims must be >= 0, got {sims}")
        resolved = _resolve_policy(policy)
        if rng is None:
            rng = random.Random(seed)
        t0 = _time.perf_counter()
        draws = [
            (
                rng.randrange(2**31),
                tuple(rng.randint(1, period) for period in self.periods),
            )
            for _ in range(sims)
        ]
        disparities, ran, reason = self._disparities(
            draws, duration, warmup, resolved
        )
        return BatchResult(
            task=self.task,
            disparities=tuple(disparities),
            engine=ran,
            compile_s=0.0,
            run_s=_time.perf_counter() - t0,
            semantics=self.semantics,
            reason=reason,
        )

    def _disparities(
        self,
        draws: Sequence[Tuple[int, Tuple[Time, ...]]],
        duration: Time,
        warmup: Time,
        policy: ExecTimePolicy,
    ) -> Tuple[List[Time], str, Optional[str]]:
        """Disparities of ``(seed, offsets)`` draws through one replay tier.

        The tier choice :meth:`replay` and :meth:`disparity` share: the
        columnar tier when every rule holds — the scenario's table
        rules, the columnar ones (batchable policy, kernel loaded,
        ranks fit) and offsets in ``[0, T]`` — else the
        per-replication simulator.  Returns ``(disparities, engine
        that ran, reason)``.
        """
        # Imported here: repro.sim.columnar imports this module.
        from repro.sim import columnar as _columnar

        if duration <= 0:
            raise ModelError(f"duration must be positive, got {duration}")
        reasons = self.columnar_reasons(
            policy, [offsets for _seed, offsets in draws]
        )
        if not reasons:
            values = _columnar.run_columnar(
                self, draws, duration, warmup, policy
            )
            return values, "columnar", None
        t0 = _time.perf_counter()
        try:
            values = [
                self._fallback_disparity(offsets, seed, duration, warmup, policy)
                for seed, offsets in draws
            ]
        finally:
            PHASE_TIMES["replicate_s"] += _time.perf_counter() - t0
        return values, "simulator", "; ".join(reasons)

    # ------------------------------------------------------------------
    # fallback
    # ------------------------------------------------------------------

    def _fallback_disparity(
        self,
        offsets: Sequence[Time],
        seed: int,
        duration: Time,
        warmup: Time,
        policy: ExecTimePolicy,
    ) -> Time:
        monitor = DisparityMonitor([self.task], warmup=warmup)
        simulate(
            self.system.with_offsets(dict(zip(self.names, offsets))),
            duration,
            seed=seed,
            policy=policy,
            observers=[monitor],
            semantics=self.semantics,
            faults=self.faults,
        )
        return monitor.disparity(self.task)


def run_batch(
    system: System,
    task: str,
    *,
    sims: int,
    duration: Time,
    warmup: Time = 0,
    rng: Optional[random.Random] = None,
    seed: int = 0,
    policy: PolicyLike = uniform_policy,
    semantics: str = "implicit",
    faults=None,
) -> BatchResult:
    """Compile ``task``'s scenario, then run ``sims`` randomized replications.

    One :class:`CompiledScenario` under ``semantics`` (``"implicit"``
    or ``"let"``) and ``faults`` (a :class:`~repro.sim.faults.FaultPlan`,
    compiled into per-replication release masks so faulted runs stay
    eligible for the columnar tier), replayed by
    :meth:`CompiledScenario.replay`; the result's ``compile_s`` is the
    compile time.
    """
    compiled = CompiledScenario(system, task, semantics=semantics, faults=faults)
    result = compiled.replay(
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=rng,
        seed=seed,
        policy=policy,
    )
    return replace(result, compile_s=compiled.compile_s)


def check_observed_duration(duration: Optional[Time]) -> None:
    """Raise :class:`ModelError` unless an observed horizon is positive."""
    if duration is None or duration <= 0:
        raise ModelError(
            "observed_sims > 0 requires a positive observed_duration"
        )


def observed_pair(
    before: System,
    after: System,
    task: str,
    *,
    sims: int,
    duration: Optional[Time],
    warmup: Time,
    seed: int,
) -> Tuple[Time, Time]:
    """Paired max observed disparities of two variants of one system.

    Both sides replay ``sims`` replications drawn from
    ``random.Random(seed)`` — the same seeds and offsets — so the pair
    isolates the design change between ``before`` and ``after``.
    """
    check_observed_duration(duration)
    first, second = (
        run_batch(
            side,
            task,
            sims=sims,
            duration=duration,
            warmup=warmup,
            rng=random.Random(seed),
        ).max_disparity
        for side in (before, after)
    )
    return first, second


__all__ = [
    "BatchResult",
    "CompiledScenario",
    "PHASE_TIMES",
    "PolicyLike",
    "check_observed_duration",
    "observed_pair",
    "reset_phase_times",
    "run_batch",
]
