"""Batched replications: compile a scenario once, simulate it many times.

Every replication of one scenario re-derives the same static facts
before its event loop even starts — task/unit tables, the priority
order on every compute unit, release grids over the horizon, interned
source bitmasks for packed provenance, and the backward closure of the
monitored task.  For an N-replication estimate (the ``Sim`` series of
Fig. 6 draws fresh offsets and execution times per run but never
changes the scenario), all of that is loop-invariant.

:class:`CompiledScenario` hoists it: the scenario is compiled once
into immutable tables, and each replication varies only the RNG-drawn
inputs.  The per-replication schedule is then produced by a loop that
is strictly cheaper than the reference :class:`~repro.sim.engine.Simulator`:

* the whole release stream is *precomputed*.  Within one instant the
  simulator pops releases from its heap in the order of the static key
  ``(time, k > 0, -period, -offset, tid)`` (initial releases carry the
  heapify order, i.e. plain ``tid``), which holds whenever offsets lie
  in ``[0, T]`` — so one vectorized sort per replication replaces every
  release-heap operation;
* the release grids themselves are **delta-compiled**: per horizon the
  zero-offset grids of every task are concatenated once into flat
  offset-independent tables, and each candidate offset vector is
  applied as a vectorized shift of those tables (one ``take`` + one
  ``argsort``) instead of regenerating, slicing and re-concatenating
  per-task grids — the per-candidate cost of an offset-only sweep
  (``exact.search``, the Fig. 6 replications, the buffer/period
  sweeps' observed columns) is the shift and the replay, nothing else;
* per-unit ready queues become priority-rank bitmasks (eligibility
  requires unique priorities per unit), with per-task pending counters
  carrying FIFO multiplicity;
* only the backward closure of the monitored task records start and
  finish times, and provenance is resolved by a memoized DP over
  them that yields exactly the tokens the simulator's channels carry.

Both communication semantics compile: under ``semantics="implicit"``
data flow is resolved from recorded finish times (with a
cascade-depth side table that replays the simulator's same-instant
finish cascades of zero-BCET compute tasks), under
``semantics="let"`` from the time-deterministic LET publication/read
instants, with an inline deadline check per finish.  The result is
**byte-identical** to N independent :func:`simulate` calls under the
same derived seeds (pinned by ``tests/test_sim_batch.py``,
``tests/test_engine_fastpath.py`` and ``tests/test_let_fastpath.py``);
scenarios the compiled loop cannot handle — duplicate priorities on
one unit, offsets outside ``[0, T]`` — transparently fall back to the
plain :class:`~repro.sim.engine.Simulator` under the same semantics,
preserving identity at the cost of the speedup.  An unmapped compute
task reaches the same fallback, whose constructor rejects it with a
:class:`~repro.model.task.ModelError` naming the task.

Delta compilation generalizes beyond offsets to **structural edits**:
:meth:`CompiledScenario.edit` derives a sibling compiled scenario that
invalidates only the tables the edit actually touches — release-stream
tables on period edits, per-unit priority-rank tables on priority
edits, channel tables on capacity edits — while everything else
(zero-offset release grids keyed by ``(period, horizon)``, the
provenance domain, the backward closure, and for capacity-only edits
even the memoized *schedules*) stays shared with the parent.  A
derived scenario is evaluated like any other, at explicit offsets;
edits whose result the compiled loop cannot replay (duplicate
priorities, offsets pushed outside ``[0, T]`` by a period change) fall
back to the per-replication simulator with identical results.

:func:`run_batch` packages the common case: draw ``(seed, offsets)``
pairs exactly like ``AnalysisSession.observed_disparity`` and return a
:class:`BatchResult` with per-replication disparities plus aggregates.
"""

from __future__ import annotations

import heapq
import os
import random
import time as _time
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, replace as _replace
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

if os.environ.get("REPRO_NO_NUMPY"):  # pragma: no cover - CI leg
    _np = None
else:
    try:  # pragma: no cover - exercised via both branches in CI images
        import numpy as _np
    except ImportError:  # pragma: no cover
        _np = None

from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.engine import simulate
from repro.sim.exec_time import (
    ExecTimePolicy,
    bcet_policy,
    named_policy,
    uniform_policy,
    wcet_policy,
)
from repro.sim.metrics import DisparityMonitor
from repro.sim.provenance import ProvenancePacker
from repro.sim.release import kept_mask, release_table
from repro.units import Time

#: A policy given either by CLI name or as a callable.
PolicyLike = Union[str, ExecTimePolicy]

#: Wall-clock accumulators for ``--profile`` reporting: scenario
#: compilation (batch phase), the per-replication loops, and the
#: columnar tier's draw / advance / derive phases.
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


#: Default bound on the per-scenario schedule memo (see
#: :class:`_ScheduleCache`); small because one entry holds the full
#: recorded schedule of a replication.
SCHED_CACHE_SIZE = 32

#: The edit kinds :meth:`CompiledScenario.edit` accepts, in the order
#: they are applied (period before priority, so a task named in both
#: keeps both; capacities touch channels, not tasks).
_EDIT_KEYS = ("periods", "priorities", "capacities")


def _policy_token(policy: ExecTimePolicy) -> Optional[Tuple[str, bool]]:
    """``(name, consumes_rng)`` for schedule-memoizable policies.

    A schedule is a pure function of ``(offsets, seed, duration,
    policy)``, so replaying it from a memo is sound whenever the policy
    can be identified reliably — which is true for the named policy
    singletons and false for arbitrary callables (``None``: never
    cached).  ``consumes_rng=False`` marks the deterministic policies
    (WCET/BCET draw nothing from the generator), whose schedules are
    additionally *seed-independent*: the memo key normalizes their seed
    away, so candidates differing only in execution-time seeds share
    one computed schedule.
    """
    if policy is uniform_policy:
        return ("uniform", True)
    if policy is wcet_policy:
        return ("wcet", False)
    if policy is bcet_policy:
        return ("bcet", False)
    return None


class _ScheduleCache:
    """Bounded LRU over recorded schedules, shared across siblings.

    Keys are ``(offsets, seed, duration, policy-name)`` (seed
    normalized to 0 for deterministic policies, unless release tables
    are seed-drawn); values are the ``(starts, fins, completed, casc,
    rels)`` tuples of :meth:`CompiledScenario._schedule`, which
    consumers only read.
    Capacity-derived scenarios alias their parent's instance — buffer
    sizes never change scheduling, so one schedule serves every
    capacity candidate evaluated at the same draws.
    """

    __slots__ = ("maxsize", "entries", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.maxsize = SCHED_CACHE_SIZE
        self.entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Optional[tuple]:
        found = self.entries.get(key)
        if found is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return found

    def put(self, key: tuple, value: tuple) -> None:
        self.entries[key] = value
        if len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters for observability (tests, the future service layer)."""
        return {
            "size": len(self.entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batched replication run.

    Attributes:
        task: The monitored task.
        disparities: Per-replication observed disparity, in replication
            order (replication ``i`` used the ``i``-th derived seed).
        engine: ``"columnar"`` when the batched columnar tier ran,
            ``"compiled"`` for the per-replication compiled loop,
            otherwise ``"simulator"`` (per-replication fallback).
        compile_s: Wall seconds spent compiling the scenario (0 when a
            pre-compiled scenario was reused).
        run_s: Wall seconds spent in the replication loop.
        semantics: The communication semantics the replications ran
            under (``"implicit"`` or ``"let"``).
        reason: Why the run fell back from the fastest tier (every
            failed eligibility rule, ``"; "``-joined, or the engine
            the caller forced), ``None`` when the columnar tier ran.
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
    priority ranks (as bitmask bit positions), concatenated
    offset-independent release-stream tables per cached horizon (the
    delta-compilation tables applied per candidate as a vector shift —
    see :meth:`_stream_tables`), the interned source bitmasks of the
    packed provenance domain, and the backward closure of the
    monitored task (only those tasks are recorded during a
    replication).

    Eligibility for the compiled loop requires every compute task to
    be mapped to a unit and priorities to be unique per unit;
    ``ineligible_reasons`` lists *every* rule that failed (and
    ``ineligible_reason`` joins them), so one compile diagnoses every
    fallback cause at once.  Ineligible scenarios (and replications
    whose offsets leave ``[0, T]``) run through the plain simulator
    instead — same results, no speedup.  Zero-BCET compute tasks are
    eligible: the loop records a cascade-depth side table, so the
    simulator's same-instant sub-batch visibility replays exactly.

    ``semantics`` selects the communication model the replications
    reproduce: ``"implicit"`` (read at start / write at finish) or
    ``"let"`` (read at release, publish at deadline, deadline checked
    per finish).  The schedule loop is shared; only the data-flow
    resolver differs.
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
        if semantics not in ("implicit", "let"):
            raise ModelError(
                f"unknown semantics {semantics!r}; "
                f"choose from ('implicit', 'let')"
            )
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
        # the replication loop replay pre-drawn per-replication tables
        # instead of the arithmetic release stream; strictly periodic
        # fault-free scenarios keep the original paths untouched.
        if faults is not None:
            faults.validate(self.names)
        self.faults = faults if faults else None
        self._faults_sig = faults.signature() if self.faults else ()
        self.release_models = [t.release_model for t in tasks]
        self._nonperiodic = any(
            not m.is_periodic for m in self.release_models
        )
        self._needs_tables = self._nonperiodic or self.faults is not None
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

        # Zero-BCET compute tasks stay eligible: the schedule loop
        # records cascade depths (implicit) and LET visibility never
        # depends on same-instant finish ordering.
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

        sources = graph.sources()
        self.packer = ProvenancePacker(sources)
        src_set = set(sources)
        self.is_source = [t.name in src_set for t in tasks]
        self.in_edges = self._channel_tables(graph)
        self.per_rank, self._packable = self._period_ranks()
        # Offset-independent release-stream tables per horizon (the
        # delta-compilation core), built lazily by _stream_tables()
        # from zero-offset grids cached per (period, horizon) in
        # _grid_cache — the grid cache is shared (aliased) by every
        # structurally derived sibling, so a period edit regenerates
        # only the edited task's grid.
        self._stream_cache: Dict[Time, tuple] = {}
        self._grid_cache: Dict[Tuple[Time, Time], tuple] = {}
        # Memoized recorded schedules (shared by capacity-derived
        # siblings, where the schedule is edit-invariant).
        self._sched_cache = _ScheduleCache()
        elapsed = _time.perf_counter() - t0
        self.compile_s = elapsed
        PHASE_TIMES["compile_s"] += elapsed

    # ------------------------------------------------------------------
    # table builders (shared between compile and structural derivation)
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

    def _period_ranks(self) -> Tuple[List[int], bool]:
        """Rank of each distinct period, descending, plus packability.

        The static-order key sorts rescheduled releases by ``-period``;
        the rank is used to pack the whole sort key of a release into
        one int64 when it fits.
        """
        n = self.n
        distinct = sorted(
            {self.periods[tid] for tid in range(n) if not self.inst[tid]},
            reverse=True,
        )
        rank_of = {per: r for r, per in enumerate(distinct)}
        per_rank = [
            rank_of[self.periods[tid]] if not self.inst[tid] else 0
            for tid in range(n)
        ]
        return per_rank, n <= 64 and len(distinct) <= 64

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------

    @property
    def eligible(self) -> bool:
        """True when the compiled loop can replicate this scenario."""
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

    def _check_offsets(self, offsets: Sequence[Time]) -> None:
        if len(offsets) != self.n:
            raise ModelError(
                f"expected {self.n} offsets, got {len(offsets)}"
            )

    # ------------------------------------------------------------------
    # release stream
    # ------------------------------------------------------------------

    def _grid(self, period: Time, duration: Time) -> tuple:
        """Zero-offset release grid of one period over one horizon.

        Returns the immutable ``(t, flag, negper)`` int64 columns of a
        ``duration // period + 1``-entry grid: release instants at
        multiples of ``period``, the ``k > 0`` rescheduled flag, and
        the ``-period`` static-order key.  Cached per ``(period,
        horizon)`` — grids depend on nothing else, so the cache is
        aliased by every structurally derived sibling and a period
        edit regenerates only the edited task's grid.
        """
        key = (period, duration)
        found = self._grid_cache.get(key)
        if found is None:
            maxlen = duration // period + 1
            t = _np.arange(maxlen, dtype=_np.int64) * period
            flag = _np.ones(maxlen, dtype=_np.int64)
            flag[0] = 0
            negper = _np.full(maxlen, -period, dtype=_np.int64)
            found = (t, flag, negper)
            self._grid_cache[key] = found
        return found

    def _stream_tables(self, duration: Time) -> tuple:
        """Offset-independent release-stream tables for one horizon.

        The delta-compilation core: the zero-offset release grids of
        every compute task are concatenated **once** per horizon into
        flat arrays; a candidate offset vector is then applied as a
        vectorized shift of these tables (:meth:`_release_stream`), so
        replications and sweep candidates that differ only in offsets
        never regenerate, slice, or re-concatenate per-task grids.

        When the packed single-key encoding fits one int64 —
        ``t(rest) | k>0 (1 bit) | period rank (6) | low rank (6)``,
        where the low rank is ``tid`` for initial releases and the
        per-candidate (-offset, tid) rank for rescheduled ones — the
        cached tuple is ``("packed", base_key, tid_all, idx2)`` with
        ``idx2 = tid + n * (k > 0)`` indexing the per-candidate shift
        vector; otherwise it is the five-key lexsort material
        ``("lex", t_all, flag_all, negper_all, tid_all)``.  An empty
        stream (every task instantaneous) caches ``("empty",)``.

        Grids are sized for offset 0 (``duration // T + 1`` entries per
        task); a candidate offset in ``[0, T]`` shifts some tail
        entries past the horizon, which sort after every in-horizon
        release and are never consumed (the replication loop stops at
        the first instant beyond ``duration``), so no per-candidate
        re-slicing is needed either.
        """
        found = self._stream_cache.get(duration)
        if found is not None:
            return found
        packed = (
            self._packable
            and duration + max(self.periods, default=0) < 1 << 49
        )
        ts, flags, negpers, tids = [], [], [], []
        for tid in range(self.n):
            if self.inst[tid]:
                continue
            t, flag, negper = self._grid(self.periods[tid], duration)
            ts.append(t)
            flags.append(flag)
            negpers.append(negper)
            tids.append(_np.full(len(t), tid, dtype=_np.int64))
        if not ts:
            found = ("empty",)
        else:
            t_all = _np.concatenate(ts)
            flag_all = _np.concatenate(flags)
            tid_all = _np.concatenate(tids)
            if packed:
                per_rank = _np.asarray(self.per_rank, dtype=_np.int64)
                base_key = _np.where(
                    flag_all == 0,
                    tid_all,
                    (t_all << 13) | (1 << 12) | (per_rank[tid_all] << 6),
                )
                idx2 = tid_all + flag_all * self.n
                found = ("packed", base_key, tid_all, idx2)
            else:
                negper_all = _np.concatenate(negpers)
                found = ("lex", t_all, flag_all, negper_all, tid_all)
        self._stream_cache[duration] = found
        return found

    def _release_stream(
        self, offsets: Sequence[Time], duration: Time
    ) -> Tuple[List[Time], List[int]]:
        """All releases in exactly the simulator's pop order.

        Initial releases (``k = 0``) enter the release heap in task
        order at heapify time, so they tie-break by ``tid`` alone;
        rescheduled ones tie-break by ``(-period, -offset, tid)`` —
        valid for offsets in ``[0, T]`` (checked by the caller).  The
        offset vector is applied as a delta on the cached
        :meth:`_stream_tables`: one shift-vector ``take`` plus one
        sort, no per-task python loop.
        """
        if _np is None:
            entries = []
            for tid in range(self.n):
                if self.inst[tid]:
                    continue
                off = offsets[tid]
                if off > duration:
                    continue
                per = self.periods[tid]
                entries.append((off, 0, 0, 0, tid))
                entries.extend(
                    (t, 1, -per, -off, tid)
                    for t in range(off + per, duration + 1, per)
                )
            entries.sort()
            return [e[0] for e in entries], [e[4] for e in entries]
        tables = self._stream_tables(duration)
        if tables[0] == "empty":
            return [], []
        off = _np.fromiter(offsets, dtype=_np.int64, count=self.n)
        if tables[0] == "packed":
            # Packed single-key path: the (-offset, tid) tie-break of
            # rescheduled releases becomes a rank added into the low
            # bits (rank order restricted to any subset preserves it).
            _, base_key, tid_all, idx2 = tables
            by_off = sorted(
                (tid for tid in range(self.n) if not self.inst[tid]),
                key=lambda tid: (-offsets[tid], tid),
            )
            low = _np.zeros(self.n, dtype=_np.int64)
            for rank, tid in enumerate(by_off):
                low[tid] = rank
            shifted = off << 13
            vec2 = _np.concatenate((shifted, shifted + low))
            key_all = base_key + vec2[idx2]
            order = _np.argsort(key_all)
            return (
                (key_all[order] >> 13).tolist(),
                tid_all[order].tolist(),
            )
        _, t0_all, flag_all, negper_all, tid_all = tables
        t_all = t0_all + off[tid_all]
        order = _np.lexsort(
            (tid_all, (-off)[tid_all], negper_all, flag_all, t_all)
        )
        return t_all[order].tolist(), tid_all[order].tolist()

    def _release_tables(
        self, offsets: Sequence[Time], seed: int, duration: Time
    ) -> Tuple[List[Time], List[int], List[List[Time]]]:
        """Table-mode release stream plus per-task kept-release tables.

        Returns ``(rel_times, rel_tids, rels)``: the CPU release stream
        in exactly the simulator's heap pop order, restricted to
        releases the fault plan keeps, and per task (instantaneous ones
        included) the sorted kept-release instants — the job-``k`` ->
        release mapping the provenance resolver and LET deadlines read.

        The static ``(time, k > 0, -period, -offset, tid)`` sort key of
        :meth:`_release_stream` does not extend to drawn tables, so the
        pop order is reproduced directly: a k-way merge with the same
        seq discipline the simulator's event heap uses (initial
        entries in task order, a successor entered at its predecessor's
        pop).  Suppressed releases ride through the merge and are
        filtered at pop — the simulator advances its heap on them too,
        so the faulted pop order is the fault-free order filtered.
        """
        tables: List[List[Time]] = []
        masks: List[List[bool]] = []
        rels: List[List[Time]] = []
        plan = self.faults
        for tid, task in enumerate(self.tasks):
            table = release_table(task, seed, duration, offset=offsets[tid])
            mask = kept_mask(plan, task.name, table)
            tables.append(table)
            masks.append(mask)
            rels.append(
                table
                if all(mask)
                else [at for at, ok in zip(table, mask) if ok]
            )
        rel_times: List[Time] = []
        rel_tids: List[int] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        heap: List[Tuple[Time, int, int]] = []
        seq = 0
        ptr = [1] * self.n
        inst = self.inst
        for tid in range(self.n):
            if not inst[tid] and tables[tid]:
                seq += 1
                heap.append((tables[tid][0], seq, tid))
        heapq.heapify(heap)
        while heap:
            at, _, tid = heappop(heap)
            nxt = ptr[tid]
            ptr[tid] = nxt + 1
            table = tables[tid]
            if nxt < len(table):
                seq += 1
                heappush(heap, (table[nxt], seq, tid))
            if masks[tid][nxt - 1]:
                rel_times.append(at)
                rel_tids.append(tid)
        return rel_times, rel_tids, rels

    # ------------------------------------------------------------------
    # the compiled replication loop
    # ------------------------------------------------------------------

    def _schedule(
        self,
        offsets: Sequence[Time],
        seed: int,
        duration: Time,
        policy: ExecTimePolicy,
    ) -> Tuple[
        List[List[Time]],
        List[List[Time]],
        List[int],
        Optional[Dict[Tuple[int, int], int]],
        Optional[List[List[Time]]],
    ]:
        """One replication's schedule of the monitored closure.

        Returns ``(starts, fins, completed, casc, rels)`` for the kept
        tasks; the RNG stream (and hence every execution-time draw) is
        identical to the simulator's under the same seed.  ``casc``
        is the cascade-depth side table for zero-BCET scenarios
        (implicit semantics only, ``None`` otherwise): per kept job
        dispatched by a zero-time finish at the same instant, the
        depth of the simulator's same-instant finish cascade that
        dispatches it.  Under
        LET the loop instead checks each finish against its job's
        deadline, raising the engine's ``LET violation`` error.
        ``rels`` is ``None`` on the arithmetic (periodic fault-free)
        path; in table mode it holds each task's kept-release instants
        (the job ``k`` -> release mapping downstream resolvers need).
        """
        rng = random.Random(seed)
        rng_random = rng.random
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        n = self.n
        periods = self.periods
        bcets = self.bcets
        wcets = self.wcets
        spans = self.spans
        tasks = self.tasks
        unit_of = self.unit_of
        bit_of = self.bit_of
        rank_tid = self.rank_tid
        keep = self.keep
        n_units = self.n_units
        fast_uniform = policy is uniform_policy
        fast_wcet = policy is wcet_policy

        if self._needs_tables:
            rel_times, rel_tids, rels = self._release_tables(
                offsets, seed, duration
            )
        else:
            rel_times, rel_tids = self._release_stream(offsets, duration)
            rels = None
        sentinel = duration + 1
        rel_times.append(sentinel)
        rel_tids.append(-1)

        # Zero-BCET cascade tracking (implicit semantics): ``zrun[u]``
        # flags whether unit ``u``'s running job executes in zero time,
        # ``cur_batch[u]`` its dispatch's sub-batch depth; ``casc``
        # collects depths for kept jobs exactly as the engine's fast
        # path does.  LET replications instead count dispatches per
        # task (``ndisp``) to check each finish against its deadline.
        track = self._track
        let_mode = self._let
        zrun = [False] * n_units
        cur_batch = [0] * n_units
        casc: Optional[Dict[Tuple[int, int], int]] = {} if track else None
        ndisp = [0] * n
        names = self.names

        def check_deadline(tid: int, at: Time) -> None:
            if rels is None:
                deadline = offsets[tid] + ndisp[tid] * periods[tid]
            else:
                deadline = rels[tid][ndisp[tid] - 1] + periods[tid]
            if at > deadline:
                raise ModelError(
                    f"LET violation: job {names[tid]}#{ndisp[tid] - 1} "
                    f"finished at {at} past its deadline {deadline}"
                )

        ready_mask = [0] * n_units
        pend = [0] * n
        running = [-1] * n_units
        counts = [0] * n
        starts: List[List[Time]] = [[] for _ in range(n)]
        fins: List[List[Time]] = [[] for _ in range(n)]
        sa = [s.append for s in starts]
        fa = [f.append for f in fins]
        fin_heap: List[Tuple[Time, int, int]] = [(sentinel, 0, -1)]
        fin_head = sentinel
        seq = 0
        ri = 0

        def draw(tid: int) -> Time:
            """Non-default policy draw, with the range re-check."""
            k = counts[tid]
            counts[tid] = k + 1
            exec_time = policy(tasks[tid], k, rng)
            if not bcets[tid] <= exec_time <= wcets[tid]:
                raise ModelError(
                    f"policy returned execution time {exec_time} outside "
                    f"[{bcets[tid]}, {wcets[tid]}] for {tasks[tid].name!r}"
                )
            return exec_time

        while True:
            now = rel_times[ri]
            if now <= fin_head:
                # Release event (at equal times releases go first).
                if now > duration:
                    break
                tid = rel_tids[ri]
                ri += 1
                u = unit_of[tid]
                if rel_times[ri] == now or fin_head == now:
                    # Multi-event instant: gather every same-instant
                    # release and finish, then dispatch idle units.
                    pend[tid] += 1
                    ready_mask[u] |= bit_of[tid]
                    touched = [u]
                    while rel_times[ri] == now:
                        tid2 = rel_tids[ri]
                        ri += 1
                        u2 = unit_of[tid2]
                        pend[tid2] += 1
                        ready_mask[u2] |= bit_of[tid2]
                        touched.append(u2)
                    while fin_head == now:
                        u2 = heappop(fin_heap)[2]
                        fin_head = fin_heap[0][0]
                        if let_mode:
                            check_deadline(running[u2], now)
                        running[u2] = -1
                        touched.append(u2)
                    for u2 in touched:
                        m = ready_mask[u2]
                        if running[u2] < 0 and m:
                            b = m & -m
                            tid2 = rank_tid[u2][b.bit_length() - 1]
                            c = pend[tid2] - 1
                            pend[tid2] = c
                            if not c:
                                ready_mask[u2] = m ^ b
                            if fast_uniform:
                                span = spans[tid2]
                                exec_time = (
                                    bcets[tid2] + int(rng_random() * span)
                                    if span > 1
                                    else bcets[tid2]
                                )
                            elif fast_wcet:
                                exec_time = wcets[tid2]
                            else:
                                exec_time = draw(tid2)
                            if keep[tid2]:
                                sa[tid2](now)
                                fa[tid2](now + exec_time)
                            if track:
                                # Finishes drained at a release instant
                                # belong to jobs dispatched earlier, so
                                # this dispatch starts a fresh batch.
                                cur_batch[u2] = 0
                                zrun[u2] = exec_time == 0
                            elif let_mode:
                                ndisp[tid2] += 1
                            running[u2] = tid2
                            seq += 1
                            heappush(fin_heap, (now + exec_time, seq, u2))
                            fin_head = fin_heap[0][0]
                elif running[u] < 0:
                    # Idle unit, single release: dispatch directly.
                    if fast_uniform:
                        span = spans[tid]
                        exec_time = (
                            bcets[tid] + int(rng_random() * span)
                            if span > 1
                            else bcets[tid]
                        )
                    elif fast_wcet:
                        exec_time = wcets[tid]
                    else:
                        exec_time = draw(tid)
                    if keep[tid]:
                        sa[tid](now)
                        fa[tid](now + exec_time)
                    if track:
                        cur_batch[u] = 0
                        zrun[u] = exec_time == 0
                    elif let_mode:
                        ndisp[tid] += 1
                    running[u] = tid
                    seq += 1
                    heappush(fin_heap, (now + exec_time, seq, u))
                    fin_head = fin_heap[0][0]
                else:
                    # Busy unit: queue and move on.
                    pend[tid] += 1
                    ready_mask[u] |= bit_of[tid]
            else:
                # Finish event.
                now = fin_head
                if now > duration:
                    break
                u = fin_heap[0][2]
                if let_mode:
                    check_deadline(running[u], now)
                if track:
                    nb = cur_batch[u] + 1 if zrun[u] else 0
                m = ready_mask[u]
                if m:
                    b = m & -m
                    tid = rank_tid[u][b.bit_length() - 1]
                    c = pend[tid] - 1
                    pend[tid] = c
                    if not c:
                        ready_mask[u] = m ^ b
                    if fast_uniform:
                        span = spans[tid]
                        exec_time = (
                            bcets[tid] + int(rng_random() * span)
                            if span > 1
                            else bcets[tid]
                        )
                    elif fast_wcet:
                        exec_time = wcets[tid]
                    else:
                        exec_time = draw(tid)
                    if keep[tid]:
                        sa[tid](now)
                        fa[tid](now + exec_time)
                        if track and nb:
                            casc[(tid, len(starts[tid]) - 1)] = nb
                    if track:
                        cur_batch[u] = nb
                        zrun[u] = exec_time == 0
                    elif let_mode:
                        ndisp[tid] += 1
                    running[u] = tid
                    seq += 1
                    heapreplace(fin_heap, (now + exec_time, seq, u))
                    fin_head = fin_heap[0][0]
                else:
                    running[u] = -1
                    heappop(fin_heap)
                    fin_head = fin_heap[0][0]
                if fin_head == now:
                    # Sibling finishes at the same instant: complete
                    # them all before dispatching any replacement.
                    fin2 = []
                    while fin_head == now:
                        u2 = heappop(fin_heap)[2]
                        fin_head = fin_heap[0][0]
                        if let_mode:
                            check_deadline(running[u2], now)
                        running[u2] = -1
                        fin2.append(u2)
                    for u2 in fin2:
                        m = ready_mask[u2]
                        if running[u2] < 0 and m:
                            b = m & -m
                            tid2 = rank_tid[u2][b.bit_length() - 1]
                            c = pend[tid2] - 1
                            pend[tid2] = c
                            if not c:
                                ready_mask[u2] = m ^ b
                            if track:
                                # The finished job's zero flag is still
                                # in ``zrun`` — no dispatch on this unit
                                # happened since the drain above.
                                nb2 = cur_batch[u2] + 1 if zrun[u2] else 0
                            if fast_uniform:
                                span = spans[tid2]
                                exec_time = (
                                    bcets[tid2] + int(rng_random() * span)
                                    if span > 1
                                    else bcets[tid2]
                                )
                            elif fast_wcet:
                                exec_time = wcets[tid2]
                            else:
                                exec_time = draw(tid2)
                            if keep[tid2]:
                                sa[tid2](now)
                                fa[tid2](now + exec_time)
                                if track and nb2:
                                    casc[(tid2, len(starts[tid2]) - 1)] = nb2
                            if track:
                                cur_batch[u2] = nb2
                                zrun[u2] = exec_time == 0
                            elif let_mode:
                                ndisp[tid2] += 1
                            running[u2] = tid2
                            seq += 1
                            heappush(fin_heap, (now + exec_time, seq, u2))
                            fin_head = fin_heap[0][0]

        completed = [0] * n
        inst = self.inst
        for tid in range(n):
            if not keep[tid] or inst[tid]:
                continue
            fs = fins[tid]
            done = len(fs)
            if done and fs[-1] > duration:
                done -= 1
            completed[tid] = done
        return starts, fins, completed, casc, rels

    def _schedule_cached(
        self,
        offsets: Sequence[Time],
        seed: int,
        duration: Time,
        policy: ExecTimePolicy,
    ) -> Tuple[
        List[List[Time]],
        List[List[Time]],
        List[int],
        Optional[Dict[Tuple[int, int], int]],
        Optional[List[List[Time]]],
    ]:
        """:meth:`_schedule` through the bounded schedule memo.

        The schedule is a pure function of ``(offsets, seed, duration,
        policy)``, so the recorded tables can be replayed for any
        candidate that repeats those inputs — capacity sweeps
        (capacity-derived siblings alias this memo: buffer sizes never
        affect scheduling) and repeated probes of one candidate hit it
        directly.  Deterministic policies (WCET/BCET) consume no RNG,
        so their key normalizes the seed away and candidates differing
        only in execution-time seeds share one computed schedule —
        *unless* a non-periodic release model is present: release
        tables are drawn from the seed, so the key keeps the real seed
        even for deterministic policies.  (A fault plan alone does not
        re-couple the seed: periodic tables are seed-independent and
        the plan is fixed per compiled scenario, so masked schedules
        still alias across execution-time seeds.)  Unrecognized policy
        callables bypass the memo.
        """
        token = _policy_token(policy)
        if token is None:
            return self._schedule(offsets, seed, duration, policy)
        name, consumes_rng = token
        consumes_seed = consumes_rng or self._nonperiodic
        key = (tuple(offsets), seed if consumes_seed else 0, duration, name)
        found = self._sched_cache.get(key)
        if found is None:
            found = self._schedule(offsets, seed, duration, policy)
            self._sched_cache.put(key, found)
        return found

    def _prov_resolver(
        self,
        offsets: Sequence[Time],
        starts: List[List[Time]],
        fins: List[List[Time]],
        completed: List[int],
        casc: Optional[Dict[Tuple[int, int], int]] = None,
        rels: Optional[List[List[Time]]] = None,
    ):
        """Memoized packed-provenance DP over one recorded schedule.

        Answers "what did job ``k`` of task ``g`` read?" from the
        schedule alone.  Under implicit semantics writes at
        ``t`` are visible to reads at ``t`` (``casc`` replays the
        sub-batch order of same-instant zero-time finishes, exactly as
        the simulator processes them), the FIFO head among ``m``
        visible writes on a capacity-``c`` channel is write
        ``max(0, m - c)``, and provenance folds bottom-up as interned
        bitmask + stamp pairs.  Under LET both sides are
        time-deterministic: jobs read at their release, sources
        publish at release, every other producer at its deadline (one
        period after release), with CPU producers publishing only jobs
        they completed within the horizon.

        ``rels`` switches the release arithmetic: ``None`` keeps
        ``offset + k * period``; in table mode job ``k`` of task ``g``
        releases at ``rels[g][k]`` and counting a producer's releases
        or publications up to an instant becomes a bisect over its
        kept table.
        """
        periods = self.periods
        inst = self.inst
        is_source = self.is_source
        in_edges = self.in_edges
        names = self.names
        let_mode = self._let
        pk = self.packer
        pk_source = pk.source
        pk_merge = pk.merge
        pk_empty = pk.empty
        memo: List[dict] = [{} for _ in range(self.n)]

        def prov(g: int, k: int) -> tuple:
            mg = memo[g]
            got = mg.get(k)
            if got is not None:
                return got
            if is_source[g]:
                release = (
                    rels[g][k] if rels is not None
                    else offsets[g] + k * periods[g]
                )
                p = pk_source(names[g], release)
            else:
                if let_mode or inst[g]:
                    at = (
                        rels[g][k] if rels is not None
                        else offsets[g] + k * periods[g]
                    )
                    rkey = 1
                else:
                    at = starts[g][k]
                    rkey = (
                        3 * casc.get((g, k), 0) + 2
                        if casc is not None
                        else 2
                    )
                reads = []
                for pg, cap in in_edges[g]:
                    po = offsets[pg]
                    if let_mode:
                        if rels is not None:
                            if is_source[pg]:
                                mm = bisect_right(rels[pg], at)
                            else:
                                mm = bisect_right(
                                    rels[pg], at - periods[pg]
                                )
                                if not inst[pg] and mm > completed[pg]:
                                    mm = completed[pg]
                        elif at < po:
                            mm = 0
                        elif is_source[pg]:
                            mm = (at - po) // periods[pg] + 1
                        else:
                            mm = (at - po) // periods[pg]
                            if not inst[pg] and mm > completed[pg]:
                                mm = completed[pg]
                    elif inst[pg]:
                        if rels is not None:
                            mm = bisect_right(rels[pg], at)
                        else:
                            mm = (
                                0 if at < po
                                else (at - po) // periods[pg] + 1
                            )
                    else:
                        fts = fins[pg]
                        mm = bisect_right(fts, at)
                        if casc is not None:
                            sts = starts[pg]
                            while (
                                mm
                                and fts[mm - 1] == at
                                and sts[mm - 1] == at
                                and 3 * (casc.get((pg, mm - 1), 0) + 1)
                                > rkey
                            ):
                                mm -= 1
                    if mm:
                        reads.append((pg, mm - cap if mm > cap else 0))
                if not reads:
                    p = pk_empty
                elif len(reads) == 1:
                    p = prov(*reads[0])
                else:
                    p = pk_merge(prov(pg, kk) for pg, kk in reads)
            mg[k] = p
            return p

        return prov

    def _monitored_count(
        self,
        offsets: Sequence[Time],
        duration: Time,
        completed: List[int],
        rels: Optional[List[List[Time]]] = None,
    ) -> int:
        gid = self.m_gid
        if not self.inst[gid]:
            return completed[gid]
        if rels is not None:
            return len(rels[gid])
        offset = offsets[gid]
        if offset > duration:
            return 0
        return (duration - offset) // self.periods[gid] + 1

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
        same ``seed`` and ``policy``; replications the compiled loop
        cannot handle run exactly that fallback.  A vector of the wrong
        length raises :class:`~repro.model.task.ModelError`.
        """
        self._check_offsets(offsets)
        resolved = _resolve_policy(policy)
        t0 = _time.perf_counter()
        try:
            if self.ineligible_reason is not None or not self.in_domain(
                offsets
            ):
                return self._fallback_disparity(
                    offsets, seed, duration, warmup, resolved
                )
            starts, fins, completed, casc, rels = self._schedule_cached(
                offsets, seed, duration, resolved
            )
            prov = self._prov_resolver(
                offsets, starts, fins, completed, casc, rels
            )
            gid = self.m_gid
            count = self._monitored_count(offsets, duration, completed, rels)
            offset = offsets[gid]
            period = self.periods[gid]
            if rels is not None:
                k0 = bisect_left(rels[gid], warmup)
            else:
                k0 = 0
                if warmup > offset:
                    k0 = -(-(warmup - offset) // period)
            best = -1
            pd = self.packer.disparity
            for k in range(k0, count):
                d = pd(prov(gid, k))
                if d is not None and d > best:
                    best = d
            return best if best >= 0 else 0
        finally:
            PHASE_TIMES["replicate_s"] += _time.perf_counter() - t0

    def windowed_maxima(
        self,
        offsets: Sequence[Time],
        duration: Time,
        start: Time,
        window: Time,
        count: int,
        *,
        seed: int = 0,
        policy: PolicyLike = wcet_policy,
    ) -> List[Time]:
        """Per-window disparity maxima of the monitored task.

        The compiled equivalent of the steady-state probe's
        ``_WindowedDisparity`` observer: completed jobs released at or
        after ``start`` are bucketed into consecutive windows of length
        ``window``; windows without a sample read 0.  Requires an
        eligible scenario and in-domain offsets (callers check
        :attr:`eligible`; the offset search draws in ``[1, T]``).
        """
        self._check_offsets(offsets)
        if self.ineligible_reason is not None:
            raise ModelError(
                f"scenario not compiled-loop eligible: {self.ineligible_reason}"
            )
        if not self.in_domain(offsets):
            raise ModelError("offsets outside [0, T] for windowed probe")
        resolved = _resolve_policy(policy)
        t0 = _time.perf_counter()
        try:
            starts, fins, completed, casc, rels = self._schedule_cached(
                offsets, seed, duration, resolved
            )
            prov = self._prov_resolver(
                offsets, starts, fins, completed, casc, rels
            )
            gid = self.m_gid
            total = self._monitored_count(offsets, duration, completed, rels)
            offset = offsets[gid]
            period = self.periods[gid]
            if rels is not None:
                k0 = bisect_left(rels[gid], start)
            else:
                k0 = 0
                if start > offset:
                    k0 = -(-(start - offset) // period)
            per_window: Dict[int, Time] = {}
            pd = self.packer.disparity
            for k in range(k0, total):
                d = pd(prov(gid, k))
                if d is None:
                    continue
                release = (
                    rels[gid][k] if rels is not None
                    else offset + k * period
                )
                index = (release - start) // window
                if d > per_window.get(index, -1):
                    per_window[index] = d
            return [per_window.get(i, 0) for i in range(count)]
        finally:
            PHASE_TIMES["replicate_s"] += _time.perf_counter() - t0

    # ------------------------------------------------------------------
    # structural edits
    # ------------------------------------------------------------------

    def edit(self, **changes) -> "CompiledScenario":
        """A sibling scenario with periods, priorities or capacities edited.

        Accepted keys:

        * ``periods`` — mapping ``task name -> new period``,
        * ``priorities`` — mapping ``task name -> new priority``,
        * ``capacities`` — mapping ``(src, dst) -> new capacity``.

        Unknown keys raise :class:`~repro.model.task.ModelError` (a
        ``ValueError``) listing the choices, as do unknown task names
        or edges and edits that violate task invariants (e.g. a period
        below the task's WCET).  The result is a derived
        :class:`CompiledScenario` that shares every table the edit
        does not touch (see :meth:`_derived`); evaluate it at explicit
        offsets with :meth:`disparity` / :meth:`windowed_maxima`.
        Scenarios the compiled loop cannot replay — duplicate
        priorities after a priority edit, offsets outside ``[0, T]``
        after a period edit — fall back to the per-replication
        simulator on the edited system with identical results.
        """
        unknown = sorted(set(changes) - set(_EDIT_KEYS))
        if unknown:
            raise ModelError(
                f"unknown edit key(s) {unknown}; choose from {_EDIT_KEYS}"
            )
        periods = dict(changes.get("periods") or {})
        priorities = dict(changes.get("priorities") or {})
        capacities = dict(changes.get("capacities") or {})
        if not (periods or priorities or capacities):
            raise ModelError(f"edit() needs at least one of {_EDIT_KEYS}")
        graph = self.graph.copy()
        # Period before priority so a task edited in both keeps both;
        # Task invariants (wcet <= period, priority >= 0, ...) are
        # re-validated by the dataclass on every replacement.
        for name, period in periods.items():
            graph.replace_task(_replace(graph.task(name), period=period))
        for name, priority in priorities.items():
            graph.replace_task(graph.task(name).with_priority(priority))
        for (src, dst), capacity in capacities.items():
            graph.set_channel_capacity(src, dst, capacity)
        # The parent's response-time table rides along unchanged: the
        # simulation surface (compiled loop and fallback simulator
        # alike) never consults it, and recomputing bounds is the
        # analytical layer's job, not the sweep's.
        system = System(
            graph=graph, response_times=self.system.response_times
        )
        return self._derived(
            system,
            periods_changed=bool(periods),
            priorities_changed=bool(priorities),
            capacities_changed=bool(capacities),
        )

    def _derived(
        self,
        system: System,
        *,
        periods_changed: bool,
        priorities_changed: bool,
        capacities_changed: bool,
    ) -> "CompiledScenario":
        """A sibling compiled scenario, recompiling only what the edit touched.

        The structural-delta core.  Per edit kind, the invalidation is:

        * **periods** — release-stream tables (``_stream_cache``) and
          the period-rank packing are rebuilt; the per-``(period,
          horizon)`` grid cache is aliased, so only grids of *new*
          periods are ever generated;
        * **priorities** — per-unit priority-rank tables (``rank_tid``
          / ``bit_of``) and the eligibility reasons are rebuilt;
          stream tables are period-only facts and stay shared;
        * **capacities** — only the per-edge channel tables
          (``in_edges``) are rebuilt; stream tables *and* the schedule
          memo stay shared, because buffer sizes never affect
          scheduling — a capacity sweep evaluated at fixed draws
          computes each schedule once across all candidates.

        Everything an edit cannot touch — task identity and order,
        unit mapping, execution-time tables, the monitored closure,
        the interned provenance domain (append-only, so sharing one
        packer across siblings is safe) — is aliased unconditionally.
        """
        t0 = _time.perf_counter()
        clone = CompiledScenario.__new__(CompiledScenario)
        clone.semantics = self.semantics
        clone._let = self._let
        graph = system.graph
        clone.system = system
        clone.graph = graph
        clone.task = self.task
        tasks = tuple(graph.tasks)
        clone.tasks = tasks
        clone.n = self.n
        clone.names = self.names
        clone._gid = self._gid
        clone.inst = self.inst
        # The fault plan and release models ride along unchanged:
        # edits replace periods/priorities/capacities only, and table
        # construction reads ``clone.tasks`` fresh per replication, so
        # a period edit of a jittered task re-draws its table from the
        # new grid automatically (nothing stale survives the edit).
        clone.faults = self.faults
        clone._faults_sig = self._faults_sig
        clone.release_models = [t.release_model for t in tasks]
        clone._nonperiodic = self._nonperiodic
        clone._needs_tables = self._needs_tables
        clone.periods = (
            [t.period for t in tasks] if periods_changed else self.periods
        )
        clone.bcets = self.bcets
        clone.wcets = self.wcets
        clone.spans = self.spans
        clone.unit_names = self.unit_names
        clone.unit_of = self.unit_of
        clone.n_units = self.n_units
        clone._track = self._track
        if priorities_changed:
            clone.rank_tid, clone.bit_of, reasons = clone._rank_tables(tasks)
            clone.ineligible_reasons = tuple(reasons)
        else:
            clone.rank_tid = self.rank_tid
            clone.bit_of = self.bit_of
            clone.ineligible_reasons = self.ineligible_reasons
        clone.keep = self.keep
        clone.m_gid = self.m_gid
        clone.packer = self.packer
        clone.is_source = self.is_source
        clone.in_edges = (
            clone._channel_tables(graph)
            if capacities_changed
            else self.in_edges
        )
        if periods_changed:
            clone.per_rank, clone._packable = clone._period_ranks()
            clone._stream_cache = {}
        else:
            clone.per_rank = self.per_rank
            clone._packable = self._packable
            clone._stream_cache = self._stream_cache
        clone._grid_cache = self._grid_cache
        # The schedule depends on periods, priorities, and offsets but
        # never on buffer capacities: capacity-only siblings alias the
        # parent's memo, any other edit starts a fresh one.
        if periods_changed or priorities_changed:
            clone._sched_cache = _ScheduleCache()
        else:
            clone._sched_cache = self._sched_cache
        elapsed = _time.perf_counter() - t0
        clone.compile_s = elapsed
        PHASE_TIMES["compile_s"] += elapsed
        return clone

    # ------------------------------------------------------------------
    # fallback
    # ------------------------------------------------------------------

    def _system_at(self, offsets: Sequence[Time]) -> System:
        graph = self.graph.copy()
        for name, offset in zip(self.names, offsets):
            graph.replace_task(graph.task(name).with_offset(offset))
        return System(
            graph=graph, response_times=self.system.response_times
        )

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
            self._system_at(offsets),
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
    compiled: Optional[CompiledScenario] = None,
    semantics: str = "implicit",
    engine: str = "auto",
    faults=None,
) -> BatchResult:
    """Run ``sims`` randomized replications against one compiled scenario.

    Seeds and offsets are drawn exactly like
    ``AnalysisSession.observed_disparity``: per replication, first an
    execution-time seed from ``rng`` (or a local generator seeded with
    ``seed``), then one offset in ``[1, T]`` per task in graph order —
    so the per-replication disparities are byte-identical to the
    sequential ``simulate()`` loop under the same generator state and
    ``semantics`` (``"implicit"`` or ``"let"``).  A pre-``compiled``
    scenario must have been compiled under the same semantics.

    ``engine`` selects the replay tier.  ``"auto"`` (default) takes
    the fastest eligible one: the **columnar** batch engine (all
    replications advanced in one C-kernel call, provenance derived in
    bulk — requires numpy, a batchable named policy, and the runtime
    C kernel), else the **compiled** per-replication loop, else the
    per-replication **simulator**.  ``"columnar"`` forces the columnar
    tier and raises a :class:`~repro.model.task.ModelError` listing
    every unmet rule; ``"compiled"`` skips the columnar tier (the
    pre-columnar behavior: compiled loop when eligible, simulator
    fallback); ``"simulator"`` forces the plain simulator.  All tiers
    return identical disparities.  The batched tiers pre-draw every
    replication's seed/offsets, so after a mid-batch LET-violation
    error ``rng`` has advanced past all ``sims`` draws (the
    sequential loop stops at the violating replication).

    ``faults`` (a :class:`~repro.sim.faults.FaultPlan`) compiles into
    the scenario as per-replication release masks, so faulted runs
    stay eligible for the batched tiers; a pre-``compiled`` scenario
    must have been compiled under a plan with the same signature.
    """
    if sims < 0:
        raise ModelError(f"sims must be >= 0, got {sims}")
    if engine not in ("auto", "columnar", "compiled", "simulator"):
        raise ModelError(
            f"unknown engine {engine!r}; choose from "
            f"('auto', 'columnar', 'compiled', 'simulator')"
        )
    resolved = _resolve_policy(policy)
    if rng is None:
        rng = random.Random(seed)
    compile_s = 0.0
    if compiled is None:
        compiled = CompiledScenario(
            system, task, semantics=semantics, faults=faults
        )
        compile_s = compiled.compile_s
    elif compiled.task != task:
        raise ModelError(
            f"compiled scenario monitors {compiled.task!r}, not {task!r}"
        )
    elif compiled.semantics != semantics:
        raise ModelError(
            f"compiled scenario replays {compiled.semantics!r} semantics, "
            f"not {semantics!r}"
        )
    elif compiled._faults_sig != (faults.signature() if faults else ()):
        raise ModelError(
            "compiled scenario was compiled under a different fault plan; "
            "recompile with CompiledScenario(..., faults=...)"
        )
    t0 = _time.perf_counter()
    periods = compiled.periods
    n = compiled.n

    columnar_reasons: Optional[List[str]] = None
    if engine in ("auto", "columnar"):
        columnar_reasons = list(compiled.ineligible_reasons)
        if _np is None:
            columnar_reasons.append("numpy unavailable")
        else:
            from repro.sim import columnar as _columnar

            columnar_reasons.extend(
                _columnar.ineligibility_reasons(compiled, resolved)
            )
        if engine == "columnar" and columnar_reasons:
            raise ModelError(
                "columnar engine unavailable: "
                + "; ".join(columnar_reasons)
            )
    if columnar_reasons is not None and not columnar_reasons:
        from repro.sim import columnar as _columnar

        draws = [
            (
                rng.randrange(2**31),
                tuple(rng.randint(1, periods[tid]) for tid in range(n)),
            )
            for _ in range(sims)
        ]
        disparities = _columnar.run_columnar(
            compiled, draws, duration, warmup, resolved
        )
        return BatchResult(
            task=task,
            disparities=tuple(disparities),
            engine="columnar",
            compile_s=compile_s,
            run_s=_time.perf_counter() - t0,
            semantics=semantics,
            reason=None,
        )

    force_sim = engine == "simulator"
    if force_sim:
        ran = "simulator"
        reason = compiled.ineligible_reason or "engine='simulator' requested"
    elif compiled.eligible:
        ran = "compiled"
        reason = (
            "; ".join(columnar_reasons)
            if columnar_reasons
            else ("engine='compiled' requested" if engine == "compiled" else None)
        )
    else:
        ran = "simulator"
        reason = compiled.ineligible_reason
    disparities = []
    for _ in range(sims):
        run_seed = rng.randrange(2**31)
        offsets = tuple(rng.randint(1, periods[tid]) for tid in range(n))
        if force_sim:
            disparities.append(
                compiled._fallback_disparity(
                    offsets, run_seed, duration, warmup, resolved
                )
            )
        else:
            # Offsets drawn in [1, T] are always in domain, so each
            # replication is a delta replay of the shared tables.
            disparities.append(
                compiled.disparity(
                    offsets, run_seed, duration, warmup, resolved
                )
            )
    return BatchResult(
        task=task,
        disparities=tuple(disparities),
        engine=ran,
        compile_s=compile_s,
        run_s=_time.perf_counter() - t0,
        semantics=semantics,
        reason=reason,
    )


__all__ = [
    "BatchResult",
    "CompiledScenario",
    "PHASE_TIMES",
    "PolicyLike",
    "SCHED_CACHE_SIZE",
    "reset_phase_times",
    "run_batch",
]
