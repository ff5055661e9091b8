"""Columnar batch replay: draw, advance and derive a whole batch at once.

The fast tier behind :func:`repro.sim.batch.run_batch` (the other is
the per-replication reference :class:`~repro.sim.engine.Simulator`).
Instead of one python event loop per replication, a batch is one
``columnar_replay`` call into the runtime-compiled C kernel
(``_ckernel.c`` via :mod:`repro.sim.ckernel`).  Each kernel thread
claims a sim and, in its own scratch rows, reused from sim to sim:

* **draws** its execution times on demand from CPython's MT19937,
  seeded from the sim's key (:func:`_keys`:
  ``random.Random(seed).getstate()``), so the variates are bit for bit
  the stream ``random.Random(seed).random()`` would produce;
* **advances** its NP-FP schedule, merging its own release stream:
  arithmetic for periodic scenarios, else the per-task release tables
  and fault masks drawn here (:func:`~repro.sim.release.release_table`,
  :func:`~repro.sim.release.kept_mask`);
* **derives** it: resolves every read edge of the monitored task's
  backward closure and folds the per-source ``(min, max)`` stamps.

The call writes only the monitored task's ``(sims, height)`` per-job
disparity and finish columns and the ``(sims, 4)`` LET-violation rows.
Two numpy folds read the columns: :func:`run_columnar` takes the
per-sim maximum after the warmup (the ``Sim`` estimate), and
:func:`run_windowed` buckets them into per-window maxima with a
per-row window start and cutoff (the offset search's steady-state
probe).

A call splits a batch's sims across threads when the batch holds at
least :data:`SPLIT_MIN_WORK` ``sims * slots`` (:func:`_threads`; the
count is :func:`repro.sim.ckernel.thread_budget`).  Sims share
nothing, so the outputs are the same bytes for any thread count.

Every step reproduces the simulator exactly: the variate streams are
bit-identical, the kernel replays its release-heap and dispatch order
(with LET deadlines and release tables), and the derive implements
the simulator's FIFO-head / cascade-visibility rules — enforced by the
differential suites (``tests/tiers.py``,
``tests/test_batch_columnar.py``, ``tests/test_search_columnar.py``).
The kernel and :class:`~repro.sim.engine.Simulator` are the only two
event loops.

The batch-invariant kernel inputs (task tables, job-slot layout,
topological order, in-edges, stamp-block arena) are built once per
scenario and horizon (:class:`_Plan`), so a batch costs the keys, the
release tables (table mode only) and one kernel call.
"""

from __future__ import annotations

import array
import ctypes
import random
import time as _time
from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro.model.task import ModelError
from repro.sim import batch as _batch
from repro.sim import ckernel
from repro.sim.exec_time import BATCH_POLICY_MODES
from repro.sim.release import kept_mask, max_jobs, release_table
from repro.units import Time

#: The C kernel's ready masks are one ``uint64`` per unit.
MAX_RANKS = 64

#: Smallest batch, in ``sims * slots``, whose kernel call splits its
#: sims across threads (:func:`repro.sim.ckernel.thread_budget` of
#: them).  Measured on a 2-CPU VM, kernel time per call split against
#: one thread: a split costs about 0.05-0.1 ms, so 2-sim calls of
#: 3,000-10,000 ran 10-18% slower split; fig6's own calls of
#: 35,000-75,000 ran 0.78-0.85x and those over 200,000 0.76x while the
#: second CPU was free.  The break-even lies between 10,000 and 35,000;
#: 50,000 keeps a margin for a busy host and leaves every offset-search
#: call (2 sims, at most 21,550) whole.
SPLIT_MIN_WORK = 50_000

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U64 = ctypes.POINTER(ctypes.c_uint64)
_P_U32 = ctypes.POINTER(ctypes.c_uint32)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)


def _p64(a):
    return a.ctypes.data_as(_P_I64)


def _p32(a):
    return a.ctypes.data_as(_P_I32)


def _pu64(a):
    return a.ctypes.data_as(_P_U64)


def _pu32(a):
    return a.ctypes.data_as(_P_U32)


def _pu8(a):
    return a.ctypes.data_as(_P_U8)


def _threads(sims: int, slots: int) -> int:
    """Kernel threads for a batch: 1 below :data:`SPLIT_MIN_WORK`."""
    if sims * slots < SPLIT_MIN_WORK:
        return 1
    return min(ckernel.thread_budget(), sims)


def _check(rc: int) -> None:
    """Raise the ModelError a nonzero kernel return code stands for."""
    if rc == ckernel.ERR_NOMEM:
        raise ModelError(
            "columnar replay kernel could not allocate its scratch memory"
        )
    if rc != 0:
        raise ModelError(
            f"columnar replay kernel failed in replication {-rc - 1} "
            f"(internal invariant broke; please report)"
        )


def ineligibility_reasons(compiled, policy) -> List[str]:
    """Why the columnar tier cannot replay ``compiled`` (empty = can).

    Collected on top of ``compiled.ineligible_reasons`` (the
    scenario's table rules): the policy must be one of the named
    batchable singletons, per-unit rank counts must fit the kernel's
    64-bit ready masks, and the kernel must load (first call compiles
    it; see :func:`repro.sim.ckernel.load_kernel`).
    """
    reasons: List[str] = []
    if BATCH_POLICY_MODES.get(policy) is None:
        reasons.append(
            "policy is not a batchable named policy "
            "(uniform/wcet/bcet/extremes)"
        )
    if any(len(members) > MAX_RANKS for members in compiled.rank_tid):
        reasons.append(
            f"a unit hosts more than {MAX_RANKS} compute tasks "
            f"(kernel ready masks are 64-bit)"
        )
    kernel, why = ckernel.load_kernel()
    if kernel is None:
        reasons.append(f"replay kernel unavailable: {why}")
    return reasons


def run_columnar(
    compiled,
    draws: Sequence[Tuple[int, Tuple[Time, ...]]],
    duration: Time,
    warmup: Time,
    policy,
) -> List[Time]:
    """Per-replication disparities for ``draws`` ((seed, offsets) pairs).

    The columnar equivalent of one simulator run per pair — same
    values, one kernel call.  Offsets must lie in ``[0, T]`` (callers
    draw them in ``[1, T]``).  A sim's value is its disparity column's
    maximum over ``k >= k0``, the jobs released at or after
    ``warmup``; an empty range yields 0.
    """
    if not draws:
        return []
    offs = _np.array([offsets for _seed, offsets in draws], dtype=_np.int64)
    plan = _plan(compiled, duration)
    disp, _fins, _viol, tables = _replay(
        compiled, plan, draws, offs, duration, policy
    )
    t0 = _time.perf_counter()
    height = plan.height
    gid = compiled.m_gid
    if tables is None:
        off = offs[:, gid]
        k0 = _np.where(
            off < warmup, -((off - warmup) // compiled.periods[gid]), 0
        )
    else:
        cols = slice(int(plan.tab_base[gid]), int(plan.tab_base[gid]) + height)
        k0 = ((tables[0][:, cols] < warmup) & (tables[1][:, cols] > 0)).sum(
            axis=1
        )
    ks = _np.arange(height, dtype=_np.int64)
    best = _np.where(ks >= k0[:, None], disp, -1).max(axis=1)
    out = _np.maximum(best, 0)
    _batch.PHASE_TIMES["derive_s"] += _time.perf_counter() - t0
    return [int(x) for x in out]


def run_windowed(
    compiled,
    draws: Sequence[Tuple[int, Tuple[Time, ...]]],
    starts: Sequence[Time],
    cutoffs: Sequence[Time],
    duration: Time,
    window: Time,
    count: int,
    policy,
) -> List[List[Time]]:
    """Per-row, per-window disparity maxima of the monitored task.

    Row ``i`` is the simulator run of ``draws[i]`` ((seed, offsets))
    up to its own horizon ``cutoffs[i]`` observed by the steady-state
    probe's ``_WindowedDisparity``: the completed jobs released at or
    after ``starts[i]`` fall into consecutive windows of length
    ``window``, and each of the first ``count`` windows reads its
    maximum disparity, 0 when it holds no sample.

    Every row advances to the shared ``duration`` (at least every
    cutoff) in one kernel call, so one plan serves every batch at that
    horizon.  The simulation is causal, so a job that finishes by its
    row's cutoff has the same schedule and provenance as in the
    row's own shorter run; the fold keeps exactly those jobs.
    Implicit semantics with periodic releases only (job ``k`` is
    released at ``offset + k * T``); offsets must lie in ``[0, T]``.
    """
    if not draws:
        return []
    if compiled._let or compiled._needs_tables:
        raise ModelError(
            "windowed probe replays implicit semantics with periodic "
            "releases and no fault plan only"
        )
    if window <= 0 or count < 0:
        raise ModelError(
            f"need window > 0 and count >= 0, got {window} and {count}"
        )
    if max(cutoffs) > duration:
        raise ModelError(
            f"a row's cutoff {max(cutoffs)} exceeds the horizon {duration}"
        )
    offs = _np.array([offsets for _seed, offsets in draws], dtype=_np.int64)
    plan = _plan(compiled, duration)
    disp, fins, _viol, _tables = _replay(
        compiled, plan, draws, offs, duration, policy
    )
    t0 = _time.perf_counter()
    gid = compiled.m_gid
    rows, height = disp.shape
    ks = _np.arange(height, dtype=_np.int64)
    release = offs[:, gid, None] + ks * compiled.periods[gid]
    start = _np.asarray(starts, dtype=_np.int64)[:, None]
    done = fins <= _np.asarray(cutoffs, dtype=_np.int64)[:, None]
    index = (release - start) // window
    keep = (disp >= 0) & (release >= start) & done & (index < count)
    out = _np.zeros((rows, count), dtype=_np.int64)
    row_of = _np.nonzero(keep)[0]
    _np.maximum.at(out, (row_of, index[keep]), disp[keep])
    _batch.PHASE_TIMES["derive_s"] += _time.perf_counter() - t0
    return out.tolist()


# ----------------------------------------------------------------------
# batch-invariant kernel inputs
# ----------------------------------------------------------------------


def _topo_kept(compiled) -> List[int]:
    """Kept tasks in topological order (producers before consumers)."""
    keep = compiled.keep
    kept = [g for g in range(compiled.n) if keep[g]]
    indeg = {g: len(compiled.in_edges[g]) for g in kept}
    succs: Dict[int, List[int]] = {g: [] for g in kept}
    for g in kept:
        for pg, _cap in compiled.in_edges[g]:
            succs[pg].append(g)
    queue = deque(g for g in kept if not indeg[g])
    out: List[int] = []
    while queue:
        g = queue.popleft()
        out.append(g)
        for h in succs[g]:
            indeg[h] -= 1
            if not indeg[h]:
                queue.append(h)
    return out


def _arena(order, in_edges, sizes, keep_live) -> Tuple[Dict[int, int], int]:
    """Stamp-block offsets in one per-sim arena, plus its length.

    Blocks are placed in topological order (first fit over freed
    regions, else at the arena's end) and a block's region is freed
    once its last consumer has folded it — except ``keep_live``, the
    monitored task, whose block the kernel reads last.
    """
    last: Dict[int, int] = {}
    for pos, g in enumerate(order):
        for pg, _cap in in_edges[g]:
            last[pg] = pos
    free: List[Tuple[int, int]] = []
    block: Dict[int, int] = {}
    top = 0
    for pos, g in enumerate(order):
        need = sizes[g]
        for i, (at, size) in enumerate(free):
            if size >= need:
                block[g] = at
                free[i] = (at + need, size - need)
                break
        else:
            block[g] = top
            top += need
        for pg, _cap in in_edges[g]:
            if last[pg] == pos and pg != keep_live:
                free.append((block[pg], sizes[pg]))
    return block, top


def _csr(rows: List[List[int]], dtype) -> Tuple[object, object]:
    """``(ptr, flat)`` arrays of a list of rows; ``flat`` is never empty."""
    ptr = _np.zeros(len(rows) + 1, dtype=_np.int64)
    ptr[1:] = _np.cumsum([len(row) for row in rows])
    flat = _np.asarray([x for row in rows for x in row] or [0], dtype=dtype)
    return ptr, flat


class _Plan:
    """Batch-invariant kernel inputs of one scenario at one horizon.

    Built once per ``(CompiledScenario, duration)`` and cached in
    ``compiled._plans``.  Job rows per task are bounded by
    :func:`repro.sim.release.max_jobs` (``duration // T + 1`` for
    periodic and jittered models, ``duration // min_gap + 1`` for
    sporadic ones) — the one bound the job slots, release-table
    columns and stamp blocks all agree on.
    """

    def __init__(self, compiled, duration: Time) -> None:
        n = compiled.n
        inst = compiled.inst
        caps = [max_jobs(task, duration) for task in compiled.tasks]
        self.caps = caps

        # advance: task tables and the kept compute tasks' job slots
        self.bcet = _np.asarray(compiled.bcets, dtype=_np.int64)
        self.wcet = _np.asarray(compiled.wcets, dtype=_np.int64)
        self.span = _np.asarray(compiled.spans, dtype=_np.int64)
        self.periods = _np.asarray(compiled.periods, dtype=_np.int64)
        self.unit_of = _np.asarray(compiled.unit_of, dtype=_np.int32)
        self.bit_of = _np.asarray(compiled.bit_of, dtype=_np.uint64)
        self.max_ranks = max(
            (len(members) for members in compiled.rank_tid), default=0
        ) or 1
        self.rank_tid = _np.full(
            (max(compiled.n_units, 1), self.max_ranks), -1, dtype=_np.int32
        )
        for u, members in enumerate(compiled.rank_tid):
            if members:
                self.rank_tid[u, : len(members)] = members
        self.job_base = _np.full(n, -1, dtype=_np.int64)
        self.job_cap = _np.zeros(n, dtype=_np.int64)
        slots = 0
        for tid in range(n):
            if compiled.keep[tid] and not inst[tid]:
                self.job_base[tid] = slots
                self.job_cap[tid] = caps[tid]
                slots += caps[tid]
        self.slots = slots
        # Release-table columns (table mode): task t's at tab_base[t].
        self.tab_base = _np.zeros(n, dtype=_np.int64)
        self.tab_base[1:] = _np.cumsum(caps[:-1])
        self.tab_w = sum(caps)
        # Release streams the kernel merges: compute tasks grouped by
        # period (each group releases in a fixed cyclic order), or one
        # stream per task when releases come from drawn tables.
        streams: Dict[object, List[int]] = {}
        for tid in range(n):
            if not inst[tid]:
                key = tid if compiled._needs_tables else compiled.periods[tid]
                streams.setdefault(key, []).append(tid)
        self.n_grp = len(streams)
        self.grp_ptr, self.grp_tid = _csr(list(streams.values()), _np.int32)

        # derive: topological order, CSR in-edges, stamp-block arena
        order = _topo_kept(compiled)
        self.order = _np.asarray(order, dtype=_np.int32)
        self.inst = _np.asarray(inst, dtype=_np.uint8)
        self.is_source = _np.asarray(compiled.is_source, dtype=_np.uint8)
        self.src_col = _np.full(n, -1, dtype=_np.int64)
        sources = [g for g in order if compiled.is_source[g]]
        for col, g in enumerate(sources):
            self.src_col[g] = col
        self.n_src = len(sources)
        in_edges = compiled.in_edges
        self.edge_ptr, self.edge_src = _csr(
            [[pg for pg, _cap in edges] for edges in in_edges], _np.int32
        )
        _ptr, self.edge_cap = _csr(
            [[cap for _pg, cap in edges] for edges in in_edges], _np.int64
        )
        gid = compiled.m_gid
        blocks, self.arena = _arena(
            order, in_edges, {g: caps[g] * self.n_src for g in order}, gid
        )
        self.block = _np.full(n, -1, dtype=_np.int64)
        for g, at in blocks.items():
            self.block[g] = at
        self.height = caps[gid]


def _plan(compiled, duration: Time) -> _Plan:
    plan = compiled._plans.get(duration)
    if plan is None:
        plan = _Plan(compiled, duration)
        compiled._plans[duration] = plan
    return plan


# ----------------------------------------------------------------------
# per-batch inputs and the kernel call
# ----------------------------------------------------------------------


def _keys(draws):
    """Every sim's ``(sims, 625)`` ``uint32`` MT19937 key.

    Row ``i`` is ``random.Random(seed).getstate()[1]`` of ``draws[i]``'s
    seed: the 624 state words and their position, which the kernel
    steps on demand — so its variates are bit for bit the stream
    ``random.Random(seed).random()`` yields, for every seed CPython
    accepts.  The state, not the seed, is the key, so CPython's seeding
    (``init_by_array`` over the seed's 32-bit words) has no second
    implementation.
    """
    words = array.array("I")
    for seed, _offsets in draws:
        words.extend(random.Random(seed).getstate()[1])
    return _np.frombuffer(words, dtype=_np.uint32).reshape(len(draws), -1)


def _release_tables(compiled, plan: _Plan, draws, duration: Time):
    """Table mode: every sim's drawn release tables and kept masks.

    Returns ``(tab, keep, lens)``: ``(sims, tab_w)`` release instants
    and ``uint8`` kept flags, task ``t``'s table in the columns from
    ``plan.tab_base[t]`` on, and the ``(sims, n)`` table lengths.
    Tables come from :func:`~repro.sim.release.release_table` per
    ``(seed, task)`` at the sim's offsets and the masks from the fault
    plan, exactly what the simulator draws for the same run.
    """
    tasks = compiled.tasks
    faults = compiled.faults
    caps = plan.caps
    rows_t: List[List[Time]] = []
    rows_k: List[List[bool]] = []
    rows_len: List[List[int]] = []
    for seed, offsets in draws:
        row_t: List[Time] = []
        row_k: List[bool] = []
        lens: List[int] = []
        for tid, task in enumerate(tasks):
            table = release_table(task, seed, duration, offset=offsets[tid])
            pad = [0] * (caps[tid] - len(table))
            row_t += table
            row_t += pad
            row_k += kept_mask(faults, task.name, table)
            row_k += pad
            lens.append(len(table))
        rows_t.append(row_t)
        rows_k.append(row_k)
        rows_len.append(lens)
    return (
        _np.array(rows_t, dtype=_np.int64),
        _np.array(rows_k, dtype=_np.uint8),
        _np.array(rows_len, dtype=_np.int64),
    )


def _replay(compiled, plan: _Plan, draws, offs, duration: Time, policy):
    """Every sim of ``draws`` drawn, advanced and derived in one call.

    Returns ``(disp, fins, viol, tables)``: the monitored task's
    ``(sims, height)`` per-job disparity column (``-1`` marks a job
    that read no source or did not complete within the horizon) and
    finish column (an instantaneous task finishes at release;
    ``duration + 1`` past the last dispatch), the ``(sims, 4)``
    LET-violation rows (all ``-1`` once this returns), and in table
    mode the :func:`_release_tables` triple (``None`` when periodic).
    WCET and BCET draw nothing, so they pass no keys.

    LET deadline violations surface exactly as in the simulator:
    the error of the lowest violating replication index (the first
    the sequential reference would hit) with the engine's message.
    """
    mode = BATCH_POLICY_MODES[policy]
    kernel, why = ckernel.load_kernel()
    if kernel is None:  # pragma: no cover - callers check eligibility
        raise ModelError(f"columnar replay kernel unavailable: {why}")
    sims, n = offs.shape

    t0 = _time.perf_counter()
    keys = _keys(draws) if mode in (0, 3) else None
    _batch.PHASE_TIMES["draw_s"] += _time.perf_counter() - t0

    t0 = _time.perf_counter()
    tables = tab = keep = lens = None
    if compiled._needs_tables:
        tables = _release_tables(compiled, plan, draws, duration)
        tab, keep, lens = _p64(tables[0]), _pu8(tables[1]), _p64(tables[2])
    height = plan.height
    disp = _np.empty((sims, height), dtype=_np.int64)
    fins = _np.empty((sims, height), dtype=_np.int64)
    viol = _np.empty((sims, 4), dtype=_np.int64)
    rc = kernel.replay(
        sims,
        _threads(sims, plan.slots),
        mode,
        n,
        compiled.n_units,
        duration,
        _p64(plan.bcet),
        _p64(plan.wcet),
        _p64(plan.span),
        _p64(plan.periods),
        _p32(plan.unit_of),
        _pu64(plan.bit_of),
        _p32(plan.rank_tid),
        plan.max_ranks,
        int(compiled._let),
        int(compiled._track),
        _p64(plan.tab_base),
        plan.tab_w,
        plan.n_grp,
        _p64(plan.grp_ptr),
        _p32(plan.grp_tid),
        _p64(plan.job_base),
        _p64(plan.job_cap),
        plan.slots,
        _pu8(plan.inst),
        _pu8(plan.is_source),
        len(plan.order),
        _p32(plan.order),
        _p64(plan.edge_ptr),
        _p32(plan.edge_src),
        _p64(plan.edge_cap),
        _p64(plan.src_col),
        plan.n_src,
        _p64(plan.block),
        plan.arena,
        compiled.m_gid,
        height,
        None if keys is None else _pu32(keys),
        _p64(offs),
        tab,
        keep,
        lens,
        _p64(disp),
        _p64(fins),
        _p64(viol),
    )
    _batch.PHASE_TIMES["advance_s"] += _time.perf_counter() - t0
    _check(rc)
    if compiled._let:
        bad = _np.nonzero(viol[:, 0] >= 0)[0]
        if bad.size:
            tid, job, at, deadline = (int(x) for x in viol[int(bad[0])])
            raise ModelError(
                f"LET violation: job {compiled.names[tid]}#{job} "
                f"finished at {at} past its deadline {deadline}"
            )
    return disp, fins, viol, tables


__all__ = [
    "MAX_RANKS",
    "ineligibility_reasons",
    "run_columnar",
    "run_windowed",
]
