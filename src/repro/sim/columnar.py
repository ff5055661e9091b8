"""Columnar batch replay: advance and derive a whole batch at once.

The fast tier behind :func:`repro.sim.batch.run_batch` (the other is
the per-replication reference :class:`~repro.sim.engine.Simulator`).
Instead of one python event loop per replication, this module
processes the batch as struct-of-arrays:

* **draw** — every replication's execution-time variates come from one
  :func:`repro.sim.exec_time.draw_batch` call, bit-for-bit the streams
  ``random.Random(seed)`` would produce;
* **advance** — all NP-FP schedules advance in one call into the
  runtime-compiled C kernel (``_ckernel.c`` via
  :mod:`repro.sim.ckernel`), each sim reading its own row of the
  batched release streams and writing ``(sims, slots)`` start/finish/
  cascade columns;
* **derive** — provenance and disparity come from vectorized
  column algebra over those arrays (:class:`~repro.sim.provenance
  .StampColumns` blocks folded in topological order).

Every step reproduces the simulator exactly: the variate streams are
bit-identical, the C kernel replays its dispatch order (the same loop
:meth:`CompiledScenario._schedule` keeps for the offset-search probe,
plus LET deadlines and release tables), and the derive implements the
simulator's FIFO-head / cascade-visibility rules — enforced by the
differential suites (``tests/tiers.py``,
``tests/test_batch_columnar.py``).

Job columns are padded to the offset-0 bound ``duration // T + 1`` per
task; slots a replication never filled keep the ``PAD`` time (beyond
any schedulable instant), which sorts after every real record and is
masked out of the final disparity fold, so shorter replications never
contaminate longer ones.
"""

from __future__ import annotations

import ctypes
import time as _time
from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro.model.task import ModelError
from repro.sim import batch as _batch
from repro.sim import ckernel
from repro.sim.exec_time import BATCH_POLICY_MODES, draw_batch
from repro.sim.provenance import StampColumns
from repro.sim.release import max_jobs
from repro.units import Time

#: The C kernel's ready masks are one ``uint64`` per unit.
MAX_RANKS = 64

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U64 = ctypes.POINTER(ctypes.c_uint64)
_P_F64 = ctypes.POINTER(ctypes.c_double)


def _p64(a):
    return a.ctypes.data_as(_P_I64)


def _p32(a):
    return a.ctypes.data_as(_P_I32)


def _pu64(a):
    return a.ctypes.data_as(_P_U64)


def _pf64(a):
    return a.ctypes.data_as(_P_F64)


def ineligibility_reasons(compiled, policy) -> List[str]:
    """Why the columnar tier cannot replay ``compiled`` (empty = can).

    Collected on top of ``compiled.ineligible_reasons`` (the
    scenario's table rules): the policy must be one of the named
    batchable singletons, per-unit rank counts must fit the kernel's
    64-bit ready masks, and the advance kernel must load (first call
    compiles it; see :func:`repro.sim.ckernel.load_kernel`).
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
        reasons.append(f"advance kernel unavailable: {why}")
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
    values, one batched advance plus one bulk derive.  Offsets
    must lie in ``[0, T]`` (callers draw them in ``[1, T]``).
    """
    if not draws:
        return []
    seeds = [seed for seed, _offs in draws]
    offs = _np.array([offsets for _seed, offsets in draws], dtype=_np.int64)
    adv = _advance(compiled, seeds, offs, duration, policy)
    return _derive(compiled, adv, offs, duration, warmup)


# ----------------------------------------------------------------------
# phase 1: batched schedule advance
# ----------------------------------------------------------------------


def _job_cap(compiled, tid: int, duration: Time) -> int:
    """Job-slot bound of one task: the most releases any sim can see.

    ``duration // T + 1`` (the offset-0 release count) for periodic and
    jittered models, ``duration // min_gap + 1`` for sporadic ones —
    :func:`repro.sim.release.max_jobs`, which the padded job columns,
    release tables, and variate budgets must all agree on.
    """
    return max_jobs(compiled.tasks[tid], duration)


def _draw_budget(compiled, duration: Time, mode: int) -> int:
    """Offset-independent upper bound on the variates one sim consumes.

    Uniform draws once per dispatch of a ``span > 1`` task, extremes
    once per dispatch of any compute task, WCET/BCET never; dispatches
    per task are bounded by the release-count bound :func:`_job_cap`
    (fault masks only shrink it).  The kernel's cursor errors out if a
    sim ever outruns this budget (an invariant, not an input
    condition).
    """
    if mode in (1, 2):
        return 0
    total = 0
    for tid in range(compiled.n):
        if compiled.inst[tid]:
            continue
        if mode == 0 and compiled.spans[tid] <= 1:
            continue
        total += _job_cap(compiled, tid, duration)
    return total


def _release_streams(compiled, seeds, offs, duration: Time):
    """Batched ``_release_stream``: ``(sims, W)`` rows in pop order.

    The packed single-key path applies each sim's offset vector as a
    row of shift vectors over the shared ``_stream_tables`` and
    argsorts per row; the lex path broadcasts the five-key lexsort.
    Both append the ``duration + 1`` sentinel column the kernel's
    event loop terminates on.  Row ``i`` equals
    ``compiled._release_stream(offsets_i, duration)`` exactly.

    Returns ``(rel_times, rel_tids, rels_rows)``.  In table mode
    (fault plan or non-periodic release models) each row is the
    :meth:`CompiledScenario._release_tables` stream —
    drawn per ``(seed, task)``, fault-masked, padded to the widest row
    with sentinels — and ``rels_rows[i]`` holds sim ``i``'s per-task
    kept-release tables for the derive phase; on the arithmetic path
    ``rels_rows`` is ``None``.
    """
    sims = offs.shape[0]
    sentinel = duration + 1
    if compiled._needs_tables:
        rows = [
            compiled._release_tables(
                tuple(int(x) for x in offs[i]), seeds[i], duration
            )
            for i in range(sims)
        ]
        width = max((len(r[0]) for r in rows), default=0) + 1
        rel_times = _np.full((sims, width), sentinel, dtype=_np.int64)
        rel_tids = _np.full((sims, width), -1, dtype=_np.int32)
        for i, (times, tids, _rels) in enumerate(rows):
            if times:
                rel_times[i, : len(times)] = times
                rel_tids[i, : len(times)] = tids
        return rel_times, rel_tids, [r[2] for r in rows]
    tables = compiled._stream_tables(duration)
    if tables[0] == "empty":
        return (
            _np.full((sims, 1), sentinel, dtype=_np.int64),
            _np.full((sims, 1), -1, dtype=_np.int32),
            None,
        )
    n = compiled.n
    inst = compiled.inst
    if tables[0] == "packed":
        _, base_key, tid_all, idx2 = tables
        # Per-sim (-offset, tid) ranks of the compute tasks: the tie
        # break of rescheduled releases, vectorized via rank-of-sort.
        compute = _np.fromiter(
            (tid for tid in range(n) if not inst[tid]), dtype=_np.int64
        )
        sub = offs[:, compute]
        order_c = _np.lexsort(
            (_np.broadcast_to(compute, sub.shape), -sub), axis=-1
        )
        ranks = _np.empty_like(order_c)
        _np.put_along_axis(
            ranks,
            order_c,
            _np.broadcast_to(
                _np.arange(compute.shape[0], dtype=_np.int64), sub.shape
            ),
            axis=1,
        )
        low = _np.zeros((sims, n), dtype=_np.int64)
        low[:, compute] = ranks
        shifted = offs << 13
        vec2 = _np.concatenate((shifted, shifted + low), axis=1)
        key_all = base_key[None, :] + vec2[:, idx2]
        order = _np.argsort(key_all, axis=1)
        times = _np.take_along_axis(key_all, order, axis=1) >> 13
        tids = tid_all[order]
    else:
        _, t0_all, flag_all, negper_all, tid_all = tables
        scattered = offs[:, tid_all]
        t_all = t0_all[None, :] + scattered
        shape = t_all.shape
        order = _np.lexsort(
            (
                _np.broadcast_to(tid_all, shape),
                -scattered,
                _np.broadcast_to(negper_all, shape),
                _np.broadcast_to(flag_all, shape),
                t_all,
            ),
            axis=-1,
        )
        times = _np.take_along_axis(t_all, order, axis=1)
        tids = _np.take_along_axis(
            _np.broadcast_to(tid_all, shape), order, axis=1
        )
    rel_times = _np.concatenate(
        (times, _np.full((sims, 1), sentinel, dtype=_np.int64)), axis=1
    )
    rel_tids = _np.concatenate(
        (tids, _np.full((sims, 1), -1, dtype=tids.dtype)), axis=1
    )
    return (
        _np.ascontiguousarray(rel_times, dtype=_np.int64),
        _np.ascontiguousarray(rel_tids, dtype=_np.int32),
        None,
    )


def _advance(compiled, seeds, offs, duration: Time, policy):
    """All replications' recorded schedules, via one C kernel call.

    Returns ``(starts, fins, casc, rec, job_base, job_cap, pad,
    rels)``: ``(sims, slots)`` start/finish/cascade columns over the
    kept compute tasks' job slots (``job_base``/``job_cap`` map task
    to slot range), ``(sims, n)`` dispatch counts, the ``pad`` time
    filling never-dispatched slots, and — in table mode — per kept
    task the ``(sims, cap)`` kept-release columns (``None`` on the
    arithmetic path).  Not memoized: every campaign batch draws its
    own seeds and offsets, so a memo over whole batches never hits.

    LET deadline violations surface exactly as in the simulator:
    the error of the lowest violating replication index (the first
    the sequential reference would hit) with the engine's message.
    """
    mode = BATCH_POLICY_MODES[policy]
    kernel, why = ckernel.load_kernel()
    if kernel is None:  # pragma: no cover - callers check eligibility
        raise ModelError(f"columnar advance kernel unavailable: {why}")
    sims, n = offs.shape

    t0 = _time.perf_counter()
    n_draws = _draw_budget(compiled, duration, mode)
    if n_draws:
        variates = draw_batch(seeds, n_draws)
    else:
        variates = _np.zeros((sims, 1), dtype=_np.float64)
    _batch.PHASE_TIMES["draw_s"] += _time.perf_counter() - t0

    t0 = _time.perf_counter()
    rel_times, rel_tids, rels_rows = _release_streams(
        compiled, seeds, offs, duration
    )

    job_base = _np.full(n, -1, dtype=_np.int64)
    job_cap = _np.zeros(n, dtype=_np.int64)
    slots = 0
    for tid in range(n):
        if compiled.keep[tid] and not compiled.inst[tid]:
            job_base[tid] = slots
            job_cap[tid] = _job_cap(compiled, tid, duration)
            slots += int(job_cap[tid])

    # Beyond any real record (start <= duration, finish <= duration +
    # wcet) *and* any arithmetic read instant (release <= duration +
    # period), so padded slots sort last and the row-biased bisect of
    # the derive stays within each sim's row.
    pad = (
        duration
        + max(
            max(compiled.wcets, default=0),
            max(compiled.periods, default=0),
        )
        + 1
    )

    # Table mode: per-(sim, task) kept-release columns for the derive
    # phase (padded with ``pad``, so the row-biased bisects stay in
    # range), plus — under LET — flat per-sim deadline rows the kernel
    # indexes by ``(task, dispatch - 1)`` in place of the arithmetic
    # ``offset + rec * period``.
    rels_arrs = None
    dl_tab = _np.zeros(1, dtype=_np.int64)
    dl_base = _np.full(n, -1, dtype=_np.int64)
    dl_slots = 0
    if rels_rows is not None:
        rels_arrs = {}
        for g in range(n):
            if not compiled.keep[g]:
                continue
            arr = _np.full(
                (sims, max(_job_cap(compiled, g, duration), 1)),
                pad,
                dtype=_np.int64,
            )
            for i in range(sims):
                row = rels_rows[i][g]
                if row:
                    arr[i, : len(row)] = row
            rels_arrs[g] = arr
        if compiled._let:
            for tid in range(n):
                if not compiled.inst[tid]:
                    dl_base[tid] = dl_slots
                    dl_slots += _job_cap(compiled, tid, duration)
            dl_tab = _np.full(
                (sims, max(dl_slots, 1)), pad, dtype=_np.int64
            )
            for i in range(sims):
                rels_i = rels_rows[i]
                for tid in range(n):
                    if compiled.inst[tid]:
                        continue
                    row = rels_i[tid]
                    if row:
                        base = int(dl_base[tid])
                        dl_tab[i, base : base + len(row)] = [
                            at + compiled.periods[tid] for at in row
                        ]

    starts = _np.full((sims, max(slots, 1)), pad, dtype=_np.int64)
    fins = _np.full((sims, max(slots, 1)), pad, dtype=_np.int64)
    casc = _np.zeros((sims, max(slots, 1)), dtype=_np.int32)
    rec = _np.zeros((sims, n), dtype=_np.int64)
    viol = _np.full((sims, 4), -1, dtype=_np.int64)

    max_ranks = max(
        (len(members) for members in compiled.rank_tid), default=0
    ) or 1
    rank_tid = _np.full(
        (max(compiled.n_units, 1), max_ranks), -1, dtype=_np.int32
    )
    for u, members in enumerate(compiled.rank_tid):
        if members:
            rank_tid[u, : len(members)] = members

    bcet = _np.asarray(compiled.bcets, dtype=_np.int64)
    wcet = _np.asarray(compiled.wcets, dtype=_np.int64)
    span = _np.asarray(compiled.spans, dtype=_np.int64)
    periods = _np.asarray(compiled.periods, dtype=_np.int64)
    unit_of = _np.asarray(compiled.unit_of, dtype=_np.int32)
    bit_of = _np.asarray(compiled.bit_of, dtype=_np.uint64)
    offs_c = _np.ascontiguousarray(offs)

    rc = kernel.advance(
        sims,
        n,
        compiled.n_units,
        rel_times.shape[1],
        _p64(rel_times),
        _p32(rel_tids),
        duration,
        _p64(bcet),
        _p64(wcet),
        _p64(span),
        _p64(periods),
        _p32(unit_of),
        _pu64(bit_of),
        _p32(rank_tid),
        max_ranks,
        mode,
        int(compiled._let),
        int(compiled._track),
        _pf64(variates),
        n_draws,
        _p64(offs_c),
        _p64(dl_tab),
        _p64(dl_base),
        dl_slots,
        _p64(job_base),
        _p64(job_cap),
        slots,
        _p64(starts),
        _p64(fins),
        _p32(casc),
        _p64(rec),
        _p64(viol),
    )
    _batch.PHASE_TIMES["advance_s"] += _time.perf_counter() - t0
    if rc != 0:
        raise ModelError(
            f"columnar advance kernel failed in replication {-rc - 1} "
            f"(internal invariant broke; please report)"
        )
    if compiled._let:
        bad = _np.nonzero(viol[:, 0] >= 0)[0]
        if bad.size:
            tid, job, at, deadline = (int(x) for x in viol[int(bad[0])])
            raise ModelError(
                f"LET violation: job {compiled.names[tid]}#{job} "
                f"finished at {at} past its deadline {deadline}"
            )
    return starts, fins, casc, rec, job_base, job_cap, pad, rels_arrs


# ----------------------------------------------------------------------
# phase 2: bulk provenance / disparity derivation
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


def _row_bisect_right(rows, queries, pad):
    """Per-row ``bisect_right``: one global searchsorted, row-biased.

    ``rows`` is ``(sims, K)`` nondecreasing per row, ``queries``
    ``(sims, Q)``; both hold values in ``[0, pad]``.  Adding
    ``row * (pad + 1)`` makes every row's range disjoint, so a single
    sorted search over the flattened matrix answers all rows at once.
    """
    sims, width = rows.shape
    bias = _np.arange(sims, dtype=_np.int64)[:, None] * (pad + 1)
    pos = _np.searchsorted(
        (rows + bias).ravel(), (queries + bias).ravel(), side="right"
    )
    return pos.reshape(sims, queries.shape[1]) - _np.arange(
        sims, dtype=_np.int64
    )[:, None] * width


def _row_bisect_left(rows, queries, pad):
    """Per-row ``bisect_left``, same row-biased trick as the right form."""
    sims, width = rows.shape
    bias = _np.arange(sims, dtype=_np.int64)[:, None] * (pad + 1)
    pos = _np.searchsorted(
        (rows + bias).ravel(), (queries + bias).ravel(), side="left"
    )
    return pos.reshape(sims, queries.shape[1]) - _np.arange(
        sims, dtype=_np.int64
    )[:, None] * width


def _derive(compiled, adv, offs, duration: Time, warmup: Time) -> List[Time]:
    """Bulk provenance + monitored disparity over the columns.

    Walks the kept tasks in topological order, building one
    :class:`StampColumns` block of shape ``(sims, duration // T + 1,
    n_sources)`` per task: sources get their arithmetic release
    stamps, every other task folds its input edges — the visible-write
    count ``mm`` per (sim, job) comes from the same arithmetic (LET /
    instantaneous producers) or finish-column bisect plus cascade
    fix-up (implicit compute producers) as the compiled probe's
    ``CompiledScenario._prov_resolver``, and
    the FIFO head ``max(0, mm - capacity)`` gathers the producer's
    stamps.  Blocks free as soon as their last consumer folds them.

    Padded job slots flow through as garbage but are clipped in
    bounds and masked out of the final fold: the monitored task's
    per-sim maximum ranges over ``k in [k0(warmup), count)``, the
    completed jobs released at or after ``warmup``.
    """
    t0 = _time.perf_counter()
    starts, fins, casc, rec, job_base, job_cap, pad, rels = adv
    sims = offs.shape[0]
    periods = compiled.periods
    inst = compiled.inst
    is_source = compiled.is_source
    in_edges = compiled.in_edges
    let_mode = compiled._let
    track = compiled._track
    gid = compiled.m_gid

    order = _topo_kept(compiled)
    src_cols = {g: i for i, g in enumerate(g for g in order if is_source[g])}
    n_src = len(src_cols)
    heights = {g: _job_cap(compiled, g, duration) for g in order}

    ks_memo: Dict[int, object] = {}

    def ks_of(height: int):
        got = ks_memo.get(height)
        if got is None:
            got = _np.arange(height, dtype=_np.int64)[None, :]
            ks_memo[height] = got
        return got

    completed_memo: Dict[int, object] = {}

    def completed_of(pg: int):
        """Per-sim completed-job counts of a kept compute task."""
        got = completed_memo.get(pg)
        if got is None:
            base = int(job_base[pg])
            cap = int(job_cap[pg])
            r = rec[:, pg]
            idx = _np.clip(base + r - 1, base, base + cap - 1)
            last = _np.take_along_axis(fins, idx[:, None], axis=1)[:, 0]
            got = r - ((r > 0) & (last > duration))
            completed_memo[pg] = got
        return got

    refs = {g: 0 for g in order}
    for g in order:
        for pg, _cap in in_edges[g]:
            refs[pg] += 1

    blocks: Dict[int, StampColumns] = {}
    for g in order:
        height = heights[g]
        if is_source[g]:
            if rels is not None:
                stamps = rels[g]
            else:
                stamps = offs[:, g : g + 1] + ks_of(height) * periods[g]
            blocks[g] = StampColumns.source(
                sims, height, n_src, src_cols[g], stamps
            )
        else:
            block = StampColumns.empty(sims, height, n_src)
            if let_mode or inst[g]:
                if rels is not None:
                    at = rels[g]
                else:
                    at = offs[:, g : g + 1] + ks_of(height) * periods[g]
                rkey = 1
            else:
                base = int(job_base[g])
                at = starts[:, base : base + height]
                if track:
                    rkey = (
                        3 * casc[:, base : base + height].astype(_np.int64)
                        + 2
                    )
                else:
                    rkey = 2
            for pg, cap in in_edges[g]:
                hp = heights[pg]
                po = offs[:, pg : pg + 1]
                per_p = periods[pg]
                if let_mode:
                    if rels is not None:
                        if is_source[pg]:
                            mm = _row_bisect_right(rels[pg], at, pad)
                        else:
                            # Publications at kept release + period:
                            # count kept releases <= at - period,
                            # guarding the clip against counting a
                            # release at 0 when the query is negative.
                            raw = at - per_p
                            mm = _row_bisect_right(
                                rels[pg], _np.clip(raw, 0, pad), pad
                            )
                            mm = _np.where(raw < 0, 0, mm)
                            if not inst[pg]:
                                mm = _np.minimum(
                                    mm, completed_of(pg)[:, None]
                                )
                    elif is_source[pg]:
                        mm = _np.where(at < po, 0, (at - po) // per_p + 1)
                    else:
                        mm = _np.where(at < po, 0, (at - po) // per_p)
                        if not inst[pg]:
                            mm = _np.minimum(mm, completed_of(pg)[:, None])
                elif inst[pg]:
                    if rels is not None:
                        mm = _row_bisect_right(rels[pg], at, pad)
                    else:
                        mm = _np.where(at < po, 0, (at - po) // per_p + 1)
                else:
                    pb = int(job_base[pg])
                    f_pg = fins[:, pb : pb + hp]
                    mm = _row_bisect_right(f_pg, at, pad)
                    if track:
                        # Cascade fix-up: same-instant zero-time
                        # writes deeper in the sub-batch than this
                        # read are not yet visible; step back over
                        # them (vectorized scalar while-loop, one
                        # round per cascade level).  Padded consumer
                        # slots (at == pad > duration) are excluded —
                        # no real job reads at those instants.
                        s_pg = starts[:, pb : pb + hp]
                        c_pg = casc[:, pb : pb + hp]
                        live = at <= duration
                        while True:
                            idx = _np.clip(mm - 1, 0, hp - 1)
                            cond = (
                                live
                                & (mm > 0)
                                & (
                                    _np.take_along_axis(f_pg, idx, axis=1)
                                    == at
                                )
                                & (
                                    _np.take_along_axis(s_pg, idx, axis=1)
                                    == at
                                )
                                & (
                                    3
                                    * (
                                        _np.take_along_axis(
                                            c_pg, idx, axis=1
                                        )
                                        + 1
                                    )
                                    > rkey
                                )
                            )
                            if not cond.any():
                                break
                            mm = mm - cond
                valid = mm > 0
                kk = _np.clip(mm - cap, 0, hp - 1)
                block.merge_read(blocks[pg], kk, valid)
            blocks[g] = block
        for pg, _cap in in_edges[g]:
            refs[pg] -= 1
            if not refs[pg] and pg != gid:
                del blocks[pg]

    values, defined = blocks[gid].disparity()
    height = heights[gid]
    off_m = offs[:, gid]
    per_m = periods[gid]
    if inst[gid]:
        if rels is not None:
            count = (rels[gid] <= duration).sum(axis=1)
        else:
            count = _np.where(
                off_m > duration, 0, (duration - off_m) // per_m + 1
            )
    else:
        count = completed_of(gid)
    if rels is not None:
        k0 = _row_bisect_left(
            rels[gid],
            _np.full((sims, 1), warmup, dtype=_np.int64),
            pad,
        )[:, 0]
    else:
        k0 = _np.where(off_m < warmup, -((off_m - warmup) // per_m), 0)
    ks = ks_of(height)
    mask = defined & (ks >= k0[:, None]) & (ks < count[:, None])
    best = _np.where(mask, values, -1).max(axis=1)
    out = _np.maximum(best, 0)
    _batch.PHASE_TIMES["derive_s"] += _time.perf_counter() - t0
    return [int(x) for x in out]


__all__ = [
    "MAX_RANKS",
    "ineligibility_reasons",
    "run_columnar",
]
