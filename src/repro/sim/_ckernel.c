/* Columnar NP-FP advance kernel.
 *
 * One C transliteration of ``CompiledScenario._schedule`` (see
 * ``repro/sim/batch.py``) applied to every replication of a batch in a
 * single call.  The replications share the read-only compiled tables
 * (execution-time ranges, unit mapping, priority-rank bitmasks) and
 * differ only in their release-stream row, offset vector, and
 * execution-time variates, so the batch is a plain outer loop over
 * sims with no Python in the inner event loop.
 *
 * The Python side (``repro/sim/ckernel.py``) compiles this file on
 * first use with the host C compiler and binds ``columnar_advance``
 * via ctypes; the schedule it records must stay byte-identical to the
 * scalar loop (enforced by ``tests/test_batch_columnar.py``).  The
 * scalar loop's finish *heap* is replaced by a per-unit
 * ``(fin_time, fin_seq)`` pair plus a sentinel-aware min scan
 * (``rehead``): the heap never holds more than one live entry per
 * unit, so the scan is O(n_units) and reproduces the heap's
 * ``(time, push sequence)`` pop order exactly.
 *
 * Error protocol: ``columnar_advance`` returns 0 on success and
 * ``-(sim + 1)`` when an internal invariant broke in ``sim`` (variate
 * underrun or job-slot overflow — caller sizing bugs, never expected).
 * LET deadline violations are not errors at this layer: the violating
 * sim stops, its ``viol_out`` row records ``(tid, job, at, deadline)``,
 * and the caller raises the engine-identical ModelError for the lowest
 * violating sim index.
 */

#include <stdint.h>
#include <stdlib.h>

#define REPRO_CKERNEL_ABI 3

/* Read-only tables shared by every replication. */
typedef struct {
    int64_t n;          /* tasks */
    int64_t n_units;    /* processing units */
    int64_t duration;   /* horizon */
    int64_t sentinel;   /* duration + 1 */
    int64_t policy_mode; /* 0 uniform, 1 wcet, 2 bcet, 3 extremes */
    int64_t let_mode;   /* LET semantics: deadline-check each finish */
    int64_t track;      /* implicit + zero-BCET: record cascade depths */
    int64_t max_ranks;  /* columns of rank_tid */
    int64_t n_draws;    /* variate columns per sim */
    int64_t slots;      /* job-record columns per sim */
    const int64_t *bcet;
    const int64_t *wcet;
    const int64_t *span;     /* wcet - bcet + 1 */
    const int64_t *periods;
    const int32_t *unit_of;
    const uint64_t *bit_of;  /* ready-mask bit per task (rank bit) */
    const int32_t *rank_tid; /* n_units x max_ranks, -1 padded */
    const int64_t *job_base; /* first record slot per task, -1 if none */
    const int64_t *job_cap;  /* record slots per task */
    const int64_t *dl_base;  /* first deadline slot per task (LET tables) */
    int64_t dl_slots;        /* deadline columns per sim, 0 = arithmetic */
} Tables;

/* One replication's mutable state (scratch reused across sims). */
typedef struct {
    const Tables *tb;
    const int64_t *offs; /* n: this sim's offsets */
    const int64_t *dl;   /* dl_slots: this sim's LET deadline row */
    const double *var;   /* n_draws: this sim's U[0,1) variates */
    int64_t cursor;
    uint64_t *ready;     /* n_units: pending-task rank bitmask */
    int32_t *running;    /* n_units: running tid or -1 */
    int64_t *fin_time;   /* n_units: finish instant of running job */
    int64_t *fin_seq;    /* n_units: dispatch sequence of running job */
    uint8_t *zrun;       /* n_units: running job executes in zero time */
    int32_t *cur_batch;  /* n_units: running job's sub-batch depth */
    int64_t *pend;       /* n: queued job count per task */
    int64_t *starts;     /* slots: this sim's start row */
    int64_t *fins;       /* slots: this sim's finish row */
    int32_t *casc;       /* slots: this sim's cascade-depth row */
    int64_t *rec;        /* n: dispatch count per task (= LET ndisp) */
    int64_t *viol;       /* 4: LET violation (tid, job, at, deadline) */
    int64_t seq;
    int64_t fin_head;    /* earliest finish instant (or sentinel) */
    int64_t fin_head_u;  /* its unit, -1 for the sentinel */
    int64_t err;         /* 0 ok, 1 LET violation, 2 invariant broke */
} Sim;

/* Recompute the earliest (fin_time, fin_seq) over busy units.  The
 * sentinel compares as (sentinel, seq 0), before any real finish at
 * the same instant — exactly the scalar heap's permanent entry. */
static void rehead(Sim *s)
{
    const Tables *tb = s->tb;
    int64_t best_t = tb->sentinel;
    int64_t best_q = 0;
    int64_t best_u = -1;
    int64_t u;
    for (u = 0; u < tb->n_units; u++) {
        if (s->running[u] >= 0) {
            int64_t t = s->fin_time[u];
            if (t < best_t || (t == best_t && s->fin_seq[u] < best_q)) {
                best_t = t;
                best_q = s->fin_seq[u];
                best_u = u;
            }
        }
    }
    s->fin_head = best_t;
    s->fin_head_u = best_u;
}

/* Pop the highest-priority pending task of unit u (lowest set rank
 * bit); the bit clears only when the task's last queued job leaves. */
static int32_t pop_ready(Sim *s, int64_t u)
{
    const Tables *tb = s->tb;
    uint64_t m = s->ready[u];
    uint64_t b = m & (~m + 1ULL);
    int32_t tid = tb->rank_tid[u * tb->max_ranks + __builtin_ctzll(b)];
    if (--s->pend[tid] == 0)
        s->ready[u] = m ^ b;
    return tid;
}

/* LET: each finish must meet its job's deadline (one period past the
 * release).  rec counts dispatches, so the running job's index is
 * rec - 1 and its deadline offs + rec * period == release + period.
 * Under release tables (jitter/sporadic models, fault masks) the
 * arithmetic does not hold: the caller passes per-sim pre-computed
 * deadline rows (kept release + period per dispatched job) instead,
 * signalled by dl_slots > 0. */
static int check_deadline(Sim *s, int64_t u, int64_t now)
{
    const Tables *tb = s->tb;
    int32_t tid;
    int64_t deadline;
    if (!tb->let_mode)
        return 0;
    tid = s->running[u];
    if (tb->dl_slots)
        deadline = s->dl[tb->dl_base[tid] + s->rec[tid] - 1];
    else
        deadline = s->offs[tid] + s->rec[tid] * tb->periods[tid];
    if (now > deadline) {
        s->viol[0] = tid;
        s->viol[1] = s->rec[tid] - 1;
        s->viol[2] = now;
        s->viol[3] = deadline;
        s->err = 1;
        return 1;
    }
    return 0;
}

/* Draw tid's execution time and start it on unit u at ``now`` with
 * sub-batch depth nb.  Returns nonzero when the sim must stop. */
static int dispatch(Sim *s, int64_t u, int32_t tid, int64_t now, int32_t nb)
{
    const Tables *tb = s->tb;
    int64_t e, j, base;
    if (tb->policy_mode == 0) {
        int64_t sp = tb->span[tid];
        if (sp > 1) {
            if (s->cursor >= tb->n_draws) {
                s->err = 2;
                return 1;
            }
            e = tb->bcet[tid] + (int64_t)(s->var[s->cursor++] * (double)sp);
        } else {
            e = tb->bcet[tid];
        }
    } else if (tb->policy_mode == 1) {
        e = tb->wcet[tid];
    } else if (tb->policy_mode == 2) {
        e = tb->bcet[tid];
    } else {
        if (s->cursor >= tb->n_draws) {
            s->err = 2;
            return 1;
        }
        e = s->var[s->cursor++] < 0.5 ? tb->bcet[tid] : tb->wcet[tid];
    }
    j = s->rec[tid]++;
    base = tb->job_base[tid];
    if (base >= 0) {
        if (j >= tb->job_cap[tid]) {
            s->err = 2;
            return 1;
        }
        s->starts[base + j] = now;
        s->fins[base + j] = now + e;
        if (nb)
            s->casc[base + j] = nb;
    }
    if (tb->track) {
        s->cur_batch[u] = nb;
        s->zrun[u] = (e == 0);
    }
    s->running[u] = tid;
    s->seq += 1;
    s->fin_time[u] = now + e;
    s->fin_seq[u] = s->seq;
    return 0;
}

/* One replication's event loop — a line-for-line port of the scalar
 * ``_schedule``: releases win ties, multi-event instants gather every
 * same-instant release and finish before dispatching idle units, and
 * sibling finishes at a finish instant all complete before any
 * replacement dispatch (zero-time replacements cascade with depth
 * cur_batch + 1, recorded in the cascade-depth side table). */
static void run_sim(Sim *s, const int64_t *rt, const int32_t *rd,
                    int32_t *touched, int32_t *fin2)
{
    const Tables *tb = s->tb;
    const int64_t duration = tb->duration;
    int64_t ri = 0;
    int64_t u, i;

    for (u = 0; u < tb->n_units; u++) {
        s->ready[u] = 0;
        s->running[u] = -1;
        s->zrun[u] = 0;
        s->cur_batch[u] = 0;
    }
    for (i = 0; i < tb->n; i++)
        s->pend[i] = 0;
    s->seq = 0;
    s->cursor = 0;
    s->err = 0;
    s->fin_head = tb->sentinel;
    s->fin_head_u = -1;

    for (;;) {
        int64_t now = rt[ri];
        if (now <= s->fin_head) {
            /* Release event (at equal times releases go first). */
            int32_t tid;
            if (now > duration)
                break;
            tid = rd[ri];
            ri += 1;
            u = tb->unit_of[tid];
            if (rt[ri] == now || s->fin_head == now) {
                /* Multi-event instant: gather every same-instant
                 * release and finish, then dispatch idle units. */
                int64_t tn = 0;
                s->pend[tid] += 1;
                s->ready[u] |= tb->bit_of[tid];
                touched[tn++] = (int32_t)u;
                while (rt[ri] == now) {
                    int32_t t2 = rd[ri];
                    int64_t u2 = tb->unit_of[t2];
                    ri += 1;
                    s->pend[t2] += 1;
                    s->ready[u2] |= tb->bit_of[t2];
                    touched[tn++] = (int32_t)u2;
                }
                while (s->fin_head == now) {
                    int64_t u2 = s->fin_head_u;
                    if (check_deadline(s, u2, now))
                        return;
                    s->running[u2] = -1;
                    rehead(s);
                    touched[tn++] = (int32_t)u2;
                }
                for (i = 0; i < tn; i++) {
                    int64_t u2 = touched[i];
                    if (s->running[u2] < 0 && s->ready[u2]) {
                        int32_t t2 = pop_ready(s, u2);
                        if (dispatch(s, u2, t2, now, 0))
                            return;
                        rehead(s);
                    }
                }
            } else if (s->running[u] < 0) {
                /* Idle unit, single release: dispatch directly. */
                if (dispatch(s, u, tid, now, 0))
                    return;
                rehead(s);
            } else {
                /* Busy unit: queue and move on. */
                s->pend[tid] += 1;
                s->ready[u] |= tb->bit_of[tid];
            }
        } else {
            /* Finish event. */
            int32_t nb = 0;
            now = s->fin_head;
            if (now > duration)
                break;
            u = s->fin_head_u;
            if (check_deadline(s, u, now))
                return;
            if (tb->track)
                nb = s->zrun[u] ? s->cur_batch[u] + 1 : 0;
            if (s->ready[u]) {
                int32_t t2 = pop_ready(s, u);
                if (dispatch(s, u, t2, now, nb))
                    return;
                rehead(s);
            } else {
                s->running[u] = -1;
                rehead(s);
            }
            if (s->fin_head == now) {
                /* Sibling finishes at the same instant: complete
                 * them all before dispatching any replacement. */
                int64_t fn = 0;
                while (s->fin_head == now) {
                    int64_t u2 = s->fin_head_u;
                    if (check_deadline(s, u2, now))
                        return;
                    s->running[u2] = -1;
                    rehead(s);
                    fin2[fn++] = (int32_t)u2;
                }
                for (i = 0; i < fn; i++) {
                    int64_t u2 = fin2[i];
                    if (s->running[u2] < 0 && s->ready[u2]) {
                        int32_t nb2 = 0;
                        int32_t t2;
                        if (tb->track)
                            nb2 = s->zrun[u2] ? s->cur_batch[u2] + 1 : 0;
                        t2 = pop_ready(s, u2);
                        if (dispatch(s, u2, t2, now, nb2))
                            return;
                        rehead(s);
                    }
                }
            }
        }
    }
}

int64_t repro_ckernel_abi(void)
{
    return REPRO_CKERNEL_ABI;
}

int64_t columnar_advance(
    int64_t sims, int64_t n, int64_t n_units,
    int64_t stream_w,            /* release-row width incl. sentinel */
    const int64_t *rel_times,    /* sims x stream_w */
    const int32_t *rel_tids,     /* sims x stream_w */
    int64_t duration,
    const int64_t *bcet, const int64_t *wcet, const int64_t *span,
    const int64_t *periods,
    const int32_t *unit_of, const uint64_t *bit_of,
    const int32_t *rank_tid, int64_t max_ranks,
    int64_t policy_mode, int64_t let_mode, int64_t track,
    const double *variates, int64_t n_draws, /* sims x n_draws */
    const int64_t *offsets,      /* sims x n */
    const int64_t *dl_tab,       /* sims x dl_slots (LET tables) */
    const int64_t *dl_base,      /* n, -1 for non-compute tasks */
    int64_t dl_slots,            /* 0 = arithmetic deadlines */
    const int64_t *job_base,     /* n */
    const int64_t *job_cap,      /* n */
    int64_t slots,
    int64_t *starts_out,         /* sims x slots, prefilled by caller */
    int64_t *fins_out,           /* sims x slots, prefilled by caller */
    int32_t *casc_out,           /* sims x slots, zeroed by caller */
    int64_t *rec_out,            /* sims x n, zeroed by caller */
    int64_t *viol_out)           /* sims x 4, -1-filled by caller */
{
    Tables tb;
    Sim s;
    int64_t i;
    int64_t rc = 0;
    uint64_t *ready = malloc((size_t)n_units * sizeof(uint64_t));
    int32_t *running = malloc((size_t)n_units * sizeof(int32_t));
    int64_t *fin_time = malloc((size_t)n_units * sizeof(int64_t));
    int64_t *fin_seq = malloc((size_t)n_units * sizeof(int64_t));
    uint8_t *zrun = malloc((size_t)n_units * sizeof(uint8_t));
    int32_t *cur_batch = malloc((size_t)n_units * sizeof(int32_t));
    int64_t *pend = malloc((size_t)n * sizeof(int64_t));
    int32_t *touched = malloc((size_t)(n + n_units) * sizeof(int32_t));
    int32_t *fin2 = malloc((size_t)n_units * sizeof(int32_t));

    if (!ready || !running || !fin_time || !fin_seq || !zrun ||
        !cur_batch || !pend || !touched || !fin2) {
        rc = -1;
        goto done;
    }

    tb.n = n;
    tb.n_units = n_units;
    tb.duration = duration;
    tb.sentinel = duration + 1;
    tb.policy_mode = policy_mode;
    tb.let_mode = let_mode;
    tb.track = track;
    tb.max_ranks = max_ranks;
    tb.n_draws = n_draws;
    tb.slots = slots;
    tb.bcet = bcet;
    tb.wcet = wcet;
    tb.span = span;
    tb.periods = periods;
    tb.unit_of = unit_of;
    tb.bit_of = bit_of;
    tb.rank_tid = rank_tid;
    tb.job_base = job_base;
    tb.job_cap = job_cap;
    tb.dl_base = dl_base;
    tb.dl_slots = dl_slots;

    s.tb = &tb;
    s.ready = ready;
    s.running = running;
    s.fin_time = fin_time;
    s.fin_seq = fin_seq;
    s.zrun = zrun;
    s.cur_batch = cur_batch;
    s.pend = pend;

    for (i = 0; i < sims; i++) {
        s.offs = offsets + i * n;
        s.dl = dl_tab + i * dl_slots;
        s.var = variates + i * n_draws;
        s.starts = starts_out + i * slots;
        s.fins = fins_out + i * slots;
        s.casc = casc_out + i * slots;
        s.rec = rec_out + i * n;
        s.viol = viol_out + i * 4;
        run_sim(&s, rel_times + i * stream_w, rel_tids + i * stream_w,
                touched, fin2);
        if (s.err == 2) {
            rc = -(i + 1);
            goto done;
        }
        /* err == 1 (LET violation) is recorded in viol_out; later
         * sims are independent, so keep advancing — the caller
         * raises for the lowest violating index. */
    }

done:
    free(ready);
    free(running);
    free(fin_time);
    free(fin_seq);
    free(zrun);
    free(cur_batch);
    free(pend);
    free(touched);
    free(fin2);
    return rc;
}
