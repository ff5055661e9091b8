/* Columnar NP-FP kernel: one fused replay per batch.
 *
 * One entry point, ``columnar_replay``, replays every replication of a
 * batch with no Python inside any per-sim loop.  Each kernel thread
 * claims a sim and, in that thread's own scratch, draws, advances and
 * derives it:
 *
 * draw — the sim's execution times come from CPython's MT19937,
 * seeded from the key ``random.Random(seed).getstate()`` exposes (624
 * words and their position) and stepped on demand inside ``dispatch``:
 * ``mt_random`` is ``genrand_uint32`` with the ``(a >> 5, b >> 6)``
 * 53-bit double, so the stream is bit for bit ``rng.random()``'s.
 *
 * advance — ``run_sim`` is a C transliteration of the simulator's event
 * loop (``Simulator`` in ``repro/sim/engine.py``).  It takes each
 * release from the sim's release table, a ``(time, tid)`` list the
 * thread fills once per sim (``rel_table``) by merging the compute
 * tasks' releases with the simulator's ``(time, seq)`` heap discipline:
 * initial entries in task order, and a successor entered (with a fresh
 * sequence number) when its predecessor pops.  Periodic tasks generate
 * ``offset + k * T`` on the fly; in table mode (jitter, sporadic or a
 * fault plan) the caller passes each sim's drawn release tables and
 * kept masks, and suppressed releases are filtered as the table fills.
 * The simulator's finish *heap* becomes a per-unit ``(fin_time,
 * fin_seq)`` pair plus a sentinel-aware min scan (``rehead``): the heap
 * never holds more than one live entry per unit, so the scan is
 * O(n_units) and reproduces the heap's pop order exactly.  Recorded
 * per kept job, into the thread's start/finish/cascade rows (``slots``
 * long, reused from sim to sim): start, finish and (zero-BCET implicit
 * scenarios) the same-instant cascade depth.
 *
 * release table and wrap — with periodic releases the merge repeats
 * once every task has been released (Leung and Merrill, IPL 1980).  Let
 * ``t_s`` be the sim's largest compute-task offset and ``H`` the lcm of
 * the compute tasks' periods (``hyper``, 0 in table mode and when ``H``
 * reaches the horizon).  When ``t_s + H`` lies inside the horizon the
 * table stops there, and a walk past its end wraps to its first entry
 * later than ``t_s`` with every time ``H`` later; otherwise the table
 * holds every release of the horizon and never wraps.  So the heap runs
 * once per hyperperiod, not once per job.  The caller sizes the table
 * (``rel_rows``) for ``2H`` of releases per task (offsets lie in
 * ``[0, T]``, so ``t_s + H <= 2H``), or for the horizon without a wrap;
 * a fill that would run past the rows is an invariant error.
 *
 * Why the wrap is exact.  Every release after ``t_s`` is a non-first
 * job, and the heap's seq of a non-first job is the pop rank of the
 * task's previous release.  Two releases at one instant ``t > t_s``
 * therefore tie-break on their predecessors, popped at ``t - T``:
 * - different periods: the longer period's predecessor is earlier, so
 *   it pops first (and a first job, released at its offset, at most its
 *   period, never ties a later job of a longer-period task, so the rule
 *   holds from time 0 on);
 * - one period: the predecessors coincide too, so the tie repeats the
 *   predecessors' order at ``t - T``, down to the stream's cyclic
 *   ``(offset, tid)`` order.
 * Neither rule depends on ``t`` itself, so the merge over ``(t_s + kH,
 * t_s + (k + 1)H]`` is the merge over ``(t_s, t_s + H]`` shifted by
 * ``kH``.
 *
 * derive — ``derive_sim`` walks the monitored task's backward closure
 * in topological order over those hot rows and resolves every read
 * edge to the producer job it reads — the simulator's FIFO-head and
 * cascade visibility rules — folding the ``(min, max)`` timestamp stamp
 * of that job into the reader's.  One stamp per job, not one per
 * source: the monitored task's disparity is the largest stamp minus the
 * smallest, and min and max compose over edges and sources in either
 * order.  A source's stamp is its release.  Each task's per-job stamp
 * block lives in the thread's arena at an offset the caller planned, so
 * a block's storage is reused once its last consumer has folded it.
 *
 * A call writes only, per sim: the monitored task's per-job disparity
 * column, its per-job finish column (the windowed probe's "completed
 * by the cutoff" mask) and the LET-violation row.
 *
 * The Python side (``repro/sim/ckernel.py``) compiles this file on
 * first use with the host C compiler and binds the entry point via
 * ctypes; every output must stay byte-identical to the simulator
 * (enforced by ``tests/test_batch_columnar.py`` and the other
 * differential suites).
 *
 * Threading: a call runs the batch on ``threads`` threads: the calling
 * thread and ``threads - 1`` pthreads, each claiming the next unclaimed
 * sim from a shared counter until none are left.  Every pthread is
 * joined before the call returns, so no thread outlives a call (and a
 * later ``fork`` is safe).  Claims rather than fixed ranges, because a
 * helper thread can start late (waking an idle vCPU took 0.2-1.5 ms on
 * average, up to 5 ms, on a 2-CPU VM): a late helper then claims fewer
 * sims instead of holding the call back with a fixed half of them.
 * Sims share nothing and each writes only its own output rows, so the
 * outputs are the same bytes for any thread count.  The calling thread
 * allocates every thread's scratch, one cache-line-aligned block each:
 * threads that called malloc themselves would each get a fresh glibc
 * arena (more peak memory), and scratch of two threads on one cache
 * line made two threads slower than one.  A thread that cannot start
 * leaves its share to the others.
 *
 * Error protocol: the call returns 0 on success, ``-(sim + 1)`` when an
 * internal invariant broke in ``sim`` (job-slot overflow, a read past a
 * producer's jobs — caller sizing bugs, never expected; across threads
 * the lowest such sim wins, as in a sequential run), or ``ERR_NOMEM``
 * (positive, so it names no sim) when scratch allocation failed.  LET
 * deadline violations are not errors at this layer: the violating sim
 * stops, skips its derive, its ``viol_out`` row records ``(tid, job,
 * at, deadline)``, and the caller raises the engine-identical
 * ModelError for the lowest violating sim index.
 */

#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_CKERNEL_ABI 7

/* Return code of a failed scratch allocation. */
#define ERR_NOMEM 1

/* Absorbing "no contribution" stamp: far above any schedule instant,
 * far from int64 overflow under the min/max folds. */
#define STAMP_NONE ((int64_t)1 << 62)

/* MT19937 state words, and the twist's middle offset. */
#define MT_N 624
#define MT_M 397

/* The head release of one stream in a sim's merge heap. */
typedef struct {
    int64_t time;
    int64_t seq;
    int64_t grp;  /* stream */
} Rel;

/* One entry of a sim's release table. */
typedef struct {
    int64_t time;
    int32_t tid;
} Release;

/* Timestamp extremes of one job's token, over all its sources. */
typedef struct {
    int64_t lo;
    int64_t hi;
} Stamp;

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
    const int64_t *bcet;
    const int64_t *wcet;
    const int64_t *span;     /* wcet - bcet + 1 */
    const int64_t *periods;
    const int32_t *unit_of;
    const uint64_t *bit_of;  /* ready-mask bit per task (rank bit) */
    const int32_t *rank_tid; /* n_units x max_ranks, -1 padded */
    const int64_t *job_base; /* first record slot per task, -1 if none */
    const int64_t *job_cap;  /* record slots per task */
    const int64_t *tab_base; /* first table column per task */
    int64_t hyper;           /* lcm of compute periods; 0 = never wrap */
    int64_t rel_rows;        /* release-table rows per thread */
    int64_t n_grp;           /* release streams */
    const int64_t *grp_ptr;  /* n_grp + 1: CSR over grp_tid */
    const int32_t *grp_tid;  /* compute tasks per stream, by tid */
} Tables;

/* One replication's mutable state (scratch reused across sims). */
typedef struct {
    const Tables *tb;
    const int64_t *offs; /* n: this sim's offsets */
    const int64_t *tab;  /* this sim's release tables, NULL = periodic */
    const uint8_t *keep; /* this sim's kept masks (table mode) */
    const int64_t *tlen; /* n: this sim's table lengths (table mode) */
    int64_t *krel;       /* kept releases per task (table mode) */
    uint32_t *mt;        /* MT_N: this sim's MT19937 state */
    int64_t mti;         /* next word of mt (MT_N: twist first) */
    Rel *heap;           /* n_grp: release merge heap */
    int64_t h_n;
    int64_t h_seq;
    int64_t *tseq;       /* n: seq of each task's pending release */
    int32_t *gmem;       /* stream members by (offset, tid) */
    int64_t *gpos;       /* n_grp: head member per stream */
    int64_t *grnd;       /* n_grp: head round (table index) per stream */
    Release *rtab;       /* rel_rows: this sim's release table */
    int64_t rt_len;      /* filled entries of rtab */
    int64_t rt_wrap;     /* first entry past t_s, -1 = no wrap */
    int64_t rt_pos;      /* next entry of the walk */
    int64_t rt_shift;    /* hyperperiods wrapped so far, times hyper */
    int64_t rel_at;      /* next release instant (or sentinel) */
    uint64_t *ready;     /* n_units: pending-task rank bitmask */
    int32_t *running;    /* n_units: running tid or -1 */
    int64_t *fin_time;   /* n_units: finish instant of running job */
    int64_t *fin_seq;    /* n_units: dispatch sequence of running job */
    uint8_t *zrun;       /* n_units: running job executes in zero time */
    int32_t *cur_batch;  /* n_units: running job's sub-batch depth */
    int64_t *pend;       /* n: queued job count per task */
    int64_t *starts;     /* slots: start row */
    int64_t *fins;       /* slots: finish row */
    int32_t *casc;       /* slots: cascade-depth row */
    int64_t *rec;        /* n: dispatch count per task (= LET ndisp) */
    int64_t *viol;       /* 4: LET violation (tid, job, at, deadline) */
    int64_t seq;
    int64_t fin_head;    /* earliest finish instant (or sentinel) */
    int64_t fin_head_u;  /* its unit, -1 for the sentinel */
    int64_t err;         /* 0 ok, 1 LET violation, 2 invariant broke */
} Sim;

/* Kept releases of every task, compacted in table order: task t's
 * occupy krel[tab_base[t] ..] and number nkept[t]. */
static void compact_kept(int64_t n, const int64_t *tab_base,
                         const int64_t *tab, const uint8_t *keep,
                         const int64_t *tlen, int64_t *krel,
                         int64_t *nkept)
{
    int64_t t, j;
    for (t = 0; t < n; t++) {
        int64_t base = tab_base[t];
        int64_t m = 0;
        for (j = 0; j < tlen[t]; j++)
            if (keep[base + j])
                krel[base + m++] = tab[base + j];
        nkept[t] = m;
    }
}

/* ------------------------------------------------------------------ */
/* release merge                                                       */
/* ------------------------------------------------------------------ */

/* The simulator keeps every pending release in its event heap, ordered
 * by (time, seq): initial entries carry task order, and a successor
 * gets a fresh seq when its predecessor pops.  Among tasks of one
 * period (offsets in [0, T]) that order is cyclic — each successor
 * lands exactly T later and its seq keeps its predecessor's rank — so
 * a period group is one stream: its members sorted by (offset, tid),
 * emitted round by round.
 * The heap here holds one head per stream, keyed by the head task's
 * (release time, seq), and pops exactly the simulator's order.  In
 * table mode the caller makes every compute task its own stream.  The
 * heap only fills the sim's release table (``rel_table``); the event
 * loop walks the table (``rel_pop``). */

/* Task at the head of stream g. */
static int64_t rel_task(const Sim *s, int64_t g)
{
    return s->gmem[s->tb->grp_ptr[g] + s->gpos[g]];
}

/* Stream g's head release (round grnd; table index in table mode);
 * returns 0 once the stream is exhausted. */
static int rel_next(const Sim *s, int64_t g, Rel *e)
{
    const Tables *tb = s->tb;
    int64_t tid = rel_task(s, g);
    if (s->tab) {
        if (s->grnd[g] >= s->tlen[tid])
            return 0;
        e->time = s->tab[tb->tab_base[tid] + s->grnd[g]];
    } else {
        e->time = s->offs[tid] + s->grnd[g] * tb->periods[tid];
        if (e->time > tb->duration)
            return 0;
    }
    e->seq = s->tseq[tid];
    e->grp = g;
    return 1;
}

static int rel_before(const Rel *a, const Rel *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* Place e at heap slot i and sift it down. */
static void rel_sift(Rel *h, int64_t n, int64_t i, Rel e)
{
    int64_t c;
    while ((c = 2 * i + 1) < n) {
        if (c + 1 < n && rel_before(&h[c + 1], &h[c]))
            c += 1;
        if (!rel_before(&h[c], &e))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = e;
}

/* Pop the heap top: its task's successor takes the next seq, and the
 * stream advances to its next head (or leaves the heap). */
static void rel_step(Sim *s)
{
    Rel *h = s->heap;
    int64_t g = h[0].grp;
    Rel e;
    s->tseq[rel_task(s, g)] = ++s->h_seq;
    if (++s->gpos[g] == s->tb->grp_ptr[g + 1] - s->tb->grp_ptr[g]) {
        s->gpos[g] = 0;
        s->grnd[g] += 1;
    }
    if (!rel_next(s, g, &e)) {
        e = h[--s->h_n];
        if (s->h_n == 0)
            return;
    }
    rel_sift(h, s->h_n, 0, e);
}

/* Step past suppressed releases at the heap top: the simulator
 * advances its heap on them too, so the kept stream is the full merge
 * filtered. */
static void rel_settle(Sim *s)
{
    if (!s->keep)
        return;
    while (s->h_n) {
        int64_t g = s->heap[0].grp;
        if (s->keep[s->tb->tab_base[rel_task(s, g)] + s->grnd[g]])
            break;
        rel_step(s);
    }
}

static void rel_init(Sim *s)
{
    const Tables *tb = s->tb;
    int64_t g, i, j;
    s->h_n = 0;
    s->h_seq = tb->n;
    for (i = 0; i < tb->n; i++)
        s->tseq[i] = i + 1;
    for (g = 0; g < tb->n_grp; g++) {
        int64_t lo = tb->grp_ptr[g], hi = tb->grp_ptr[g + 1];
        Rel e;
        /* Members by (offset, tid): insertion sort of a small group. */
        for (i = lo; i < hi; i++) {
            int32_t t = tb->grp_tid[i];
            for (j = i; j > lo; j--) {
                int32_t u = s->gmem[j - 1];
                if (s->offs[u] < s->offs[t] ||
                    (s->offs[u] == s->offs[t] && u < t))
                    break;
                s->gmem[j] = u;
            }
            s->gmem[j] = t;
        }
        s->gpos[g] = 0;
        s->grnd[g] = 0;
        if (rel_next(s, g, &e)) {
            /* Sift up. */
            int64_t k = s->h_n++;
            while (k > 0 && rel_before(&e, &s->heap[(k - 1) / 2])) {
                s->heap[k] = s->heap[(k - 1) / 2];
                k = (k - 1) / 2;
            }
            s->heap[k] = e;
        }
    }
    rel_settle(s);
}

/* Point rel_at at the walk's next entry: the sentinel past the table's
 * end or the horizon. */
static void rel_load(Sim *s)
{
    const Tables *tb = s->tb;
    int64_t at = tb->sentinel;
    if (s->rt_pos < s->rt_len)
        at = s->rtab[s->rt_pos].time + s->rt_shift;
    s->rel_at = at > tb->duration ? tb->sentinel : at;
}

/* Fill this sim's release table from the merge heap, through t_s + hyper
 * when the walk wraps, else through the horizon, and start the walk.
 * Returns nonzero when the releases outrun the table's rows. */
static int rel_table(Sim *s)
{
    const Tables *tb = s->tb;
    int64_t limit = tb->duration, t_s = 0, n = 0, i;
    int wrap = 0;
    s->rt_wrap = -1;
    if (tb->hyper > 0) {
        for (i = 0; i < tb->grp_ptr[tb->n_grp]; i++)
            if (s->offs[tb->grp_tid[i]] > t_s)
                t_s = s->offs[tb->grp_tid[i]];
        wrap = t_s + tb->hyper < tb->duration;
        if (wrap)
            limit = t_s + tb->hyper;
    }
    rel_init(s);
    while (s->h_n && s->heap[0].time <= limit) {
        if (n == tb->rel_rows)
            return 1;
        if (wrap && s->rt_wrap < 0 && s->heap[0].time > t_s)
            s->rt_wrap = n;
        s->rtab[n].time = s->heap[0].time;
        s->rtab[n].tid = (int32_t)rel_task(s, s->heap[0].grp);
        n += 1;
        rel_step(s);
        rel_settle(s);
    }
    s->rt_len = n;
    s->rt_pos = 0;
    s->rt_shift = 0;
    rel_load(s);
    return 0;
}

/* The next release's task; the walk wraps past the table's end. */
static int32_t rel_pop(Sim *s)
{
    int32_t tid = s->rtab[s->rt_pos].tid;
    if (++s->rt_pos == s->rt_len && s->rt_wrap >= 0) {
        s->rt_pos = s->rt_wrap;
        s->rt_shift += s->tb->hyper;
    }
    rel_load(s);
    return tid;
}

/* ------------------------------------------------------------------ */
/* advance                                                             */
/* ------------------------------------------------------------------ */

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

/* rehead after a dispatch on unit u, idle until now: the new finish
 * carries the newest dispatch seq, so it takes the head only with an
 * earlier instant. */
static void rehead_idle(Sim *s, int64_t u)
{
    if (s->fin_time[u] < s->fin_head) {
        s->fin_head = s->fin_time[u];
        s->fin_head_u = u;
    }
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

/* LET: each finish must meet its job's deadline, one period past its
 * release.  rec counts dispatches, so the running job is the task's
 * (rec - 1)-th kept release: ``offs + (rec - 1) * period`` when
 * periodic, the compacted kept table entry otherwise. */
static int check_deadline(Sim *s, int64_t u, int64_t now)
{
    const Tables *tb = s->tb;
    int32_t tid;
    int64_t deadline;
    if (!tb->let_mode)
        return 0;
    tid = s->running[u];
    if (s->tab)
        deadline = s->krel[tb->tab_base[tid] + s->rec[tid] - 1] +
                   tb->periods[tid];
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

/* CPython's genrand_uint32 (``Modules/_randommodule.c``): the next
 * tempered word of the sim's MT19937 state, twisting all MT_N words
 * once they are used up. */
static uint32_t mt_next(Sim *s)
{
    uint32_t *mt = s->mt;
    uint32_t y;
    if (s->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^
                     ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        s->mti = 0;
    }
    y = mt[s->mti++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* ``random.random()``: a 53-bit double in [0, 1) from two words. */
static double mt_random(Sim *s)
{
    uint32_t a = mt_next(s) >> 5;
    uint32_t b = mt_next(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Draw tid's execution time and start it on unit u at ``now`` with
 * sub-batch depth nb.  Returns nonzero when the sim must stop. */
static int dispatch(Sim *s, int64_t u, int32_t tid, int64_t now, int32_t nb)
{
    const Tables *tb = s->tb;
    int64_t e, j, base;
    if (tb->policy_mode == 0) {
        int64_t sp = tb->span[tid];
        e = tb->bcet[tid];
        if (sp > 1)
            e += (int64_t)(mt_random(s) * (double)sp);
    } else if (tb->policy_mode == 1) {
        e = tb->wcet[tid];
    } else if (tb->policy_mode == 2) {
        e = tb->bcet[tid];
    } else {
        e = mt_random(s) < 0.5 ? tb->bcet[tid] : tb->wcet[tid];
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

/* One replication's event loop, in the simulator's event order:
 * releases win ties, multi-event instants gather every
 * same-instant release and finish before dispatching idle units, and
 * sibling finishes at a finish instant all complete before any
 * replacement dispatch (zero-time replacements cascade with depth
 * cur_batch + 1, recorded in the cascade-depth side table). */
static void run_sim(Sim *s, int32_t *touched, int32_t *fin2)
{
    const Tables *tb = s->tb;
    const int64_t duration = tb->duration;
    int64_t u, i;

    for (u = 0; u < tb->n_units; u++) {
        s->ready[u] = 0;
        s->running[u] = -1;
        s->zrun[u] = 0;
        s->cur_batch[u] = 0;
    }
    for (i = 0; i < tb->n; i++) {
        s->pend[i] = 0;
        s->rec[i] = 0;
    }
    for (i = 0; i < 4; i++)
        s->viol[i] = -1;
    s->seq = 0;
    s->err = 0;
    s->fin_head = tb->sentinel;
    s->fin_head_u = -1;
    if (rel_table(s)) {
        s->err = 2;
        return;
    }

    for (;;) {
        int64_t now = s->rel_at;
        if (now <= s->fin_head) {
            /* Release event (at equal times releases go first). */
            int32_t tid;
            if (now > duration)
                break;
            tid = rel_pop(s);
            u = tb->unit_of[tid];
            if (s->rel_at == now || s->fin_head == now) {
                /* Multi-event instant: gather every same-instant
                 * release and finish, then dispatch idle units. */
                int64_t tn = 0;
                s->pend[tid] += 1;
                s->ready[u] |= tb->bit_of[tid];
                touched[tn++] = (int32_t)u;
                while (s->rel_at == now) {
                    int32_t t2 = rel_pop(s);
                    int64_t u2 = tb->unit_of[t2];
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
                        rehead_idle(s, u2);
                    }
                }
            } else if (s->running[u] < 0) {
                /* Idle unit, single release: dispatch directly. */
                if (dispatch(s, u, tid, now, 0))
                    return;
                rehead_idle(s, u);
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
                        rehead_idle(s, u2);
                    }
                }
            }
        }
    }
}


/* ------------------------------------------------------------------ */
/* derive                                                              */
/* ------------------------------------------------------------------ */

/* Batch-invariant derive inputs plus the thread's rows of one sim. */
typedef struct {
    int64_t duration;
    int64_t let_mode;
    int64_t track;
    const int64_t *periods;
    const uint8_t *inst;
    const uint8_t *is_source;
    const int64_t *job_base;
    const int64_t *tab_base;
    /* this sim */
    const int64_t *offs;
    const int64_t *starts;
    const int64_t *fins;
    const int32_t *casc;
    const int64_t *rec;
    const int64_t *krel;   /* kept releases (table mode), NULL = periodic */
    const int64_t *nkept;
} Derive;

/* bisect_right: entries of the sorted a[0..len) that are <= x,
 * stepped from the previous answer *c.  A reader's read instants are
 * nondecreasing in its job index, so each step is O(1) amortized. */
static int64_t count_le(const int64_t *a, int64_t len, int64_t x,
                        int64_t *c)
{
    int64_t i = *c;
    while (i > 0 && a[i - 1] > x)
        i -= 1;
    while (i < len && a[i] <= x)
        i += 1;
    *c = i;
    return i;
}

/* Releases of task t within the horizon (kept ones in table mode). */
static int64_t released(const Derive *d, int64_t t)
{
    int64_t off;
    if (d->krel)
        return d->nkept[t];
    off = d->offs[t];
    return off > d->duration ? 0 : (d->duration - off) / d->periods[t] + 1;
}

/* Release instant of task t's job k. */
static int64_t release_at(const Derive *d, int64_t t, int64_t k)
{
    if (d->krel)
        return d->krel[d->tab_base[t] + k];
    return d->offs[t] + k * d->periods[t];
}

/* Jobs of compute task t that finished within the horizon: only the
 * last dispatched job can still be running. */
static int64_t completed(const Derive *d, int64_t t)
{
    int64_t r = d->rec[t];
    if (r > 0 && d->fins[d->job_base[t] + r - 1] > d->duration)
        return r - 1;
    return r;
}

/* Writes of producer pg visible to a read at ``at`` (``mm``), under
 * the read key rkey of the reading job (3 * cascade depth + 2 for an
 * implicit compute reader, 1 for a release-time reader); *c is the
 * edge's bisect cursor. */
static int64_t visible(const Derive *d, int64_t pg, int64_t at, int64_t rkey,
                       int64_t *c)
{
    int64_t mm, po, per = d->periods[pg];
    if (d->let_mode) {
        if (d->krel) {
            const int64_t *kr = d->krel + d->tab_base[pg];
            if (d->is_source[pg])
                return count_le(kr, d->nkept[pg], at, c);
            /* Publications at kept release + period. */
            mm = at - per < 0 ? 0 : count_le(kr, d->nkept[pg], at - per, c);
        } else {
            po = d->offs[pg];
            if (d->is_source[pg])
                return at < po ? 0 : (at - po) / per + 1;
            mm = at < po ? 0 : (at - po) / per;
        }
        if (!d->inst[pg]) {
            int64_t done = completed(d, pg);
            if (mm > done)
                mm = done;
        }
        return mm;
    }
    if (d->inst[pg]) {
        if (d->krel)
            return count_le(d->krel + d->tab_base[pg], d->nkept[pg], at,
                            c);
        po = d->offs[pg];
        return at < po ? 0 : (at - po) / per + 1;
    }
    {
        int64_t pb = d->job_base[pg];
        const int64_t *f = d->fins + pb;
        mm = count_le(f, d->rec[pg], at, c);
        if (d->track) {
            /* Cascade step-back: same-instant zero-time writes deeper
             * in the sub-batch than this read are not yet visible. */
            const int64_t *st = d->starts + pb;
            const int32_t *cd = d->casc + pb;
            while (mm > 0 && f[mm - 1] == at && st[mm - 1] == at &&
                   3 * ((int64_t)cd[mm - 1] + 1) > rkey)
                mm -= 1;
        }
        return mm;
    }
}

/* Rows of task t's stamp block that hold real jobs. */
static int64_t job_rows(const Derive *d, int64_t t)
{
    if (d->is_source[t] || d->let_mode || d->inst[t])
        return released(d, t);
    return d->rec[t];
}

/* Fill one sim's stamp blocks in topological order; returns nonzero
 * when a read would land past its producer's jobs. */
static int derive_sim(const Derive *d, int64_t n_order, const int32_t *order,
                      const int64_t *edge_ptr, const int32_t *edge_src,
                      const int64_t *edge_cap, const int64_t *block,
                      Stamp *arena)
{
    int64_t p, k, e;
    for (p = 0; p < n_order; p++) {
        int64_t g = order[p];
        int64_t rows = job_rows(d, g);
        Stamp *blk = arena + block[g];
        if (d->is_source[g]) {
            for (k = 0; k < rows; k++)
                blk[k].lo = blk[k].hi = release_at(d, g, k);
            continue;
        }
        for (k = 0; k < rows; k++) {
            blk[k].lo = STAMP_NONE;
            blk[k].hi = -STAMP_NONE;
        }
        /* Edge by edge, so each edge's bisect cursor only moves
         * forward with the reader's job index. */
        for (e = edge_ptr[g]; e < edge_ptr[g + 1]; e++) {
            int64_t pg = edge_src[e];
            int64_t cap = edge_cap[e];
            int64_t prows = job_rows(d, pg);
            const Stamp *pblk = arena + block[pg];
            int64_t cursor = 0;
            for (k = 0; k < rows; k++) {
                Stamp *row = blk + k;
                const Stamp *got;
                int64_t at, rkey, mm, kk;
                if (d->let_mode || d->inst[g]) {
                    at = release_at(d, g, k);
                    rkey = 1;
                } else {
                    int64_t slot = d->job_base[g] + k;
                    at = d->starts[slot];
                    rkey = d->track ? 3 * (int64_t)d->casc[slot] + 2 : 2;
                }
                mm = visible(d, pg, at, rkey, &cursor);
                if (mm <= 0)
                    continue;
                /* FIFO head: the capacity-th newest visible write. */
                kk = mm > cap ? mm - cap : 0;
                if (kk >= prows)
                    return 1;
                got = pblk + kk;
                if (got->lo < row->lo)
                    row->lo = got->lo;
                if (got->hi > row->hi)
                    row->hi = got->hi;
            }
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* sims on threads                                                     */
/* ------------------------------------------------------------------ */

/* Cache line: no two threads' scratch share one (false sharing made
 * two threads slower than one). */
#define LINE 64

/* Words of one sim's key: the MT19937 state and its position. */
#define KEY_WORDS (MT_N + 1)

/* Per-sim inputs and outputs of a batch, and the derive walk its sims
 * share. */
typedef struct {
    int64_t tab_w;
    int64_t n_order;
    const int32_t *order;
    const int64_t *edge_ptr;
    const int32_t *edge_src;
    const int64_t *edge_cap;
    const int64_t *block;
    int64_t monitored;
    int64_t height;
    const uint32_t *keys;
    const int64_t *offsets;
    const int64_t *tab;
    const uint8_t *tab_keep;
    const int64_t *tab_len;
    int64_t *disp_out;
    int64_t *fin_out;
    int64_t *viol_out;
} Rows;

/* One thread of a batch and its scratch.  Line-aligned, so two
 * threads' records in one array never share a line. */
typedef struct {
    _Alignas(LINE) int64_t *next;  /* the batch's next unclaimed sim */
    int64_t sims;
    int64_t rc;      /* 0, or -(sim + 1) of this thread's broken sim */
    pthread_t tid;
    int live;        /* tid runs and must be joined */
    void *raw;       /* this thread's scratch allocation */
    const Rows *rows;
    Sim s;
    Derive d;
    Stamp *arena;
    int64_t *nkept;  /* n: kept releases per task (table mode) */
    int32_t *touched;
    int32_t *fin2;
} Part;

/* The next unclaimed sim of the batch, or -1 once all are claimed.
 * Each thread claims ascending sims and stops at its first broken one,
 * so the lowest broken sim of the batch is the lowest one reported. */
static int64_t claim(Part *p)
{
    int64_t i = __atomic_fetch_add(p->next, 1, __ATOMIC_RELAXED);
    return i < p->sims ? i : -1;
}

/* count elements of size bytes at offset *top of a thread's scratch
 * block at base (NULL while measuring the block); *top moves on to the
 * next cache line.  An absurd count saturates *top, so the block's
 * allocation fails. */
static void *carve(char *base, size_t *top, int64_t count, size_t size)
{
    const size_t cap = SIZE_MAX / 8;
    size_t at = *top;
    size_t n = count < 1 ? 1 : (size_t)count;
    if (n > (cap - at) / size) {
        *top = cap;
        return NULL;
    }
    *top = at + (n * size + LINE - 1) / LINE * LINE;
    return base ? base + at : NULL;
}

/* The first cache-line boundary at or after raw. */
static char *line_up(void *raw)
{
    return (char *)raw + (LINE - (uintptr_t)raw % LINE) % LINE;
}

/* Point p at its scratch in the block at base (NULL: only measure);
 * returns the block's size.  The start/finish/cascade and dispatch
 * rows are the thread's, reused from sim to sim. */
static size_t scratch(Part *p, char *base, int64_t n, int64_t n_units,
                      int64_t n_grp, int64_t n_krel, int64_t rel_rows,
                      int64_t slots, int64_t arena_len)
{
    Sim *s = &p->s;
    size_t top = 0;
    s->ready = carve(base, &top, n_units, sizeof(uint64_t));
    s->running = carve(base, &top, n_units, sizeof(int32_t));
    s->fin_time = carve(base, &top, n_units, sizeof(int64_t));
    s->fin_seq = carve(base, &top, n_units, sizeof(int64_t));
    s->zrun = carve(base, &top, n_units, sizeof(uint8_t));
    s->cur_batch = carve(base, &top, n_units, sizeof(int32_t));
    s->pend = carve(base, &top, n, sizeof(int64_t));
    s->heap = carve(base, &top, n_grp + 1, sizeof(Rel));
    s->tseq = carve(base, &top, n, sizeof(int64_t));
    s->gmem = carve(base, &top, n, sizeof(int32_t));
    s->gpos = carve(base, &top, n_grp + 1, sizeof(int64_t));
    s->grnd = carve(base, &top, n_grp + 1, sizeof(int64_t));
    s->krel = carve(base, &top, n_krel, sizeof(int64_t));
    s->rtab = carve(base, &top, rel_rows, sizeof(Release));
    s->mt = carve(base, &top, MT_N, sizeof(uint32_t));
    s->starts = carve(base, &top, slots, sizeof(int64_t));
    s->fins = carve(base, &top, slots, sizeof(int64_t));
    s->casc = carve(base, &top, slots, sizeof(int32_t));
    s->rec = carve(base, &top, n, sizeof(int64_t));
    p->nkept = carve(base, &top, n, sizeof(int64_t));
    p->arena = carve(base, &top, arena_len, sizeof(Stamp));
    p->touched = carve(base, &top, n + n_units, sizeof(int32_t));
    p->fin2 = carve(base, &top, n_units, sizeof(int32_t));
    return top;
}

/* count zeroed thread records, each with a scratch block of per bytes
 * in raw (use line_up(raw)).  Every block is its own malloc, so it can
 * reuse freed heap: one block for all threads, or aligned_alloc, kept
 * up to 1.7 MiB more of fig6's peak RSS resident.  NULL when out of
 * memory; release with free_parts(*raw, ...) either way. */
static Part *alloc_parts(int64_t count, size_t per, void **raw)
{
    Part *parts;
    int64_t k;
    *raw = per < SIZE_MAX / 8 ? calloc(1, (size_t)count * sizeof(Part) + LINE)
                              : NULL;
    if (!*raw)
        return NULL;
    parts = (Part *)line_up(*raw);
    for (k = 0; k < count; k++) {
        parts[k].raw = malloc(per + LINE);
        if (!parts[k].raw)
            return NULL;
    }
    return parts;
}

static void free_parts(void *raw, int64_t count)
{
    int64_t k;
    if (!raw)
        return;
    for (k = 0; k < count; k++)
        free(((Part *)line_up(raw))[k].raw);
    free(raw);
}

/* Sim i's output rows: the monitored task's per-job disparity (-1 for
 * a job that read no source or did not complete within the horizon,
 * and for every job of a sim whose derive was skipped) and its per-job
 * finish instant (an instantaneous task finishes at release; the
 * sentinel past the last dispatch or release). */
static void write_rows(const Part *p, int64_t i, int derived)
{
    const Rows *r = p->rows;
    const Derive *d = &p->d;
    const int64_t height = r->height;
    const int64_t g = r->monitored;
    const Stamp *blk = p->arena + r->block[g];
    int64_t *disp = r->disp_out + i * height;
    int64_t *fin = r->fin_out + i * height;
    int64_t count = 0, done, k;
    if (derived) {
        int64_t rows = job_rows(d, g);
        count = d->inst[g] ? released(d, g) : completed(d, g);
        if (count > rows)
            count = rows;
    }
    for (k = 0; k < height; k++)
        disp[k] = k < count && blk[k].lo < STAMP_NONE ? blk[k].hi - blk[k].lo
                                                      : -1;
    done = d->inst[g] ? released(d, g) : d->rec[g];
    for (k = 0; k < height; k++) {
        if (k >= done)
            fin[k] = d->duration + 1;
        else if (d->inst[g])
            fin[k] = release_at(d, g, k);
        else
            fin[k] = d->fins[d->job_base[g] + k];
    }
}

/* One thread: claim sims until none are left, each drawn, advanced and
 * derived in this thread's scratch. */
static void *replay_worker(void *arg)
{
    Part *p = arg;
    const Rows *r = p->rows;
    Sim *s = &p->s;
    Derive *d = &p->d;
    const int64_t n = s->tb->n;
    int64_t i;
    while ((i = claim(p)) >= 0) {
        s->offs = d->offs = r->offsets + i * n;
        if (r->tab) {
            s->tab = r->tab + i * r->tab_w;
            s->keep = r->tab_keep + i * r->tab_w;
            s->tlen = r->tab_len + i * n;
            compact_kept(n, s->tb->tab_base, s->tab, s->keep, s->tlen,
                         s->krel, p->nkept);
        }
        if (r->keys) {
            const uint32_t *key = r->keys + i * KEY_WORDS;
            memcpy(s->mt, key, MT_N * sizeof(uint32_t));
            s->mti = key[MT_N];
        }
        s->viol = r->viol_out + i * 4;
        run_sim(s, p->touched, p->fin2);
        /* err == 1 (LET violation) is recorded in viol_out and skips
         * the derive; later sims are independent, so keep going — the
         * caller raises for the lowest violating index. */
        if (s->err == 2 ||
            (s->err == 0 &&
             derive_sim(d, r->n_order, r->order, r->edge_ptr, r->edge_src,
                        r->edge_cap, r->block, p->arena))) {
            p->rc = -(i + 1);
            break;
        }
        write_rows(p, i, s->err == 0);
    }
    return NULL;
}

/* Run replay_worker once per thread record: record 0 in the calling
 * thread, the others on their own threads, each claiming sims until
 * none are left.  Every thread is joined before this returns; the
 * result is the lowest broken sim's code. */
static int64_t run_threads(Part *parts, int64_t count, int64_t sims)
{
    int64_t next = 0;
    int64_t k, rc = 0;
    for (k = 0; k < count; k++) {
        Part *p = &parts[k];
        p->next = &next;
        p->sims = sims;
        p->rc = 0;
        p->live = k > 0 &&
                  pthread_create(&p->tid, NULL, replay_worker, p) == 0;
    }
    replay_worker(parts);
    for (k = 1; k < count; k++)
        if (parts[k].live)
            pthread_join(parts[k].tid, NULL);
    for (k = 0; k < count; k++)
        if (parts[k].rc && (!rc || parts[k].rc > rc))
            rc = parts[k].rc;
    return rc;
}

/* Threads for a batch of sims: at least 1, at most one per sim. */
static int64_t clamp_threads(int64_t threads, int64_t sims)
{
    if (threads > sims)
        threads = sims;
    return threads < 1 ? 1 : threads;
}

int64_t repro_ckernel_abi(void)
{
    return REPRO_CKERNEL_ABI;
}

int64_t columnar_replay(
    int64_t sims, int64_t threads, int64_t policy_mode,
    /* batch-invariant: one scenario at one horizon */
    int64_t n, int64_t n_units, int64_t duration,
    const int64_t *bcet, const int64_t *wcet, const int64_t *span,
    const int64_t *periods,
    const int32_t *unit_of, const uint64_t *bit_of,
    const int32_t *rank_tid, int64_t max_ranks,
    int64_t let_mode, int64_t track,
    const int64_t *tab_base,     /* n: first table column per task */
    int64_t tab_w,
    int64_t hyper,               /* release-table wrap; 0 = none */
    int64_t rel_rows,            /* release-table rows per thread */
    int64_t n_grp,               /* release streams */
    const int64_t *grp_ptr,      /* n_grp + 1 */
    const int32_t *grp_tid,      /* compute tasks per stream */
    const int64_t *job_base,     /* n */
    const int64_t *job_cap,      /* n */
    int64_t slots,
    const uint8_t *inst, const uint8_t *is_source,
    int64_t n_order, const int32_t *order, /* kept tasks, topological */
    const int64_t *edge_ptr,     /* n + 1: CSR in-edges per task */
    const int32_t *edge_src,     /* producer per in-edge */
    const int64_t *edge_cap,     /* capacity per in-edge */
    const int64_t *block,        /* n: arena offset of a kept task */
    int64_t arena_len,           /* stamps per sim arena */
    int64_t monitored, int64_t height, /* output rows per sim */
    /* per sim */
    const uint32_t *keys,        /* sims x KEY_WORDS, NULL = no draws */
    const int64_t *offsets,      /* sims x n */
    const int64_t *tab,          /* sims x tab_w, NULL = periodic */
    const uint8_t *tab_keep,     /* sims x tab_w kept masks */
    const int64_t *tab_len,      /* sims x n table lengths */
    int64_t *disp_out,           /* sims x height */
    int64_t *fin_out,            /* sims x height */
    int64_t *viol_out)           /* sims x 4 */
{
    const Tables tb = {
        .n = n, .n_units = n_units, .duration = duration,
        .sentinel = duration + 1, .policy_mode = policy_mode,
        .let_mode = let_mode, .track = track, .max_ranks = max_ranks,
        .bcet = bcet, .wcet = wcet, .span = span,
        .periods = periods, .unit_of = unit_of, .bit_of = bit_of,
        .rank_tid = rank_tid, .job_base = job_base, .job_cap = job_cap,
        .tab_base = tab_base, .hyper = hyper, .rel_rows = rel_rows,
        .n_grp = n_grp, .grp_ptr = grp_ptr,
        .grp_tid = grp_tid,
    };
    const Rows rows = {
        .tab_w = tab_w, .n_order = n_order, .order = order,
        .edge_ptr = edge_ptr, .edge_src = edge_src, .edge_cap = edge_cap,
        .block = block, .monitored = monitored,
        .height = height, .keys = keys, .offsets = offsets, .tab = tab,
        .tab_keep = tab_keep, .tab_len = tab_len, .disp_out = disp_out,
        .fin_out = fin_out, .viol_out = viol_out,
    };
    const Derive shared = {
        .duration = duration, .let_mode = let_mode, .track = track,
        .periods = periods, .inst = inst,
        .is_source = is_source, .job_base = job_base, .tab_base = tab_base,
    };
    int64_t k;
    const int64_t nt = clamp_threads(threads, sims);
    const int64_t n_krel = tab ? tab_w : 1;
    Part probe;
    const size_t per = scratch(&probe, NULL, n, n_units, n_grp, n_krel,
                               rel_rows, slots, arena_len);
    void *raw;
    Part *parts = alloc_parts(nt, per, &raw);
    int64_t rc = ERR_NOMEM;

    if (!parts)
        goto done;
    for (k = 0; k < nt; k++) {
        Part *p = &parts[k];
        Sim *s = &p->s;
        p->rows = &rows;
        p->d = shared;
        scratch(p, line_up(p->raw), n, n_units, n_grp, n_krel, rel_rows,
                slots, arena_len);
        s->tb = &tb;
        s->tab = NULL;
        s->keep = NULL;
        s->tlen = NULL;
        p->d.krel = tab ? s->krel : NULL;
        p->d.nkept = p->nkept;
        p->d.starts = s->starts;
        p->d.fins = s->fins;
        p->d.casc = s->casc;
        p->d.rec = s->rec;
    }
    rc = run_threads(parts, nt, sims);

done:
    free_parts(raw, nt);
    return rc;
}
