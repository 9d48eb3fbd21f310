/* The ten compiled routines of ksetsplus: the K-sets+ kernels over a CSR
 * measure, the twins of ksetsplus.engine._run_pass_reference and
 * _point_to_set_reference, and ksets_restarts, the twin of
 * ksetsplus.engine._restarts_reference, which runs whole restarts (the
 * tables, the passes and the recomputed objective) in caller arrays; the
 * CSR builds ksets_build, the twin of
 * ksetsplus.measure._build_from_triples_reference, which works in the
 * result's own arrays and allocates nothing, and ksets_dense, the twin of
 * ksetsplus.measure._from_dense_reference, which turns the table it reads
 * into the data array; the measure constructor's checks
 * ksets_check, the twin of ksetsplus.measure._check_reference; the signed
 * benchmark's similarity ksets_two_step, the twin of
 * ksetsplus.experiments._similarity_from_signed_reference; the text
 * reader ksets_read, the twin of ksetsplus.io._read_loadtxt; the
 * partition writer ksets_format, the twin of ksetsplus.io._write_lines;
 * and the signed benchmark's pair draws ksets_draws, the twin of
 * ksetsplus.experiments._kept_draws.
 * ksets_build and ksets_two_step order their rows with one in-place
 * sort, sort_row.
 *
 * Every expression keeps the reference's operation order and int-to-double
 * conversions, and the build passes -ffp-contract=off, so moves, tables and
 * sums match the numpy and Python code bit for bit. The callers check that
 * assign covers the measure's n points with set indices in [0, k), that a
 * measure's CSR arrays passed ksets_check, and that every edge's endpoints
 * are integers in [0, n); ksets_build checks its triples' indices itself.
 *
 * Three routines split their rows across up to `parts` threads (at most
 * KSETS_MAX_PARTS): ksets_read, ksets_check and ksets_scatter. Each part
 * runs the routine's one row-range body on its own rows and writes only
 * its own rows of the output, so the result is the same bytes
 * for every parts; parts = 1 runs the body on the calling thread and
 * starts no thread. ksets_restarts runs each of its restarts on a thread
 * of its own, in its own rows of every array, so a restart's results do
 * not depend on the others; a single restart splits its table scatters as
 * ksets_scatter does. ksets_pass (moves in visiting order), ksets_build (a
 * scatter across rows), ksets_dense (its mean writes cells of later rows,
 * and each row's offset depends on the rows before it), ksets_two_step and
 * ksets_format (each line's offset depends on the lines before it) and
 * ksets_draws (one generator stream) stay on one thread.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(_POSIX_THREADS) && _POSIX_THREADS > 0
#include <pthread.h>
#define KSETS_THREADS 1
#endif

#ifndef KSETS_PASS_KEY
#define KSETS_PASS_KEY "unkeyed"
#endif
const char ksets_pass_key[] = "ksetsplus-pass-key:" KSETS_PASS_KEY;

#define KSETS_MAX_PARTS 8

#ifdef KSETS_THREADS
/* One part of a split routine, for the thread that runs it. */
struct ksets_job {
    void (*body)(void *, int64_t);
    void *context;
    int64_t part;
};

static void *run_job(void *job)
{
    struct ksets_job *j = job;
    j->body(j->context, j->part);
    return NULL;
}
#endif

/* parts clamped to [1, KSETS_MAX_PARTS]. */
static int64_t clamp_parts(int64_t parts)
{
    return parts < 1 ? 1 : parts > KSETS_MAX_PARTS ? KSETS_MAX_PARTS : parts;
}

/* body(context, t) for every part t < parts, a count clamp_parts gave:
 * parts 1 .. parts - 1 on threads of their own and part 0 on the calling
 * thread, which joins them all before it returns. A part whose thread
 * cannot be started runs on the calling thread, as every part does where
 * POSIX threads are missing. */
static void run_parts(int64_t parts, void (*body)(void *, int64_t), void *context)
{
#ifdef KSETS_THREADS
    pthread_t thread[KSETS_MAX_PARTS];
    struct ksets_job job[KSETS_MAX_PARTS];
    int started[KSETS_MAX_PARTS] = {0};
    for (int64_t t = 1; t < parts; t++) {
        job[t].body = body;
        job[t].context = context;
        job[t].part = t;
        started[t] = pthread_create(&thread[t], NULL, run_job, &job[t]) == 0;
        if (!started[t])
            body(context, t);
    }
    body(context, 0);
    for (int64_t t = 1; t < parts; t++)
        if (started[t])
            pthread_join(thread[t], NULL);
#else
    for (int64_t t = 0; t < parts; t++)
        body(context, t);
#endif
}

/* The first row of part t of parts (t = parts gives n) when the rows of a
 * CSR matrix are split into parts of about equal entry counts; indptr
 * must not decrease. */
static int64_t entry_split(const int64_t *indptr, int64_t n, int64_t t, int64_t parts)
{
    if (t >= parts)
        return n;
    int64_t target = indptr[n] * t / parts, lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (indptr[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* One pass over the measure whose stored values are data[p] * sign (sign is
 * 1.0 or -1.0, and x * -1.0 has the bits of -x); returns its move count. */
static int64_t pass_rows(int64_t n, int64_t k, const int64_t *indptr,
                         const int64_t *indices, const double *data,
                         double sign, const double *diag, int64_t *assign,
                         int64_t *sizes, double *gbar, double *rows,
                         double *objective, int64_t *ops)
{
    int64_t moves = 0;
    for (int64_t x = 0; x < n; x++) {
        int64_t src = assign[x], sa = sizes[src], dst = src;
        if (sa == 1)
            continue; /* own adjusted distance is -inf */
        ops[0] += k;
        double *row = rows + x * k, own = diag[x];
        double best = ((double)sa / ((double)sa - 1.0))
                      * (own - 2.0 * row[src] / (double)sa + gbar[src]);
        for (int64_t c = 0; c < k; c++) {
            if (c == src)
                continue;
            double size = (double)sizes[c];
            double cand = (size / (size + 1.0))
                          * (own - 2.0 * row[c] / size + gbar[c]);
            if (cand < best) {
                best = cand;
                dst = c;
            }
        }
        if (dst == src)
            continue;
        int64_t sb = sizes[dst], lo = indptr[x], hi = indptr[x + 1];
        double old = (double)sa * gbar[src] + (double)sb * gbar[dst];
        gbar[src] = ((double)(sa * sa) * gbar[src] - 2.0 * row[src] + own)
                    / (double)((sa - 1) * (sa - 1));
        gbar[dst] = ((double)(sb * sb) * gbar[dst] + 2.0 * row[dst] + own)
                    / (double)((sb + 1) * (sb + 1));
        sizes[src] = sa - 1;
        sizes[dst] = sb + 1;
        assign[x] = dst;
        for (int64_t p = lo; p < hi; p++)
            rows[indices[p] * k + src] -= data[p] * sign;
        for (int64_t p = lo; p < hi; p++)
            rows[indices[p] * k + dst] += data[p] * sign;
        *objective += ((double)(sa - 1) * gbar[src]
                       + (double)(sb + 1) * gbar[dst]) - old;
        ops[1] += 2 * (hi - lo) + 6;
        moves++;
    }
    return moves;
}

/* One pass; returns its move count. rows is the n-by-k point-to-set table,
 * and ops receives the pass's (ops_delta, ops_update). A pass moves only the
 * point it visits, at most once, so a caller that wants the moves reads them
 * from the entries of assign that the pass changed. */
int64_t ksets_pass(int64_t n, int64_t k, const int64_t *indptr,
                   const int64_t *indices, const double *data,
                   const double *diag, int64_t *assign, int64_t *sizes,
                   double *gbar, double *rows, double *objective, int64_t *ops)
{
    return pass_rows(n, k, indptr, indices, data, 1.0, diag, assign, sizes,
                     gbar, rows, objective, ops);
}

struct scatter_job {
    int64_t n, k, parts;
    const int64_t *indptr, *indices, *assign;
    const double *data;
    double sign, *out;
};

static void scatter_rows(void *context, int64_t t)
{
    const struct scatter_job *c = context;
    int64_t lo = entry_split(c->indptr, c->n, t, c->parts);
    int64_t hi = entry_split(c->indptr, c->n, t + 1, c->parts);
    memset(c->out + lo * c->k, 0, (size_t)((hi - lo) * c->k) * sizeof *c->out);
    for (int64_t r = lo; r < hi; r++) {
        double *row = c->out + r * c->k;
        for (int64_t p = c->indptr[r]; p < c->indptr[r + 1]; p++)
            row[c->assign[c->indices[p]]] += c->data[p] * c->sign;
    }
}

/* out[r * k + assign[indices[p]]] += data[p] in entry order, into out
 * zeroed here: the n-by-k point-to-set table, in the order in which
 * np.bincount adds the same weights. The parts hold about equal entry
 * counts, and each zeroes its own rows, so that the page faults of a
 * fresh table are split too. */
void ksets_scatter(int64_t n, int64_t k, const int64_t *indptr,
                   const int64_t *indices, const double *data,
                   const int64_t *assign, double *out, int64_t parts)
{
    struct scatter_job job = {n, k, clamp_parts(parts), indptr, indices,
                              assign, data, 1.0, out};
    run_parts(job.parts, scatter_rows, &job);
}

struct restart_job {
    int64_t n, k, count, threads, parts, max_passes, cap;
    const int64_t *indptr, *indices;
    const double *data, *diag;
    double sign;
    int64_t *assign, *best, *sizes, *moves, *stats;
    double *gbar, *rows, *history, *objective;
};

/* The set sizes of assign into sizes, gamma(S_c, S_c) of every set c into
 * self, and the point-to-set table into rows, from scratch: each set sum
 * adds its points' own-set cells in point order, as np.bincount does. */
static void set_sums(const struct restart_job *c, const int64_t *assign,
                     int64_t *sizes, double *self, double *rows)
{
    int64_t k = c->k;
    struct scatter_job scatter = {c->n, k, c->parts, c->indptr, c->indices,
                                  assign, c->data, c->sign, rows};
    run_parts(scatter.parts, scatter_rows, &scatter);
    for (int64_t s = 0; s < k; s++) {
        sizes[s] = 0;
        self[s] = 0.0;
    }
    for (int64_t x = 0; x < c->n; x++) {
        sizes[assign[x]]++;
        self[assign[x]] += rows[x * k + assign[x]];
    }
}

/* Restart r, the twin of engine._restarts_reference: EngineState's tables,
 * then passes until one moves nothing, max_passes have run or the cap
 * slots of history and moves are full, keeping in best the partition of
 * the strictly highest objective seen (the start's included), then
 * objective_value of best. A later call with a larger cap resumes a
 * restart that filled its slots. */
static void run_restart(const struct restart_job *c, int64_t r)
{
    int64_t n = c->n, k = c->k;
    int64_t *assign = c->assign + r * n, *best = c->best + r * n;
    int64_t *sizes = c->sizes + r * k, *stats = c->stats + r * 4;
    double *gbar = c->gbar + r * k, *rows = c->rows + r * n * k;
    double *objective = c->objective + r * 3;
    if (stats[1] || stats[0] == c->max_passes)
        return; /* finished in an earlier call */
    if (stats[0] == 0) {
        set_sums(c, assign, sizes, gbar, rows);
        objective[0] = 0.0;
        for (int64_t s = 0; s < k; s++) {
            gbar[s] = gbar[s] / (double)(sizes[s] * sizes[s]);
            objective[0] += (double)sizes[s] * gbar[s];
        }
        objective[1] = objective[0];
        memcpy(best, assign, (size_t)n * sizeof *best);
    }
    while (!stats[1] && stats[0] < c->max_passes && stats[0] < c->cap) {
        int64_t moved = pass_rows(n, k, c->indptr, c->indices, c->data,
                                  c->sign, c->diag, assign, sizes, gbar, rows,
                                  objective, stats + 2);
        c->moves[r * c->cap + stats[0]] = moved;
        c->history[r * c->cap + stats[0]] = objective[0];
        stats[0]++;
        if (objective[0] > objective[1]) {
            objective[1] = objective[0];
            memcpy(best, assign, (size_t)n * sizeof *best);
        }
        stats[1] = moved == 0;
    }
    if (!stats[1] && stats[0] < c->max_passes)
        return; /* out of slots */
    set_sums(c, best, sizes, gbar, rows);
    objective[2] = 0.0;
    for (int64_t s = 0; s < k; s++)
        objective[2] += gbar[s] / (double)sizes[s];
}

static void restart_part(void *context, int64_t t)
{
    const struct restart_job *c = context;
    for (int64_t r = t; r < c->count; r += c->threads)
        run_restart(c, r);
}

/* count restarts of the engine on the measure whose stored values are
 * data[p] * sign, restart r on its own rows of every array (assign, best:
 * n; sizes, gbar: k; rows: n * k; moves, history: cap; stats: 4;
 * objective: 3), so that each runs on a thread of its own, up to
 * KSETS_MAX_PARTS threads. assign holds each start and ends as the last
 * pass's partition, best as the partition of the highest objective seen.
 * stats is (passes, converged, ops_delta, ops_update), zeroed by the
 * caller before the first call, and objective (last pass, best pass,
 * objective_value of best); moves and history get each pass's move count
 * and objective. One restart splits its table scatters into parts; more
 * restarts run every scan of a restart as one part. */
void ksets_restarts(int64_t n, int64_t k, const int64_t *indptr,
                    const int64_t *indices, const double *data,
                    const double *diag, double sign, int64_t count,
                    int64_t parts, int64_t max_passes, int64_t cap,
                    int64_t *assign, int64_t *best, int64_t *sizes,
                    double *gbar, double *rows, int64_t *moves,
                    double *history, int64_t *stats, double *objective)
{
    struct restart_job job = {n, k, count, clamp_parts(count),
                              count == 1 ? clamp_parts(parts) : 1,
                              max_passes, cap, indptr, indices, data, diag,
                              sign, assign, best, sizes, moves, stats, gbar,
                              rows, history, objective};
    run_parts(job.threads, restart_part, &job);
}

/* A hint to fetch the cache line at p for writing, where the compiler has
 * the builtin; it never faults. */
#if defined(__GNUC__)
#define KSETS_PREFETCH_WRITE(p) __builtin_prefetch((p), 1)
#else
#define KSETS_PREFETCH_WRITE(p) ((void)(p))
#endif

/* Sift key[r], with its value, down the max-heap key[0 .. d). */
static void sift_down(int64_t *key, double *value, int64_t r, int64_t d)
{
    int64_t k = key[r];
    double v = value[r];
    for (int64_t c; (c = 2 * r + 1) < d; r = c) {
        if (c + 1 < d && key[c + 1] > key[c])
            c++;
        if (key[c] <= k)
            break;
        key[r] = key[c];
        value[r] = value[c];
    }
    key[r] = k;
    value[r] = v;
}

/* Sort a row's d keys, and its values with them, by key, in place:
 * insertion sort up to 16, for the short rows of a sparse measure, and
 * heapsort above, O(d log d) on any order (a star's hub). The heapsort's
 * inline compares made it 2-3 times as fast as qsort's callbacks on rows of
 * 17-512 ids (2-vCPU Xeon). Equal keys may end in any order. */
static void sort_row(int64_t *key, double *value, int64_t d)
{
    if (d > 16) {
        for (int64_t r = d / 2; r-- > 0;)
            sift_down(key, value, r, d);
        for (int64_t end = d - 1; end > 0; end--) {
            int64_t k = key[0];
            double v = value[0];
            key[0] = key[end];
            value[0] = value[end];
            key[end] = k;
            value[end] = v;
            sift_down(key, value, 0, end);
        }
        return;
    }
    for (int64_t p = 1; p < d; p++) {
        int64_t k = key[p];
        double v = value[p];
        int64_t q = p;
        for (; q > 0 && key[q - 1] > k; q--) {
            key[q] = key[q - 1];
            value[q] = value[q - 1];
        }
        key[q] = k;
        value[q] = v;
    }
}

/* The CSR arrays of count (i, j, v) triples, row-major (count, 3), built in
 * place in the result's own arrays, without a global sort: check every
 * triple's indices and count the degrees of both orientations into indptr
 * (zeroed, n + 1 long), scatter every orientation's key (column * 2 + flag)
 * and value into its row of indices and data (room for 2 * count each),
 * then sort, check and compact each row in place, allocating nothing.
 *
 * An index must be integer-valued (NaN is not) and in [0, n). Returns -3
 * when any index is not an integer, else -4 when one is outside [0, n),
 * with values[0] the first such triple's i if i is outside, else its j.
 *
 * Row r's entries from its diagonal onward are the pairs (r, c), c >= r, in
 * (lo, hi, orientation) order, flag 0 being the triple (r, c) and flag 1 the
 * triple (c, r), so scanning rows in order finds the first repeated
 * orientation and the first conflicting mirror in the reference's key
 * order. Returns m, with row r's columns and values in indices and data
 * [indptr[r] .. indptr[r + 1]); -1 when a triple (pair[0], pair[1]) is
 * given twice; -2 when the pair (lo, hi) = pair is given as (lo, hi) with
 * values[0] and as (hi, lo) with values[1], unequal and not both NaN. Index
 * errors are reported before repeats, and repeats before conflicts. The
 * sort may leave a repeated key's twins in either order; a repeat reports
 * only its key.
 * Compaction keeps one entry per mirrored pair and drops exact zeros; NaNs
 * stay for the measure's constructor to reject. */
int64_t ksets_build(int64_t n, int64_t count, const double *triples,
                    int64_t *indptr, int64_t *indices, double *data,
                    int64_t *pair, double *values)
{
    double top = (double)n;
    int64_t outside = 0;
    for (int64_t t = 0; t < count; t++) {
        double fi = triples[3 * t], fj = triples[3 * t + 1];
        if (fi != floor(fi) || fj != floor(fj))
            return -3;
        int in_i = fi >= 0.0 && fi < top, in_j = fj >= 0.0 && fj < top;
        if (!in_i || !in_j) {
            if (!outside)
                values[0] = in_i ? fj : fi;
            outside = 1;
            continue;
        }
        int64_t i = (int64_t)fi, j = (int64_t)fj;
        indptr[i + 1]++;
        if (i != j)
            indptr[j + 1]++;
    }
    if (outside)
        return -4;
    for (int64_t r = 0; r < n; r++)
        indptr[r + 1] += indptr[r];
    /* indptr[r] is row r's fill cursor, and ends as the end of row r. Each
     * orientation is written to two arrays at its row's cursor, anywhere in
     * them, so the cursors of the triple 16 ahead are prefetched: without
     * it, this pass took twice as long on a 500k-triple edge list (2-vCPU
     * Xeon). */
    for (int64_t t = 0; t < count; t++) {
        if (t + 16 < count) {
            const double *ahead = triples + 3 * (t + 16);
            int64_t ai = (int64_t)ahead[0], aj = (int64_t)ahead[1];
            KSETS_PREFETCH_WRITE(indices + indptr[ai]);
            KSETS_PREFETCH_WRITE(data + indptr[ai]);
            KSETS_PREFETCH_WRITE(indices + indptr[aj]);
            KSETS_PREFETCH_WRITE(data + indptr[aj]);
        }
        int64_t i = (int64_t)triples[3 * t], j = (int64_t)triples[3 * t + 1];
        double v = triples[3 * t + 2];
        indices[indptr[i]] = 2 * j;
        data[indptr[i]++] = v;
        if (i != j) {
            indices[indptr[j]] = 2 * i + 1;
            data[indptr[j]++] = v;
        }
    }
    int64_t m = 0, start = 0, conflict = 0;
    for (int64_t r = 0; r < n; r++) {
        int64_t end = indptr[r], *key = indices + start;
        double *value = data + start;
        sort_row(key, value, end - start);
        for (int64_t p = 0; p + 1 < end - start; p++) {
            int64_t a = key[p], b = key[p + 1];
            if (a < 2 * r)
                continue;
            if (a == b) {
                pair[0] = a & 1 ? a >> 1 : r;
                pair[1] = a & 1 ? r : a >> 1;
                return -1;
            }
            if (!conflict && a >> 1 == b >> 1 && value[p] != value[p + 1]
                && !(isnan(value[p]) && isnan(value[p + 1]))) {
                conflict = 1;
                pair[0] = r;
                pair[1] = a >> 1;
                values[0] = value[p];
                values[1] = value[p + 1];
            }
        }
        /* Compacting row r writes only below its own start. */
        indptr[r] = m;
        for (int64_t p = start; p < end; p++) {
            int64_t k = indices[p];
            double v = data[p];
            if (p + 1 < end && indices[p + 1] >> 1 == k >> 1)
                p++; /* the pair's other orientation, equal once checked */
            if (v != 0.0) {
                indices[m] = k >> 1;
                data[m++] = v;
            }
        }
        start = end;
    }
    indptr[n] = m;
    return conflict ? -2 : m;
}

struct check_job {
    int64_t n, parts;
    const int64_t *indptr, *indices;
    const double *data;
    double *diag;
    int64_t found[KSETS_MAX_PARTS][5]; /* each part's out */
};

static void check_rows(void *context, int64_t t)
{
    struct check_job *c = context;
    int64_t n = c->n, *found = c->found[t];
    int64_t lo = entry_split(c->indptr, n, t, c->parts);
    int64_t hi = entry_split(c->indptr, n, t + 1, c->parts);
    int64_t outside = 0, unordered = 0, non_finite = -1, negative = -1;
    int64_t self_row = -1;
    for (int64_t r = lo; r < hi; r++) {
        double own = 0.0;
        /* A column at or below -1 is outside, which is reported first. */
        int64_t previous = -1;
        for (int64_t p = c->indptr[r]; p < c->indptr[r + 1]; p++) {
            int64_t col = c->indices[p];
            double v = c->data[p];
            outside |= (uint64_t)col >= (uint64_t)n;
            unordered |= col <= previous;
            previous = col;
            if (non_finite < 0 && !isfinite(v))
                non_finite = p;
            if (negative < 0 && v < 0.0)
                negative = p;
            if (col == r)
                own = v;
        }
        c->diag[r] = own;
        if (self_row < 0 && own != 0.0)
            self_row = r;
    }
    found[0] = outside;
    found[1] = unordered;
    found[2] = non_finite;
    found[3] = negative;
    found[4] = self_row;
}

/* The measure constructor's checks of CSR arrays over n points, in one scan,
 * the twin of ksetsplus.measure._check_reference; the caller has checked
 * that indptr[0] == 0 and that indices and data hold m = indptr[n] entries.
 * Returns -1, before it reads any row, when indptr decreases or passes m.
 * Otherwise returns 0 with diag[r] row r's stored diagonal value (0.0 when
 * unstored) and out the findings, -1 meaning none: out[0] 1 if a column is
 * outside [0, n), out[1] 1 if a row's columns do not increase strictly,
 * out[2] the first non-finite entry, out[3] the first negative entry and
 * out[4] the first row with a nonzero stored diagonal value. The parts
 * hold about equal entry counts; their flags are ORed, and the first part
 * with a finding gives each first. */
int64_t ksets_check(int64_t n, const int64_t *indptr, const int64_t *indices,
                    const double *data, double *diag, int64_t *out,
                    int64_t parts)
{
    int64_t m = indptr[n];
    for (int64_t r = 0; r < n; r++)
        if (indptr[r + 1] < indptr[r] || indptr[r + 1] > m)
            return -1;
    struct check_job job = {n, clamp_parts(parts), indptr, indices, data, diag,
                            {{0}}};
    run_parts(job.parts, check_rows, &job);
    out[0] = out[1] = 0;
    out[2] = out[3] = out[4] = -1;
    for (int64_t t = 0; t < job.parts; t++) {
        const int64_t *found = job.found[t];
        out[0] |= found[0];
        out[1] |= found[1];
        for (int f = 2; f < 5; f++)
            if (out[f] < 0)
                out[f] = found[f];
    }
    return 0;
}

/* The CSR arrays of the nonzeros of the C-contiguous n-by-n table a, built
 * in a itself, which becomes the data array, on the calling thread. A call
 * with cap 0 sizes them: it counts each row's nonzeros into indptr (n + 1)
 * and returns m. With mean it first sets each of row i's cells (i, j >= i)
 * and its mirror to (a[i][j] + a[j][i]) / 2.0, numpy's operation order, so
 * an overflow gives inf and inf + -inf gives nan as (a + a.T) / 2.0 does
 * (the diagonal too: (a[i][i] + a[i][i]) / 2.0); the cells (i, j < i) were
 * set by the rows before, so row i is final when it is counted. A second
 * call with cap m moves the nonzeros to the front of a in row-major order,
 * each with its column in indices (room for cap): every write lands at or
 * below the cell it reads. Exact zeros of either sign are dropped; NaNs
 * stay for the measure's constructor to reject. */
int64_t ksets_dense(int64_t n, double *a, int64_t mean, int64_t cap,
                    int64_t *indptr, int64_t *indices)
{
    int64_t q = 0;
    if (cap) {
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = 0; j < n && q < cap; j++)
                if (a[i * n + j] != 0.0) {
                    indices[q] = j;
                    a[q++] = a[i * n + j];
                }
        return q;
    }
    indptr[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        double *row = a + i * n;
        if (mean)
            for (int64_t j = i; j < n; j++) {
                /* Two stores, not a chained assignment: at j = i they are
                 * the same cell, which C may not write twice unsequenced. */
                double v = (row[j] + a[j * n + i]) / 2.0;
                row[j] = v;
                a[j * n + i] = v;
            }
        for (int64_t j = 0; j < n; j++)
            q += row[j] != 0.0;
        indptr[i + 1] = q;
    }
    return q;
}

/* The index of the lowest set bit of a nonzero word, where the compiler has
 * the builtin; a shift loop otherwise. */
#if defined(__GNUC__)
#define KSETS_LOWEST_BIT(w) __builtin_ctzll(w)
#else
static int64_t lowest_bit(uint64_t w)
{
    int64_t b = 0;
    for (; !(w & 1); w >>= 1)
        b++;
    return b;
}
#define KSETS_LOWEST_BIT(w) lowest_bit(w)
#endif

/* The similarity A + 0.5 A^2 of count signed edges (edge_i[e], edge_j[e],
 * sign[e]) over n points, the twin of
 * ksetsplus.experiments._similarity_from_signed_reference. A counting sort
 * over both orientations of every edge (a self loop gives two) builds the
 * adjacency; then, row by row, every step r -> t adds sign to acc[t] and
 * every walk r -> t -> u adds 0.5 * sign(r, t) * sign(t, u) to acc[u], in a
 * dense accumulator whose touched columns mark[] lists once per row
 * (Gustavson's row-wise product). Exact zeros are dropped. The terms are
 * multiples of 0.5 from integer signs, so every sum is exact in any order.
 *
 * A row's d touched columns are collected in indices from the row's offset
 * m, as scratch: the caller's sizing of indices and data, a bound on the
 * touched columns of all rows, bounds m + d. They are put in increasing
 * order there: by a scan of a bitmap of the n columns when d > 16 and
 * d * 1024 >= n, at most 16 words a column, which took less time than a
 * heapsort's log d compares; otherwise, where the scan's n / 64 words a row
 * would cost O(n^2) in all, by sort_row, each column's sum gathered beside
 * it in data first. Each nonzero sum is then kept in that order, compacted
 * in place with its value in data. Returns m, with indptr (n + 1), indices and
 * data holding the CSR arrays, or -1 when the scratch (the adjacency and
 * the per-point acc, mark and bitmap) cannot be allocated. */
int64_t ksets_two_step(int64_t n, int64_t count, const int64_t *edge_i,
                       const int64_t *edge_j, const double *sign,
                       int64_t *indptr, int64_t *indices, double *data)
{
    int64_t words = (n + 63) / 64;
    int64_t *start = calloc((size_t)n + 1, sizeof *start);
    int64_t *adj = malloc(((size_t)(2 * count) + 1) * sizeof *adj);
    double *adj_sign = malloc(((size_t)(2 * count) + 1) * sizeof *adj_sign);
    double *acc = calloc((size_t)n, sizeof *acc);
    int64_t *mark = malloc((size_t)n * sizeof *mark);
    uint64_t *bits = calloc((size_t)words, sizeof *bits);
    int64_t m = -1;
    if (!start || !adj || !adj_sign || !acc || !mark || !bits)
        goto done;
    indptr[0] = 0;
    for (int64_t e = 0; e < count; e++) {
        start[edge_i[e] + 1]++;
        start[edge_j[e] + 1]++;
    }
    for (int64_t r = 0; r < n; r++)
        start[r + 1] += start[r];
    /* mark[r] is row r's fill cursor here. */
    memcpy(mark, start, (size_t)n * sizeof *mark);
    for (int64_t e = 0; e < count; e++) {
        int64_t i = edge_i[e], j = edge_j[e];
        adj[mark[i]] = j;
        adj_sign[mark[i]++] = sign[e];
        adj[mark[j]] = i;
        adj_sign[mark[j]++] = sign[e];
    }
    for (int64_t r = 0; r < n; r++)
        mark[r] = -1;
    m = 0;
    for (int64_t r = 0; r < n; r++) {
        int64_t end = m;
        for (int64_t p = start[r]; p < start[r + 1]; p++) {
            int64_t t = adj[p];
            double half = 0.5 * adj_sign[p];
            if (mark[t] != r) {
                mark[t] = r;
                indices[end++] = t;
            }
            acc[t] += adj_sign[p];
            for (int64_t q = start[t]; q < start[t + 1]; q++) {
                int64_t u = adj[q];
                if (mark[u] != r) {
                    mark[u] = r;
                    indices[end++] = u;
                }
                acc[u] += half * adj_sign[q];
            }
        }
        if (end - m > 16 && (end - m) * 1024 >= n) {
            for (int64_t p = m; p < end; p++)
                bits[indices[p] >> 6] |= (uint64_t)1 << (indices[p] & 63);
            for (int64_t w = 0; w < words; w++) {
                for (uint64_t b = bits[w]; b; b &= b - 1) {
                    int64_t u = w * 64 + KSETS_LOWEST_BIT(b);
                    if (acc[u] != 0.0) {
                        indices[m] = u;
                        data[m++] = acc[u];
                    }
                    acc[u] = 0.0;
                }
                bits[w] = 0;
            }
        } else {
            for (int64_t p = m; p < end; p++) {
                data[p] = acc[indices[p]];
                acc[indices[p]] = 0.0;
            }
            sort_row(indices + m, data + m, end - m);
            for (int64_t p = m; p < end; p++) {
                if (data[p] != 0.0) {
                    indices[m] = indices[p];
                    data[m++] = data[p];
                }
            }
        }
        indptr[r + 1] = m;
    }
done:
    free(start);
    free(adj);
    free(adj_sign);
    free(acc);
    free(mark);
    free(bits);
    return m;
}

/* 10^0 .. 10^22, each exactly representable as a double. */
static const double ksets_pow10[23] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int is_digit(const unsigned char *p, const unsigned char *end)
{
    return p < end && (unsigned)(*p - '0') < 10;
}

static const unsigned char *skip_padding(const unsigned char *p,
                                         const unsigned char *end)
{
    while (p < end && (*p == ' ' || *p == '\t'))
        p++;
    return p;
}

/* One token [+-]?(digits[.digits?] | .digits)([eE][+-]?digits)? at p into
 * *value; the end of the token, or NULL when the token is malformed or its
 * value is outside Clinger's fast path: at most 19 digits, a mantissa of at
 * most 2^53 and a net power of ten in [-22, 22]. Inside it the mantissa and
 * the power are exact doubles, so one correctly rounded multiply or divide
 * gives the same bits as float(). */
static const unsigned char *read_number(const unsigned char *p,
                                        const unsigned char *end,
                                        double *value)
{
    int negative = p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    uint64_t mantissa = 0;
    int64_t digits = 0, scale = 0;
    for (; is_digit(p, end); p++, digits++)
        mantissa = mantissa * 10 + (*p - '0');
    if (p < end && *p == '.')
        for (p++; is_digit(p, end); p++, digits++, scale--)
            mantissa = mantissa * 10 + (*p - '0');
    if (digits == 0)
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        int minus = p < end && *p == '-';
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if (!is_digit(p, end))
            return NULL;
        int64_t exponent = 0;
        for (; is_digit(p, end); p++)
            if (exponent < 1000)
                exponent = exponent * 10 + (*p - '0');
        scale += minus ? -exponent : exponent;
    }
    if (digits > 19 || mantissa > (UINT64_C(1) << 53) || scale < -22 || scale > 22)
        return NULL;
    double v = (double)mantissa;
    v = scale < 0 ? v / ksets_pow10[-scale] : v * ksets_pow10[scale];
    *value = negative ? -v : v;
    return p;
}

/* Past a CRLF or LF line end at p (or at EOF); NULL for anything else. */
static const unsigned char *end_line(const unsigned char *p,
                                     const unsigned char *end)
{
    if (p == end)
        return p;
    if (*p == '\n')
        return p + 1;
    if (*p == '\r' && p + 1 < end && p[1] == '\n')
        return p + 2;
    return NULL;
}

/* Past the rest of a comment at p: printable ASCII or tabs up to the line
 * end, which is left for end_line; NULL at any other byte. */
static const unsigned char *skip_comment(const unsigned char *p,
                                         const unsigned char *end)
{
    for (; p < end && *p != '\n' && *p != '\r'; p++)
        if ((*p < 0x20 || *p > 0x7e) && *p != '\t')
            return NULL;
    return p;
}

/* LF bytes in [p, end): 64 bytes at a time into a byte-wide count, a
 * loop that compilers vectorize, then the rest one by one. */
static int64_t count_lines(const unsigned char *p, const unsigned char *end)
{
    int64_t lines = 0;
    for (; end - p >= 64; p += 64) {
        unsigned char block = 0;
        for (int i = 0; i < 64; i++)
            block += p[i] == '\n';
        lines += block;
    }
    for (; p < end; p++)
        lines += *p == '\n';
    return lines;
}

/* One part of a text split at line starts, and what read_rows found in it:
 * its values go to out (room for room), and every row must have cols
 * cells, or with cols -1 as many as the first row, which sets cols. */
struct read_part {
    const unsigned char *begin, *end;
    int64_t lines; /* LF bytes in [begin, end) */
    double *out;
    int64_t base, room; /* out is the table plus base */
    int64_t cols, rows, count, declined;
};

/* Read the lines of part until its end or its max_rows-th row: count its
 * rows and values, and write the values while they fit in its room. At the
 * max_rows-th row, begin moves to the start of that row's line. */
static void read_rows(struct read_part *part, int64_t dense, int64_t max_rows)
{
    const unsigned char *p = part->begin, *end = part->end;
    while (p < end) {
        const unsigned char *line = p;
        p = skip_padding(p, end);
        if (p < end && *p == '#') {
            if (dense && p != line)
                goto decline; /* loadtxt reads an indented comment as a row */
            p = skip_comment(p, end);
        } else if (p < end && *p != '\n' && *p != '\r') {
            int64_t fields = 0;
            for (;;) {
                double value;
                const unsigned char *token_end = read_number(p, end, &value);
                if (!token_end)
                    goto decline;
                if (part->count < part->room)
                    part->out[part->count] = value;
                part->count++;
                fields++;
                p = skip_padding(token_end, end);
                if (p == end || *p == '\n' || *p == '\r')
                    break;
                if (dense) {
                    if (*p != ',')
                        goto decline;
                    p = skip_padding(p + 1, end);
                } else if (*p == '#') {
                    p = skip_comment(p, end);
                    break;
                } else if (p == token_end) {
                    goto decline; /* the token runs on, as in 1.5.2 or 0x10 */
                }
            }
            if (part->cols < 0)
                part->cols = fields;
            else if (fields != part->cols)
                goto decline;
            if (++part->rows == max_rows) {
                part->begin = line;
                return;
            }
        }
        if (!p || !(p = end_line(p, end)))
            goto decline;
    }
    return;
decline:
    part->declined = 1;
}

struct read_job {
    int64_t dense;
    struct read_part part[KSETS_MAX_PARTS];
};

static void count_part(void *context, int64_t t)
{
    struct read_part *part = &((struct read_job *)context)->part[t];
    part->lines = count_lines(part->begin, part->end);
}

static void read_part(void *context, int64_t t)
{
    struct read_job *job = context;
    read_rows(&job->part[t], job->dense, INT64_MAX);
}

/* min(a * b, limit) for a >= 0, b >= 1 and limit >= 0, without overflow. */
static int64_t product_below(int64_t a, int64_t b, int64_t limit)
{
    return a > limit / b ? limit : a * b;
}

/* Read a numeric text table, the twin of io._read_loadtxt, row-major into
 * out (room for cap values): an edge list (dense == 0; cells separated by
 * spaces or tabs, '#' starts a comment anywhere) or a dense CSV (cells
 * separated by commas with optional space or tab padding, '#' only at the
 * start of a line), after the first skip lines. Blank and comment lines are
 * skipped, lines end in LF or CRLF, and every row has the same cell count.
 *
 * Returns 0 with shape = (rows, cols) once every row is in out, or -1 when
 * the text is outside this grammar, has no rows or does not fit, so that
 * the caller runs np.loadtxt instead. With cap 0 only the first row is
 * read, and shape receives (lines, cols): the line count, which bounds the
 * row count, and the first row's cell count.
 *
 * Both calls split the text from the first row's line at line starts into
 * parts of about equal bytes and count each part's LF bytes at once. The
 * second call then reads the parts at once, part t writing at
 * min(cols * (LF bytes before it), (its offset in the text) / 2), a bound
 * on the values before it, since every value but the text's last is
 * followed by at least one byte; one memmove per part then closes the gaps
 * that comment and blank lines leave. When every row has cols cells, each
 * part fits below the next part's start and the whole below
 * min(lines * cols, (size + 1) / 2), the caller's bound on the values, so
 * a cap below that bound reads the text as one part, where a gap could
 * otherwise push the table past cap. */
int64_t ksets_read(const char *text, int64_t size, int64_t skip, int64_t dense,
                   double *out, int64_t cap, int64_t *shape, int64_t parts)
{
    const unsigned char *start = (const unsigned char *)text, *end = start + size;
    const unsigned char *p = start;
    int64_t lines = 1;
    /* The header lines; csv.reader would also end a line at a lone CR. */
    for (; skip > 0 && p < end; p++) {
        if (*p == '\r' && (p + 1 == end || p[1] != '\n'))
            return -1;
        if (*p == '\n') {
            skip--;
            lines++;
        }
    }
    struct read_part first = {.begin = p, .end = end, .cols = -1};
    read_rows(&first, dense, 1);
    if (first.declined || first.rows == 0)
        return -1;
    /* The split starts at the first row, so that the comment and blank lines
     * before it, such as an edge list's header comment, leave no gap. */
    int64_t cols = first.cols;
    lines += count_lines(p, first.begin);
    p = first.begin;
    struct read_job job = {dense, {{0}}};
    parts = clamp_parts(parts);
    job.part[0].begin = p;
    for (int64_t t = 1; t < parts; t++) {
        const unsigned char *at = p + (end - p) * t / parts;
        if (at < job.part[t - 1].begin)
            at = job.part[t - 1].begin;
        const unsigned char *lf = memchr(at, '\n', (size_t)(end - at));
        job.part[t].begin = job.part[t - 1].end = lf ? lf + 1 : end;
    }
    job.part[parts - 1].end = end;
    run_parts(parts, count_part, &job);
    for (int64_t t = 0; t < parts; t++)
        lines += job.part[t].lines;
    if (cap == 0) {
        shape[0] = lines;
        shape[1] = cols;
        return 0;
    }
    if (cap < product_below(lines, cols, (size + 1) / 2)) {
        job.part[0].end = end;
        parts = 1;
    }
    int64_t before = 0;
    for (int64_t t = 0; t < parts; t++) {
        struct read_part *part = &job.part[t];
        part->base = product_below(before, cols, (part->begin - start) / 2);
        part->out = out + part->base;
        part->cols = cols;
        before += part->lines;
    }
    /* A part that ends at the text's end (the later ones are empty) may
     * end in a row with no LF, so it has the rest of out. */
    for (int64_t t = 0; t < parts; t++) {
        struct read_part *part = &job.part[t];
        part->room = (part->end < end ? job.part[t + 1].base : cap) - part->base;
    }
    run_parts(parts, read_part, &job);
    int64_t rows = 0, count = 0;
    for (int64_t t = 0; t < parts; t++)
        if (job.part[t].declined || job.part[t].count > job.part[t].room)
            return -1;
    for (int64_t t = 0; t < parts; t++) {
        const struct read_part *part = &job.part[t];
        if (part->base != count)
            memmove(out + count, part->out, (size_t)part->count * sizeof *out);
        count += part->count;
        rows += part->rows;
    }
    shape[0] = rows;
    shape[1] = cols;
    return 0;
}

/* "00" "01" .. "99": two digits per division by 100. */
static const char ksets_digit_pairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of v. */
static int64_t digit_count(uint64_t v)
{
    int64_t count = 1;
    for (; v >= 100; v /= 100)
        count += 2;
    return count + (v >= 10);
}

/* Partition text for the ids of points 0 .. n - 1 into out (room for cap
 * bytes), the twin of ksetsplus.io._write_lines with "%s\t%s\n": line i is
 * i, a tab, ids[i] and '\n'. A negative id is '-' and its magnitude negated
 * as uint64_t, so INT64_MIN too. Returns the byte count, or -1, having
 * filled out only in part, when the text does not fit in cap. */
int64_t ksets_format(int64_t n, const int64_t *ids, char *out, int64_t cap)
{
    int64_t size = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t cell[2] = {i, ids[i]};
        for (int c = 0; c < 2; c++) {
            int64_t v = cell[c];
            uint64_t magnitude = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
            int64_t width = (v < 0) + digit_count(magnitude);
            if (width + 1 > cap - size)
                return -1;
            if (v < 0)
                out[size] = '-';
            char *p = out + size + width; /* past the last digit */
            for (; magnitude >= 100; magnitude /= 100) {
                p -= 2;
                memcpy(p, ksets_digit_pairs + 2 * (magnitude % 100), 2);
            }
            if (magnitude >= 10)
                memcpy(p - 2, ksets_digit_pairs + 2 * magnitude, 2);
            else
                p[-1] = (char)('0' + magnitude);
            size += width;
            out[size++] = c ? '\n' : '\t';
        }
    }
    return size;
}

/* numpy's Generator(PCG64).random() stream (O'Neill 2014): each draw steps
 * the 128-bit LCG state = a * state + inc, outputs the XSL-RR word x of the
 * new state and gives the double (x >> 11) * 2^-53. */
#if defined(__SIZEOF_INT128__)
__extension__ typedef unsigned __int128 ksets_u128;

#define KSETS_PCG_MULT \
    (((ksets_u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

static uint64_t pcg_output(ksets_u128 state)
{
    uint64_t word = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return (word >> rot) | (word << ((0u - rot) & 63u));
}

/* Appends g to out when the draw of word x falls below limit / 2^53;
 * returns 0 when that would pass cap. */
static int keep_draw(uint64_t x, uint64_t limit, int64_t g, int64_t *out,
                     int64_t *kept, int64_t cap)
{
    if (x >> 11 >= limit)
        return 1;
    if (*kept == cap)
        return 0;
    out[(*kept)++] = g;
    return 1;
}
#endif

/* The positions g, in order, of the draws of numpy's Generator(PCG64)
 * random() stream from pcg = (state high, state low, inc high, inc low)
 * that fall below their segment's probability, the twin of
 * ksetsplus.experiments._kept_draws: the stream's draws are the segments'
 * counts in order, and draw g of segment s is kept when its double is
 * below probs[s]. Four lanes hold the states of draws g .. g + 3 and step
 * 4 draws at a time, state -> a^4 state + (a^3 + a^2 + a + 1) inc, so that
 * their multiplies overlap (1.3x faster than one state on an x86-64 Xeon).
 * Returns the kept count, or -1 when it would pass cap or the compiler has
 * no 128-bit integer type; the state is the caller's and is not advanced. */
int64_t ksets_draws(const uint64_t *pcg, int64_t segments,
                    const int64_t *counts, const double *probs, int64_t cap,
                    int64_t *out)
{
#if defined(__SIZEOF_INT128__)
    ksets_u128 inc = (ksets_u128)pcg[2] << 64 | pcg[3], a = KSETS_PCG_MULT;
    ksets_u128 mult4 = a * a * a * a, plus4 = (a * a + 1) * (a + 1) * inc;
    ksets_u128 next = a * ((ksets_u128)pcg[0] << 64 | pcg[1]) + inc;
    int64_t kept = 0, g = 0;
    for (int64_t seg = 0; seg < segments; seg++) {
        int64_t stop = g + counts[seg];
        double p = probs[seg];
        /* (x >> 11) * 2^-53 < p, with both sides exact, as an integer test;
         * a NaN keeps nothing, as in numpy. */
        uint64_t limit = !(p > 0.0)  ? 0
                         : p >= 1.0 ? (uint64_t)1 << 53
                                    : (uint64_t)ceil(p * 0x1p53);
        ksets_u128 l0 = next, l1 = a * l0 + inc, l2 = a * l1 + inc;
        ksets_u128 l3 = a * l2 + inc;
        for (; g + 4 <= stop; g += 4) {
            uint64_t x0 = pcg_output(l0), x1 = pcg_output(l1);
            uint64_t x2 = pcg_output(l2), x3 = pcg_output(l3);
            l0 = mult4 * l0 + plus4;
            l1 = mult4 * l1 + plus4;
            l2 = mult4 * l2 + plus4;
            l3 = mult4 * l3 + plus4;
            /* One branch for four draws, which rarely keep any. */
            if ((x0 >> 11 < limit) | (x1 >> 11 < limit) | (x2 >> 11 < limit) |
                (x3 >> 11 < limit))
                if (!(keep_draw(x0, limit, g, out, &kept, cap) &&
                      keep_draw(x1, limit, g + 1, out, &kept, cap) &&
                      keep_draw(x2, limit, g + 2, out, &kept, cap) &&
                      keep_draw(x3, limit, g + 3, out, &kept, cap)))
                    return -1;
        }
        for (; g < stop; g++, l0 = a * l0 + inc) /* at most 3 draws */
            if (!keep_draw(pcg_output(l0), limit, g, out, &kept, cap))
                return -1;
        next = l0;
    }
    return kept;
#else
    (void)pcg, (void)segments, (void)counts, (void)probs, (void)cap;
    (void)out;
    return -1;
#endif
}
