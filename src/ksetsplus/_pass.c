/* The seven compiled routines of ksetsplus: the K-sets+ kernels over a CSR
 * measure, the twins of ksetsplus.engine._run_pass_reference and
 * _point_to_set_reference; the CSR builds ksets_build, the twin of
 * ksetsplus.measure._build_from_triples_reference, which works in the
 * result's own arrays, and ksets_dense, the twin of
 * ksetsplus.measure._from_dense_reference; the measure constructor's checks
 * ksets_check, the twin of ksetsplus.measure._check_reference; the signed
 * benchmark's similarity ksets_two_step, the twin of
 * ksetsplus.experiments._similarity_from_signed_reference; and the text
 * reader ksets_read, the twin of ksetsplus.io._read_loadtxt.
 *
 * Every expression keeps the reference's operation order and int-to-double
 * conversions, and the build passes -ffp-contract=off, so moves, tables and
 * sums match the numpy and Python code bit for bit. The callers check that
 * assign covers the measure's n points with set indices in [0, k), that a
 * measure's CSR arrays passed ksets_check, and that every edge's endpoints
 * are integers in [0, n); ksets_build checks its triples' indices itself.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef KSETS_PASS_KEY
#define KSETS_PASS_KEY "unkeyed"
#endif
const char ksets_pass_key[] = "ksetsplus-pass-key:" KSETS_PASS_KEY;

/* One pass; returns its move count. rows is the n-by-k point-to-set table,
 * and ops receives the pass's (ops_delta, ops_update). A pass moves only the
 * point it visits, at most once, so a caller that wants the moves reads them
 * from the entries of assign that the pass changed. */
int64_t ksets_pass(int64_t n, int64_t k, const int64_t *indptr,
                   const int64_t *indices, const double *data,
                   const double *diag, int64_t *assign, int64_t *sizes,
                   double *gbar, double *rows, double *objective, int64_t *ops)
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
            rows[indices[p] * k + src] -= data[p];
        for (int64_t p = lo; p < hi; p++)
            rows[indices[p] * k + dst] += data[p];
        *objective += ((double)(sa - 1) * gbar[src]
                       + (double)(sb + 1) * gbar[dst]) - old;
        ops[1] += 2 * (hi - lo) + 6;
        moves++;
    }
    return moves;
}

/* out[r * k + assign[indices[p]]] += data[p] in entry order: the n-by-k
 * point-to-set table, in the order in which np.bincount adds the same
 * weights. */
void ksets_scatter(int64_t n, int64_t k, const int64_t *indptr,
                   const int64_t *indices, const double *data,
                   const int64_t *assign, double *out)
{
    for (int64_t r = 0; r < n; r++) {
        double *row = out + r * k;
        for (int64_t p = indptr[r]; p < indptr[r + 1]; p++)
            row[assign[indices[p]]] += data[p];
    }
}

/* A hint to fetch the cache line at p for writing, where the compiler has
 * the builtin; it never faults. */
#if defined(__GNUC__)
#define KSETS_PREFETCH_WRITE(p) __builtin_prefetch((p), 1)
#else
#define KSETS_PREFETCH_WRITE(p) ((void)(p))
#endif

/* One orientation of a triple in its row, in the scratch that qsort sorts a
 * long row in: key is column * 2 + flag, where flag 1 marks the mirror of a
 * triple (j, i, v) into row i. */
struct ksets_entry {
    int64_t key;
    double value;
};

static int compare_keys(const void *a, const void *b)
{
    int64_t x = ((const struct ksets_entry *)a)->key;
    int64_t y = ((const struct ksets_entry *)b)->key;
    return (x > y) - (x < y);
}

/* Sort a row's d keys, and its values with them, by key: insertion sort for
 * the short rows of a sparse measure, qsort's O(d log d) through scratch
 * (room for d entries) for long ones (a star's hub). */
static void sort_row(int64_t *key, double *value, int64_t d,
                     struct ksets_entry *scratch)
{
    if (d > 16) {
        for (int64_t p = 0; p < d; p++) {
            scratch[p].key = key[p];
            scratch[p].value = value[p];
        }
        qsort(scratch, (size_t)d, sizeof *scratch, compare_keys);
        for (int64_t p = 0; p < d; p++) {
            key[p] = scratch[p].key;
            value[p] = scratch[p].value;
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
 * (zeroed, n + 1 long), scatter every orientation's key and value into its
 * row of indices and data (room for 2 * count each), then sort, check and
 * compact each row in place.
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
 * values[0] and as (hi, lo) with values[1], unequal and not both NaN; or -5
 * when the scratch for a row longer than 16 cannot be allocated. Index
 * errors are reported before repeats, and repeats before conflicts.
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
    int64_t longest = 0;
    for (int64_t r = 0; r < n; r++) {
        if (indptr[r + 1] > longest)
            longest = indptr[r + 1];
        indptr[r + 1] += indptr[r];
    }
    struct ksets_entry *scratch = NULL;
    if (longest > 16 && !(scratch = malloc((size_t)longest * sizeof *scratch)))
        return -5;
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
        sort_row(key, value, end - start, scratch);
        for (int64_t p = 0; p + 1 < end - start; p++) {
            int64_t a = key[p], b = key[p + 1];
            if (a < 2 * r)
                continue;
            if (a == b) {
                pair[0] = a & 1 ? a >> 1 : r;
                pair[1] = a & 1 ? r : a >> 1;
                m = -1;
                goto done;
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
    if (conflict)
        m = -2;
done:
    free(scratch);
    return m;
}

/* The measure constructor's checks of CSR arrays over n points, in one scan,
 * the twin of ksetsplus.measure._check_reference; the caller has checked
 * that indptr[0] == 0 and that indices and data hold m = indptr[n] entries.
 * Returns -1, before it reads any row, when indptr decreases or passes m.
 * Otherwise returns 0 with diag[r] row r's stored diagonal value (0.0 when
 * unstored) and out the findings, -1 meaning none: out[0] 1 if a column is
 * outside [0, n), out[1] 1 if a row's columns do not increase strictly,
 * out[2] the first non-finite entry, out[3] the first negative entry and
 * out[4] the first row with a nonzero stored diagonal value. */
int64_t ksets_check(int64_t n, const int64_t *indptr, const int64_t *indices,
                    const double *data, double *diag, int64_t *out)
{
    int64_t m = indptr[n];
    for (int64_t r = 0; r < n; r++)
        if (indptr[r + 1] < indptr[r] || indptr[r + 1] > m)
            return -1;
    int64_t outside = 0, unordered = 0, non_finite = -1, negative = -1;
    int64_t self_row = -1;
    for (int64_t r = 0; r < n; r++) {
        double own = 0.0;
        /* A column at or below -1 is outside, which is reported first. */
        int64_t previous = -1;
        for (int64_t p = indptr[r]; p < indptr[r + 1]; p++) {
            int64_t c = indices[p];
            double v = data[p];
            outside |= (uint64_t)c >= (uint64_t)n;
            unordered |= c <= previous;
            previous = c;
            if (non_finite < 0 && !isfinite(v))
                non_finite = p;
            if (negative < 0 && v < 0.0)
                negative = p;
            if (c == r)
                own = v;
        }
        diag[r] = own;
        if (self_row < 0 && own != 0.0)
            self_row = r;
    }
    out[0] = outside;
    out[1] = unordered;
    out[2] = non_finite;
    out[3] = negative;
    out[4] = self_row;
    return 0;
}

/* The CSR arrays of the nonzeros of the C-contiguous n-by-n table a, read
 * row by row: a[i][j], or with mean (a[i][j] + a[j][i]) / 2.0, numpy's
 * operation order, so an overflow gives inf and inf + -inf gives nan as
 * (a + a.T) / 2.0 does. Exact zeros of either sign are dropped; NaNs stay
 * for the measure's constructor to reject. Fills indptr (n + 1) and
 * returns m, writing row i's columns and values to indices and data only
 * while they fit in cap entries: a call with cap 0 sizes the arrays, and a
 * second call with cap m fills them. */
int64_t ksets_dense(int64_t n, const double *a, int64_t mean, int64_t cap,
                    int64_t *indptr, int64_t *indices, double *data)
{
    int64_t m = 0;
    indptr[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = a + i * n;
        for (int64_t j = 0; j < n; j++) {
            double v = mean ? (row[j] + a[j * n + i]) / 2.0 : row[j];
            if (v == 0.0)
                continue;
            if (m < cap) {
                indices[m] = j;
                data[m] = v;
            }
            m++;
        }
        indptr[i + 1] = m;
    }
    return m;
}

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
 * The rows come out with their columns in touch order, into a scratch of
 * cap entries (the caller's bound on the stored entries). The result is
 * exactly symmetric, so its counting-sort transpose is itself with every
 * row's columns increasing: row c receives (r, value) for r = 0 .. n - 1,
 * and its length is the row's own. Returns m, with indptr (n + 1), indices
 * and data (room for cap) holding the CSR arrays, or -1 when the scratch
 * cannot be allocated. */
int64_t ksets_two_step(int64_t n, int64_t count, const int64_t *edge_i,
                       const int64_t *edge_j, const double *sign, int64_t cap,
                       int64_t *indptr, int64_t *indices, double *data)
{
    int64_t *start = calloc((size_t)n + 1, sizeof *start);
    int64_t *adj = malloc(((size_t)(2 * count) + 1) * sizeof *adj);
    double *adj_sign = malloc(((size_t)(2 * count) + 1) * sizeof *adj_sign);
    double *acc = calloc((size_t)n, sizeof *acc);
    int64_t *mark = malloc((size_t)n * sizeof *mark);
    int64_t *cols = malloc(((size_t)cap + 1) * sizeof *cols);
    double *vals = malloc(((size_t)cap + 1) * sizeof *vals);
    int64_t m = -1;
    if (!start || !adj || !adj_sign || !acc || !mark || !cols || !vals)
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
        int64_t first = m;
        for (int64_t p = start[r]; p < start[r + 1]; p++) {
            int64_t t = adj[p];
            double half = 0.5 * adj_sign[p];
            if (mark[t] != r) {
                mark[t] = r;
                cols[m++] = t;
            }
            acc[t] += adj_sign[p];
            for (int64_t q = start[t]; q < start[t + 1]; q++) {
                int64_t u = adj[q];
                if (mark[u] != r) {
                    mark[u] = r;
                    cols[m++] = u;
                }
                acc[u] += half * adj_sign[q];
            }
        }
        int64_t end = m;
        m = first;
        for (int64_t p = first; p < end; p++) {
            int64_t u = cols[p];
            if (acc[u] != 0.0) {
                cols[m] = u;
                vals[m++] = acc[u];
            }
            acc[u] = 0.0;
        }
        indptr[r + 1] = m;
    }
    /* mark[c] is row c's fill cursor in the transpose. */
    memcpy(mark, indptr, (size_t)n * sizeof *mark);
    for (int64_t r = 0; r < n; r++)
        for (int64_t p = indptr[r]; p < indptr[r + 1]; p++) {
            int64_t c = cols[p];
            indices[mark[c]] = r;
            data[mark[c]++] = vals[p];
        }
done:
    free(start);
    free(adj);
    free(adj_sign);
    free(acc);
    free(mark);
    free(cols);
    free(vals);
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
 * row count, and the first row's cell count. */
int64_t ksets_read(const char *text, int64_t size, int64_t skip, int64_t dense,
                   double *out, int64_t cap, int64_t *shape)
{
    const unsigned char *p = (const unsigned char *)text, *end = p + size;
    /* The header lines; csv.reader would also end a line at a lone CR. */
    for (; skip > 0 && p < end; p++) {
        if (*p == '\r' && (p + 1 == end || p[1] != '\n'))
            return -1;
        skip -= *p == '\n';
    }
    int64_t rows = 0, count = 0;
    while (p < end) {
        const unsigned char *line = p;
        p = skip_padding(p, end);
        if (p < end && *p == '#') {
            if (dense && p != line)
                return -1; /* loadtxt reads an indented comment as a row */
            p = skip_comment(p, end);
        } else if (p < end && *p != '\n' && *p != '\r') {
            int64_t fields = 0;
            for (;;) {
                double value;
                const unsigned char *token_end = read_number(p, end, &value);
                if (!token_end)
                    return -1;
                if (count < cap)
                    out[count] = value;
                count++;
                fields++;
                p = skip_padding(token_end, end);
                if (p == end || *p == '\n' || *p == '\r')
                    break;
                if (dense) {
                    if (*p != ',')
                        return -1;
                    p = skip_padding(p + 1, end);
                } else if (*p == '#') {
                    p = skip_comment(p, end);
                    break;
                } else if (p == token_end) {
                    return -1; /* the token runs on, as in 1.5.2 or 0x10 */
                }
            }
            if (rows == 0)
                shape[1] = fields;
            else if (fields != shape[1])
                return -1;
            rows++;
            if (count > cap) {
                if (cap > 0)
                    return -1;
                shape[0] = 1;
                for (const char *q = text; (q = memchr(q, '\n', text + size - q)); q++)
                    shape[0]++;
                return 0;
            }
        }
        if (!p || !(p = end_line(p, end)))
            return -1;
    }
    if (rows == 0)
        return -1;
    shape[0] = rows;
    return 0;
}
