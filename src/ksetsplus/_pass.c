/* The four compiled routines of ksetsplus: the K-sets+ kernels over a CSR
 * measure, the twins of ksetsplus.engine._run_pass_reference and
 * _point_to_set_reference; the CSR build ksets_build, the twin of
 * ksetsplus.measure._build_from_triples_reference; and the text reader
 * ksets_read, the twin of ksetsplus.io._read_loadtxt.
 *
 * Every expression keeps the reference's operation order and int-to-double
 * conversions, and the build passes -ffp-contract=off, so moves, tables and
 * sums match the numpy and Python code bit for bit. The callers check that
 * assign covers the measure's n points with set indices in [0, k), and that
 * every triple's indices are integers in [0, n).
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

/* One orientation of a triple in its row: key is column * 2 + flag, where
 * flag 1 marks the mirror of a triple (j, i, v) into row i. */
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

/* Sort a row by key: insertion sort for the short rows of a sparse measure,
 * qsort's O(d log d) for long ones (a star's hub). */
static void sort_row(struct ksets_entry *row, int64_t d)
{
    if (d > 16) {
        qsort(row, (size_t)d, sizeof *row, compare_keys);
        return;
    }
    for (int64_t p = 1; p < d; p++) {
        struct ksets_entry e = row[p];
        int64_t q = p;
        for (; q > 0 && row[q - 1].key > e.key; q--)
            row[q] = row[q - 1];
        row[q] = e;
    }
}

/* The CSR arrays of count (i, j, v) triples, row-major (count, 3), without
 * a global sort: count the degrees of both orientations into indptr (zeroed,
 * n + 1 long), scatter every orientation into its row of entries (room for
 * 2 * count), then sort, check and compact each row in place.
 *
 * Row r's entries from its diagonal onward are the pairs (r, c), c >= r, in
 * (lo, hi, orientation) order, flag 0 being the triple (r, c) and flag 1 the
 * triple (c, r), so scanning rows in order finds the first repeated
 * orientation and the first conflicting mirror in the reference's key
 * order. Returns m, with row r's columns and values in entries[indptr[r] ..
 * indptr[r + 1]) as (column, value); -1 when a triple (pair[0], pair[1]) is
 * given twice; or -2 when the pair (lo, hi) = pair is given as (lo, hi)
 * with values[0] and as (hi, lo) with values[1], unequal and not both NaN.
 * Repeats are reported before conflicts. Compaction keeps one entry per
 * mirrored pair and drops exact zeros; NaNs stay for the measure's
 * constructor to reject. */
int64_t ksets_build(int64_t n, int64_t count, const double *triples,
                    int64_t *indptr, struct ksets_entry *entries,
                    int64_t *pair, double *values)
{
    for (int64_t t = 0; t < count; t++) {
        int64_t i = (int64_t)triples[3 * t], j = (int64_t)triples[3 * t + 1];
        indptr[i + 1]++;
        if (i != j)
            indptr[j + 1]++;
    }
    for (int64_t r = 0; r < n; r++)
        indptr[r + 1] += indptr[r];
    /* indptr[r] is row r's fill cursor, and ends as the end of row r. */
    for (int64_t t = 0; t < count; t++) {
        int64_t i = (int64_t)triples[3 * t], j = (int64_t)triples[3 * t + 1];
        double v = triples[3 * t + 2];
        entries[indptr[i]].key = 2 * j;
        entries[indptr[i]++].value = v;
        if (i != j) {
            entries[indptr[j]].key = 2 * i + 1;
            entries[indptr[j]++].value = v;
        }
    }
    int64_t m = 0, start = 0, conflict = 0;
    for (int64_t r = 0; r < n; r++) {
        int64_t end = indptr[r];
        struct ksets_entry *row = entries + start;
        sort_row(row, end - start);
        for (int64_t p = 0; p + 1 < end - start; p++) {
            struct ksets_entry a = row[p], b = row[p + 1];
            if (a.key < 2 * r)
                continue;
            if (a.key == b.key) {
                pair[0] = a.key & 1 ? a.key >> 1 : r;
                pair[1] = a.key & 1 ? r : a.key >> 1;
                return -1;
            }
            if (!conflict && a.key >> 1 == b.key >> 1 && a.value != b.value
                && !(isnan(a.value) && isnan(b.value))) {
                conflict = 1;
                pair[0] = r;
                pair[1] = a.key >> 1;
                values[0] = a.value;
                values[1] = b.value;
            }
        }
        /* Compacting row r writes only below its own start. */
        indptr[r] = m;
        for (int64_t p = start; p < end; p++) {
            struct ksets_entry e = entries[p];
            if (p + 1 < end && entries[p + 1].key >> 1 == e.key >> 1)
                p++; /* the pair's other orientation, equal once checked */
            if (e.value != 0.0) {
                entries[m].key = e.key >> 1;
                entries[m++].value = e.value;
            }
        }
        start = end;
    }
    indptr[n] = m;
    return conflict ? -2 : m;
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
