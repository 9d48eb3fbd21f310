/* The compiled K-sets+ kernels over a CSR measure, the twins of
 * ksetsplus.engine._run_pass_reference, _point_to_set_reference and
 * _within_set_sums_reference and of verify._block_sums_reference.
 *
 * Every expression keeps the reference's operation order and int-to-double
 * conversions, and the build passes -ffp-contract=off, so moves, tables and
 * sums match the numpy and Python code bit for bit. The callers check that
 * assign covers the measure's n points with set indices in [0, k).
 */
#include <stdint.h>
#include <string.h>

#ifndef KSETS_PASS_KEY
#define KSETS_PASS_KEY "unkeyed"
#endif
const char ksets_pass_key[] = "ksetsplus-pass-key:" KSETS_PASS_KEY;

/* One pass. rows is the n-by-k point-to-set table, ops receives the pass's
 * (ops_delta, ops_update) and trace, when not NULL, receives (x, src, dst)
 * per move (room for 3n). */
int64_t ksets_pass(int64_t n, int64_t k, const int64_t *indptr,
                   const int64_t *indices, const double *data,
                   const double *diag, int64_t *assign, int64_t *sizes,
                   double *gbar, double *rows, double *objective,
                   int64_t *ops, int64_t *trace)
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
        if (trace) {
            trace[3 * moves] = x;
            trace[3 * moves + 1] = src;
            trace[3 * moves + 2] = dst;
        }
        moves++;
    }
    return moves;
}

/* out[key(r) * k + assign[indices[p]]] += data[p] in entry order, with
 * key(r) = r when key is NULL (the n-by-k point-to-set table) and
 * key(r) = key[r] otherwise (the k-by-k block sums for key = assign).
 * This is the order in which np.bincount adds the same weights. */
void ksets_scatter(int64_t n, int64_t k, const int64_t *indptr,
                   const int64_t *indices, const double *data,
                   const int64_t *assign, const int64_t *key, double *out)
{
    for (int64_t r = 0; r < n; r++) {
        double *row = out + (key ? key[r] : r) * k;
        for (int64_t p = indptr[r]; p < indptr[r + 1]; p++)
            row[assign[indices[p]]] += data[p];
    }
}

/* out[assign[r]] += (sum of row r's entries inside r's own set), the row
 * sums each in entry order, then added to their sets in row order.
 *
 * An entry outside the set adds +0.0 (its bits masked to zero) instead of
 * being skipped, which avoids a mispredicted branch per entry. That is
 * exact: a sum that starts at +0.0 never becomes -0.0, and x + 0.0 == x
 * for every other x. */
void ksets_within(int64_t n, const int64_t *indptr, const int64_t *indices,
                  const double *data, const int64_t *assign, double *out)
{
    for (int64_t r = 0; r < n; r++) {
        int64_t a = assign[r];
        double sum = 0.0;
        for (int64_t p = indptr[r]; p < indptr[r + 1]; p++) {
            uint64_t bits;
            double value;
            memcpy(&bits, data + p, sizeof bits);
            bits &= -(uint64_t)(assign[indices[p]] == a);
            memcpy(&value, &bits, sizeof value);
            sum += value;
        }
        out[a] += sum;
    }
}
