"""Semi-cohesion measures: their validation, the one a semi-metric
induces, and the shift that lifts a similarity into one.

A semi-metric d satisfies nonnegativity, d(x,x)=0, and symmetry; a
semi-cohesion measure gamma satisfies symmetry (C1), zero row sums (C2),
and diagonal dominance gamma(x,x)+gamma(y,y) >= 2 gamma(x,y) (C3). A
semi-metric induces one:

    gamma(x, y) = rowavg_d(x) + rowavg_d(y) - grandavg_d - d(x, y)

which destroys sparsity: ``induced_cohesion`` takes n^2 time and memory
and serves small instances only. The engine and ``verify`` run on the
stored entries, and (C3) and the exact sigma_min share one scan. The
dual semi-metric and the lift of a similarity are the tests' oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import NotACohesion, SigmaTooSmall, TooFewPoints
from .measure import (
    SparseSymmetricMeasure,
    _from_dense_unchecked,
    check_distance_values,
)

# Absolute slack allowed on the diagonal-dominance check; the zero-row-sum
# check scales with n * max|value| (and a lift's |sigma|) to absorb
# summation error.
C3_TOL = 1e-9
C2_TOL_SCALE = 1e-9


class SemiCohesionMeasure(SparseSymmetricMeasure):
    """A measure of kind "cohesion" validated against (C1)-(C3), plus the
    shift that made it. It shares g's checked arrays.

    ``sigma_used`` is the shift of a lifted similarity, whose (C3)
    failure is SigmaTooSmall, and None for any other measure.
    """

    __slots__ = ("sigma_used",)

    def __init__(self, g: SparseSymmetricMeasure, sigma_used: float | None = None):
        super().__init__(g.n, "cohesion", g.indptr, g.indices, g.data)
        self.sigma_used = sigma_used
        self.validate()

    def validate(self):
        # A lift at sigma_min can be zero but for rounding, so its scale
        # includes the shift that built it.
        tol = C2_TOL_SCALE * self.n * max(self.max_abs(), abs(self.sigma_used or 0.0))
        worst = float(np.abs(self.row_sums()).max())
        if worst > tol:
            raise NotACohesion(f"row sums reach {worst:.3g}, beyond tolerance {tol:.3g}")
        worst, x, y = _dominance_minimum(self)
        if worst < -C3_TOL:
            where = f"diagonal dominance fails at ({x}, {y}) by {-worst:.3g}"
            if self.sigma_used is None:
                raise NotACohesion(where)
            raise SigmaTooSmall(
                f"sigma={self.sigma_used} is below the valid lifting range: {where}"
            )

    def __repr__(self):
        return (
            f"SemiCohesionMeasure(n={self.n}, sigma_used={self.sigma_used!r})"
        )


def _dominance_minimum(g: SparseSymmetricMeasure) -> tuple[float, int, int]:
    """Smallest (g(x, x) + g(y, y)) - 2 g(x, y) over x != y and its first
    pair in row-major order (+inf at (0, 0) if n = 1), in O(m + n log n).

    An unstored pair's term is g(x, x) + g(y, y), smallest at row x's
    unstored y != x of smallest diagonal: the mex, at most deg(x) + 1, of
    the sorted-diagonal ranks of x's stored columns and of x itself. The
    pair (x, x) is left out; its term is exactly 0.
    """
    n, diag, rows = g.n, g.diag, g.entry_rows()
    order = np.argsort(diag)
    rank = np.argsort(order)
    # Row x owns the slots start[x] + r, r <= deg(x) + 1, of a flat table.
    start = g.indptr[:-1] + 2 * np.arange(n)
    marked_rows = np.concatenate([rows, np.arange(n)])
    ranks = np.concatenate([rank[g.indices], rank])
    low = ranks <= np.diff(g.indptr)[marked_rows]
    taken = np.zeros(g.m + 2 * n, dtype=bool)
    taken[start[marked_rows[low]] + ranks[low]] = True
    free = np.flatnonzero(~taken)
    mex = free[np.searchsorted(free, start)] - start
    # Rank n stands for a full row.
    row_min = diag + np.append(diag[order], np.inf)[mex]
    terms = (diag[rows] + diag[g.indices]) - 2.0 * g.data
    terms[rows == g.indices] = np.inf
    np.minimum.at(row_min, rows, terms)
    x = int(row_min.argmin())
    lo, hi = g.indptr[x], g.indptr[x + 1]
    row = diag[x] + diag
    row[g.indices[lo:hi]] -= 2.0 * g.data[lo:hi]
    row[x] = np.inf
    return float(row_min[x]), x, int(row.argmin())


def _as_cohesion(g) -> SemiCohesionMeasure:
    """g if already validated, else g validated as a semi-cohesion measure."""
    return g if isinstance(g, SemiCohesionMeasure) else SemiCohesionMeasure(g)


def induced_cohesion(d: SparseSymmetricMeasure) -> SemiCohesionMeasure:
    """Semi-cohesion measure induced by a semi-metric.

    gamma(x, y) = rowavg(x) + rowavg(y) - grandavg - d(x, y), where the
    averages are over all n points. Output rows sum to zero.
    """
    check_distance_values(d)
    dense = d.to_dense()
    row_avg = dense.mean(axis=1)
    grand_avg = row_avg.mean()
    gamma = row_avg[:, None] + row_avg[None, :] - grand_avg - dense
    return SemiCohesionMeasure(_from_dense_unchecked(gamma, "cohesion"))


def sigma_min(g: SparseSymmetricMeasure) -> float:
    """Smallest safe shift for lifting a similarity.

    Returns max over pairs x != y of gamma(x,y) - (gamma(x,x)+gamma(y,y))/2,
    exactly, unstored (zero-valued) pairs included: minus half the (C3)
    scan's minimum, in O(m + n log n). Halving is exact, so a stored
    pair's term has the bits of the formula above.
    """
    if g.n < 2:
        raise TooFewPoints("the shift bound needs at least two points")
    return -_dominance_minimum(g)[0] / 2.0
