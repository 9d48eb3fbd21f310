"""Transforms between semi-metrics, semi-cohesion measures, and similarities.

A semi-metric d satisfies nonnegativity, d(x,x)=0, and symmetry; a
semi-cohesion measure gamma satisfies symmetry (C1), zero row sums (C2),
and diagonal dominance gamma(x,x)+gamma(y,y) >= 2 gamma(x,y) (C3). The
two are dual:

    gamma(x, y) = rowavg_d(x) + rowavg_d(y) - grandavg_d - d(x, y)
    d(x, y)     = (gamma(x, x) + gamma(y, y)) / 2 - gamma(x, y)

and applying one after the other recovers the input exactly. A plain
symmetric similarity lifts to a semi-cohesion measure by centering it
and adding a large-enough constant shift to the diagonal; the shift
moves every adjusted set distance by the same constant, so clustering
decisions are unchanged.

These transforms destroy sparsity and are stored densely. They exist
for verification and small-instance work; the fast engine runs on the
raw sparse measure directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .delta import adjusted_delta, delta
from .errors import NotACohesion, SigmaTooSmall, TooFewPoints
from .measure import (
    SparseSymmetricMeasure,
    _from_dense_unchecked,
    check_distance_values,
)

# Absolute slack allowed on the diagonal-dominance check; the zero-row-sum
# check scales with n * max|value| to absorb summation error.
C3_TOL = 1e-9
C2_TOL_SCALE = 1e-9


class SemiCohesionMeasure:
    """A measure validated against (C1)-(C3), plus the shift that made it.

    ``sigma_used`` is set when the instance came from lifting a
    similarity; it is None for measures induced from a distance.
    """

    def __init__(
        self,
        underlying: SparseSymmetricMeasure,
        sigma_used: float | None = None,
        validate: bool = True,
    ):
        self.underlying = underlying
        self.sigma_used = sigma_used
        if validate:
            self.validate()

    @property
    def n(self) -> int:
        return self.underlying.n

    def validate(self):
        g = self.underlying
        scale = g.max_abs()
        row_sums = g.row_sums()
        tol = C2_TOL_SCALE * g.n * scale
        worst = float(np.max(np.abs(row_sums)))
        if worst > tol:
            raise NotACohesion(
                f"row sums reach {worst:.3g}, beyond tolerance {tol:.3g}"
            )
        dense = g.to_dense()
        diag = g.diag
        dominance = diag[:, None] + diag[None, :] - 2.0 * dense
        worst = float(dominance.min())
        if worst < -C3_TOL:
            x, y = np.unravel_index(int(dominance.argmin()), dominance.shape)
            raise NotACohesion(
                f"diagonal dominance fails at ({x}, {y}) by {-worst:.3g}"
            )

    def __repr__(self):
        return (
            f"SemiCohesionMeasure(n={self.n}, sigma_used={self.sigma_used!r})"
        )


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
    out = _from_dense_unchecked(gamma, "cohesion")
    return SemiCohesionMeasure(out, sigma_used=None)


def dual_distance(
    g: SemiCohesionMeasure | SparseSymmetricMeasure,
) -> SparseSymmetricMeasure:
    """Semi-metric dual of a semi-cohesion measure.

    d(x, y) = (gamma(x, x) + gamma(y, y)) / 2 - gamma(x, y). Diagonal
    dominance makes the result nonnegative; float residue in (-1e-9, 0)
    is clamped to zero so the output stores a valid distance.
    """
    if isinstance(g, SparseSymmetricMeasure):
        g = SemiCohesionMeasure(g, validate=True)
    else:
        g.validate()
    dense = g.underlying.to_dense()
    diag = g.underlying.diag
    d = (diag[:, None] + diag[None, :]) / 2.0 - dense
    np.fill_diagonal(d, 0.0)
    d[(d < 0.0) & (d > -C3_TOL)] = 0.0
    return _from_dense_unchecked(d, "distance")


def sigma_min(g: SparseSymmetricMeasure) -> float:
    """Smallest safe shift for lifting a similarity.

    Returns max over pairs x != y of gamma(x,y) - (gamma(x,x)+gamma(y,y))/2,
    scanning stored entries and bounding the unstored (zero-valued) pairs
    through the two smallest diagonal values, so the cost is O(m + n)
    rather than O(n^2). When some pairs are unstored the diagonal bound
    can exceed the true maximum; any sigma at or above the returned value
    is still safe.
    """
    n = g.n
    if n < 2:
        raise TooFewPoints("the shift bound needs at least two points")
    diag = g.diag
    rows = g.entry_rows()
    upper = g.indices > rows
    i, j = rows[upper], g.indices[upper]
    candidates = g.data[upper] - (diag[i] + diag[j]) / 2.0
    best = float(candidates.max()) if candidates.size else -np.inf
    if candidates.size < n * (n - 1) // 2:
        # Some pair has value zero; bound those by the two smallest diagonals.
        d1, d2 = np.partition(diag, 1)[:2]
        best = max(best, -(d1 + d2) / 2.0)
    return float(best)


def lift_similarity(
    g: SparseSymmetricMeasure, sigma: float
) -> SemiCohesionMeasure:
    """Center a symmetric similarity into a semi-cohesion measure.

    lifted(x, y) = gamma(x, y) - rowsum(x)/n - rowsum(y)/n
                   + total/n^2 + sigma * [x == y] - sigma/n.

    Row sums vanish by construction; diagonal dominance holds whenever
    sigma >= sigma_min(g), otherwise SigmaTooSmall is raised.
    """
    n = g.n
    dense = g.to_dense()
    row_sums = dense.sum(axis=1)
    total = row_sums.sum()
    lifted = (
        dense
        - row_sums[:, None] / n
        - row_sums[None, :] / n
        + total / n**2
        - sigma / n
    )
    lifted[np.diag_indices(n)] += sigma
    out = _from_dense_unchecked(lifted, "cohesion")
    try:
        return SemiCohesionMeasure(out, sigma_used=float(sigma))
    except NotACohesion as exc:
        if "dominance" in str(exc):
            raise SigmaTooSmall(
                f"sigma={sigma} is below the valid lifting range: {exc}"
            ) from exc
        raise


@dataclass
class ShiftReport:
    """Sampled check that lifting shifts set distances as advertised.

    Adjusted set distances under the lifted measure must equal the raw
    ones plus sigma exactly; unadjusted ones shift by sigma*(1 - 1/|S|)
    for a point inside the set and sigma*(1 + 1/|S|) outside. Deviations
    are relative to max(1, |lhs|, |rhs|).
    """

    sigma: float
    samples: int
    max_deviation: float = 0.0
    max_adjusted_deviation: float = 0.0
    max_unadjusted_deviation: float = 0.0
    inside_cases: int = 0
    outside_cases: int = 0
    own_singleton_cases: int = 0
    failures: list[tuple[str, int, int, float]] = field(default_factory=list)

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_deviation <= tol


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_shift_lemma(
    g: SparseSymmetricMeasure,
    sigma: float,
    samples: int = 100,
    rng_seed: int = 0,
    tol: float = 1e-9,
) -> ShiftReport:
    """Probe random (point, set) pairs for the exact shift relations."""
    lifted = lift_similarity(g, sigma).underlying
    rng = np.random.default_rng(rng_seed)
    n = g.n
    report = ShiftReport(sigma=float(sigma), samples=samples)
    for _ in range(samples):
        x = int(rng.integers(n))
        size = int(rng.integers(1, n + 1))
        subset = [int(p) for p in rng.choice(n, size=size, replace=False)]
        inside = x in subset
        if inside and size == 1:
            # Both adjusted values are -inf; the shift holds by convention.
            report.own_singleton_cases += 1
            continue
        if inside:
            report.inside_cases += 1
            factor = sigma * (1.0 - 1.0 / size)
        else:
            report.outside_cases += 1
            factor = sigma * (1.0 + 1.0 / size)
        raw = delta(g, x, subset)
        shifted = delta(lifted, x, subset)
        dev_u = _rel_dev(shifted, raw + factor)
        raw_adj = adjusted_delta(g, x, subset)
        shifted_adj = adjusted_delta(lifted, x, subset)
        dev_a = _rel_dev(shifted_adj, raw_adj + sigma)
        report.max_unadjusted_deviation = max(
            report.max_unadjusted_deviation, dev_u
        )
        report.max_adjusted_deviation = max(report.max_adjusted_deviation, dev_a)
        worst = max(dev_u, dev_a)
        if worst > tol:
            kind = "inside" if inside else "outside"
            report.failures.append((kind, x, size, worst))
    report.max_deviation = max(
        report.max_adjusted_deviation, report.max_unadjusted_deviation
    )
    return report
