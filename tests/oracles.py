"""The duality and the shift lemma, as dense n x n oracles for the tests.

A semi-cohesion measure gamma and its dual semi-metric d are related by

    d(x, y) = (gamma(x, x) + gamma(y, y)) / 2 - gamma(x, y)

and ``induced_cohesion`` goes the other way, so applying one after the
other recovers the input. A plain symmetric similarity lifts to a
semi-cohesion measure by centering it and adding a large-enough constant
shift sigma to the diagonal; the shift moves every adjusted set distance
by the same constant, so clustering decisions are unchanged.

These are proofs of K-sets+'s guarantees, not steps of the algorithm:
the engine clusters a distance as -d, and ``verify`` checks a similarity
at sigma_min from its block sums. They build n x n arrays and serve the
tests only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ksetsplus.delta import adjusted_delta, delta
from ksetsplus.measure import SparseSymmetricMeasure, _from_dense_unchecked
from ksetsplus.transforms import C3_TOL, SemiCohesionMeasure, _as_cohesion


def dual_distance(g: SparseSymmetricMeasure) -> SparseSymmetricMeasure:
    """Semi-metric dual of a semi-cohesion measure.

    d(x, y) = (gamma(x, x) + gamma(y, y)) / 2 - gamma(x, y). Diagonal
    dominance makes the result nonnegative; float residue in (-1e-9, 0)
    is clamped to zero so the output stores a valid distance.
    """
    g = _as_cohesion(g)
    dense = g.to_dense()
    diag = g.diag
    d = (diag[:, None] + diag[None, :]) / 2.0 - dense
    np.fill_diagonal(d, 0.0)
    d[(d < 0.0) & (d > -C3_TOL)] = 0.0
    return _from_dense_unchecked(d, "distance")


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
    return SemiCohesionMeasure(_from_dense_unchecked(lifted, "cohesion"), float(sigma))


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
    lifted = lift_similarity(g, sigma)
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
