"""Executable cluster conditions and pairwise partition guarantees.

Under a semi-cohesion measure, a nonempty set S is a cluster when its
self-sum gamma(S, S) is nonnegative. For S strictly between the empty
set and the whole ground set this is equivalent to five other
statements, phrased either through gamma or through average distances
of the dual semi-metric; all six are evaluated here with their numeric
slacks. A converged engine partition satisfies, for every pair of its
sets, the two-set form

    2 dbar(S_i, S_j) - dbar(S_i, S_i) - dbar(S_j, S_j) >= 0

meaning any two sets are clusters when viewed in isolation. is_cluster
runs on a dense copy; pairwise_isolation_check runs on the stored
entries of every kind of measure in O(m + Kn + n log n), through the
engine's point-to-set table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _point_to_set
from .errors import EmptySet
from .measure import Partition, SparseSymmetricMeasure, _check_covers, _check_index
from .transforms import _as_cohesion, sigma_min

STATEMENTS = ("i", "ii", "iii", "iv", "v", "vi")


@dataclass
class ClusterReport:
    """Truth values and slacks for the six equivalent cluster statements.

    partial is True when S is the whole ground set, in which case only
    statement (i) is meaningful and the others are reported as None.
    """

    subset_size: int
    complement_size: int
    statements: dict[str, bool | None]
    slacks: dict[str, float | None]
    partial: bool

    def is_cluster(self) -> bool:
        return bool(self.statements["i"])

    def all_agree(self) -> bool:
        values = [v for v in self.statements.values() if v is not None]
        return all(values) or not any(values)


@dataclass
class PairwiseReport:
    """Two-set isolation slacks for every pair of partition sets, and the
    shift of the lifted similarity checked (None for other inputs)."""

    slack: np.ndarray
    min_slack: float
    argmin: tuple[int, int] | None
    sigma_used: float | None = None

    def ok(self, tol: float = 1e-9) -> bool:
        return self.min_slack >= -tol


def _slack_bool(slack: float, scale: float) -> bool:
    return slack >= -(1e-9 + 1e-12 * scale)


def is_cluster(g, s) -> ClusterReport:
    """Evaluate the six cluster statements for a point set."""
    g = _as_cohesion(g)
    n = g.n
    members = sorted(set(int(p) for p in s))
    if not members:
        raise EmptySet("cannot test the empty set")
    for p in members:
        _check_index(p, n)
    dense = g.underlying.to_dense()
    diag = g.underlying.diag
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    inside = int(mask.sum())
    outside = n - inside

    self_sum = float(dense[np.ix_(mask, mask)].sum())
    gamma_scale = float(np.abs(dense).sum())
    statements: dict[str, bool | None] = dict.fromkeys(STATEMENTS)
    slacks: dict[str, float | None] = dict.fromkeys(STATEMENTS)
    statements["i"] = _slack_bool(self_sum, gamma_scale)
    slacks["i"] = self_sum
    if outside == 0:
        return ClusterReport(inside, 0, statements, slacks, partial=True)

    comp = ~mask
    comp_sum = float(dense[np.ix_(comp, comp)].sum())
    cross_sum = float(dense[np.ix_(mask, comp)].sum())
    statements["ii"] = _slack_bool(comp_sum, gamma_scale)
    slacks["ii"] = comp_sum
    statements["iii"] = _slack_bool(-cross_sum, gamma_scale)
    slacks["iii"] = -cross_sum
    statements["iv"] = _slack_bool(self_sum - cross_sum, gamma_scale)
    slacks["iv"] = self_sum - cross_sum

    # Average-distance forms via the dual semi-metric.
    dist = (diag[:, None] + diag[None, :]) / 2.0 - dense
    d_scale = float(np.abs(dist).max()) if n else 0.0
    dbar_ss = float(dist[np.ix_(mask, mask)].mean())
    dbar_cc = float(dist[np.ix_(comp, comp)].mean())
    dbar_sc = float(dist[np.ix_(mask, comp)].mean())
    dbar_so = float(dist[mask, :].mean())
    dbar_oo = float(dist.mean())
    slack_v = 2.0 * dbar_so - dbar_oo - dbar_ss
    slack_vi = 2.0 * dbar_sc - dbar_ss - dbar_cc
    statements["v"] = _slack_bool(slack_v, d_scale)
    slacks["v"] = slack_v
    statements["vi"] = _slack_bool(slack_vi, d_scale)
    slacks["vi"] = slack_vi
    return ClusterReport(inside, outside, statements, slacks, partial=False)


def pairwise_isolation_check(g, partition: Partition) -> PairwiseReport:
    """Isolation slack for every pair of partition sets.

    The slack for sets (i, j) is 2 dbar(S_i, S_j) - dbar(S_i, S_i)
    - dbar(S_j, S_j) under the dual semi-metric; a converged engine
    partition on a semi-cohesion measure never goes negative.

    g is checked on its stored entries. A SemiCohesionMeasure or a
    "cohesion" (validated first) is checked through its dual, and a
    "distance" is its own dual (an unstored pair is distance 0): with
    Gamma the block sums of g, the dual's are B = Gamma for a distance,
    else B = (D s^T + s D^T) / 2 - Gamma, where D holds the per-set sums
    of the diagonal and s the set sizes. A "similarity" is checked as its
    lift by sigma = sigma_min(g), unbuilt: lifting adds sigma to every
    off-diagonal dual distance, which adds sigma (1/|S_i| + 1/|S_j|).

    Gamma comes from the point-to-set table gamma(x, S_b), so the check
    costs O(m + Kn + n log n), the n log n for a cohesion's validation.
    """
    kind = g.kind if isinstance(g, SparseSymmetricMeasure) else "cohesion"
    measure, sigma_used = g, None
    if kind == "similarity":
        sigma_used = sigma_min(g)
    elif kind == "cohesion":
        cohesion = _as_cohesion(g)
        measure, sigma_used = cohesion.underlying, cohesion.sigma_used
    _check_covers(partition, measure.n)
    k, assign = partition.k, partition.assign
    # Block (a, b) adds the table cells gamma(x, S_b) of the points x in S_a.
    cells = (assign[:, None] * k + np.arange(k)).reshape(-1)
    table = _point_to_set(measure, assign, k)
    block_sums = np.bincount(cells, weights=table, minlength=k * k).reshape(k, k)
    # Blocks (a, b) and (b, a) add different cells; their mean, and every
    # step below, is symmetric bit for bit, so argmin names the pair a < b.
    block_sums = (block_sums + block_sums.T) / 2.0
    sizes = partition.sizes.astype(float)
    if kind != "distance":
        diag_sums = np.bincount(assign, weights=measure.diag, minlength=k)
        block_sums = (
            np.outer(diag_sums, sizes) + np.outer(sizes, diag_sums)
        ) / 2.0 - block_sums
    dbar = block_sums / np.outer(sizes, sizes)

    slack = 2.0 * dbar - (dbar.diagonal()[:, None] + dbar.diagonal()[None, :])
    if kind == "similarity":
        slack += sigma_used * (1.0 / sizes[:, None] + 1.0 / sizes[None, :])
    np.fill_diagonal(slack, 0.0)
    if k < 2:
        return PairwiseReport(slack, float("inf"), None, sigma_used)
    flat = np.where(np.eye(k, dtype=bool), np.inf, slack)
    a, b = np.unravel_index(int(flat.argmin()), flat.shape)
    return PairwiseReport(slack, float(flat[a, b]), (int(a), int(b)), sigma_used)

