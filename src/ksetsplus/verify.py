"""Executable cluster conditions and pairwise partition guarantees.

Under a semi-cohesion measure, a nonempty set S is a cluster when its
self-sum gamma(S, S) is nonnegative. For S strictly between the empty
set and the whole ground set this is equivalent to five other
statements, phrased either through gamma or through average distances
of the dual semi-metric; all six are evaluated here with their numeric
slacks. A converged engine partition satisfies, for every pair of its
sets, the two-set form

    2 dbar(S_i, S_j) - dbar(S_i, S_i) - dbar(S_j, S_j) >= 0

meaning any two sets are clusters when viewed in isolation. Both run on
the stored entries, from block sums of the engine's point-to-set table:
is_cluster over S and its complement in O(m + n log n), and
pairwise_isolation_check on every kind of measure in O(m + Kn + n log n).
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
    """Evaluate the six cluster statements for a point set.

    Every slack is read from the 2 x 2 block sums of g and of its dual
    over S and its complement, in O(m + n log n). Statements (i)-(iv) are
    tolerant to 1e-12 of the sum of |g|, and (v)-(vi) to 1e-12 of the
    largest |block mean of the dual|.
    """
    g = _as_cohesion(g)
    n = g.n
    members = sorted(set(int(p) for p in s))
    if not members:
        raise EmptySet("cannot test the empty set")
    for p in members:
        _check_index(p, n)
    inside = len(members)
    outside = n - inside
    assign = np.ones(n, dtype=np.int64)
    assign[members] = 0
    partition = Partition.from_assign(assign)
    gamma, dual = _block_sums(g, partition, "cohesion")

    slacks: dict[str, float | None] = dict.fromkeys(STATEMENTS)
    slacks["i"] = float(gamma[0, 0])
    scales = dict.fromkeys(STATEMENTS, float(np.abs(g.data).sum()))
    if outside:
        slacks["ii"] = float(gamma[1, 1])
        slacks["iii"] = float(-gamma[0, 1])
        slacks["iv"] = float(gamma[0, 0] - gamma[0, 1])
        # Average-distance forms via the block means of the dual semi-metric.
        dbar = dual / np.outer(partition.sizes, partition.sizes)
        dbar_so = dual[0].sum() / (inside * n)
        slacks["v"] = float(2.0 * dbar_so - dual.sum() / (n * n) - dbar[0, 0])
        slacks["vi"] = float(2.0 * dbar[0, 1] - dbar[0, 0] - dbar[1, 1])
        scales["v"] = scales["vi"] = float(np.abs(dbar).max())
    statements = {
        key: None if slack is None else _slack_bool(slack, scales[key])
        for key, slack in slacks.items()
    }
    return ClusterReport(inside, outside, statements, slacks, partial=not outside)


def _block_sums(
    measure: SparseSymmetricMeasure, partition: Partition, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Block sums Gamma of measure over partition's sets, and B of its dual:
    Gamma for a "distance", else (D s^T + s D^T) / 2 - Gamma, where D holds
    the per-set sums of the diagonal and s the set sizes."""
    k, assign = partition.k, partition.assign
    # Block (a, b) adds the table cells gamma(x, S_b) of the points x in S_a.
    cells = (assign[:, None] * k + np.arange(k)).reshape(-1)
    table = _point_to_set(measure, assign, k)
    gamma = np.bincount(cells, weights=table, minlength=k * k).reshape(k, k)
    # Blocks (a, b) and (b, a) add different cells; their mean, and every
    # step below, is symmetric bit for bit.
    gamma = (gamma + gamma.T) / 2.0
    if kind == "distance":
        return gamma, gamma
    sizes = partition.sizes.astype(float)
    diag_sums = np.bincount(assign, weights=measure.diag, minlength=k)
    dual = (np.outer(diag_sums, sizes) + np.outer(sizes, diag_sums)) / 2.0 - gamma
    return gamma, dual


def pairwise_isolation_check(g, partition: Partition) -> PairwiseReport:
    """Isolation slack for every pair of partition sets.

    The slack for sets (i, j) is 2 dbar(S_i, S_j) - dbar(S_i, S_i)
    - dbar(S_j, S_j) under the dual semi-metric; a converged engine
    partition on a semi-cohesion measure never goes negative.

    g is checked on its stored entries. A "cohesion" (validated first,
    unless it is a SemiCohesionMeasure) is checked through its dual, and a
    "distance" is its own dual (an unstored pair is distance 0). A
    "similarity" is checked as its lift by sigma = sigma_min(g), unbuilt:
    lifting adds sigma to every off-diagonal dual distance, which adds
    sigma (1/|S_i| + 1/|S_j|).

    The block sums come from the point-to-set table gamma(x, S_b), so the
    check costs O(m + Kn + n log n), the n log n for the validation of a
    cohesion or the shift of a similarity.
    """
    kind, sigma_used = g.kind, None
    if kind == "similarity":
        sigma_used = sigma_min(g)
    elif kind == "cohesion":
        g = _as_cohesion(g)
        sigma_used = g.sigma_used
    _check_covers(partition, g.n)
    _, dual = _block_sums(g, partition, kind)
    sizes = partition.sizes.astype(float)
    # Every step is symmetric bit for bit, so argmin names the pair a < b.
    dbar = dual / np.outer(sizes, sizes)

    slack = 2.0 * dbar - (dbar.diagonal()[:, None] + dbar.diagonal()[None, :])
    if kind == "similarity":
        slack += sigma_used * (1.0 / sizes[:, None] + 1.0 / sizes[None, :])
    np.fill_diagonal(slack, 0.0)
    if partition.k < 2:
        return PairwiseReport(slack, float("inf"), None, sigma_used)
    flat = np.where(np.eye(partition.k, dtype=bool), np.inf, slack)
    a, b = np.unravel_index(int(flat.argmin()), flat.shape)
    return PairwiseReport(slack, float(flat[a, b]), (int(a), int(b)), sigma_used)

