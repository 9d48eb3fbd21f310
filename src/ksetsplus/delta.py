"""Reference point-to-set distances.

These are the deliberately-naive oracle implementations the fast engine
is tested against. The triangular distance from a point x to a set S
under a symmetric measure gamma is

    delta(x, S) = gamma(x,x) - (2/|S|) gamma(x,S) + gamma(S,S)/|S|^2

which, for a semi-metric d, equals the average over ordered pairs
(z1, z2) in S x S of d(x,z1) + d(x,z2) - d(z1,z2). In a semi-metric
space this can be negative. The adjusted form rescales by |S|/(|S|+1)
or |S|/(|S|-1) depending on membership and is -inf for a point alone
in its own set, which is what keeps singleton sets from being vacated.
"""

from __future__ import annotations

from .errors import EmptySet
from .measure import (
    SparseSymmetricMeasure,
    _check_index,
    check_distance_values,
    measure_of_sets,
)

NEG_INF = float("-inf")


def _as_point_list(s) -> list[int]:
    points = sorted(set(int(p) for p in s))
    if not points:
        raise EmptySet("the set argument is empty")
    return points


def delta(g: SparseSymmetricMeasure, x: int, s) -> float:
    """Triangular distance from point x to set s under gamma."""
    points = _as_point_list(s)
    _check_index(x, g.n)
    size = len(points)
    own = g.diag[x]
    cross = measure_of_sets(g, [x], points)
    within = measure_of_sets(g, points, points)
    return own - 2.0 * cross / size + within / (size * size)


def delta_triangular(d: SparseSymmetricMeasure, x: int, s) -> float:
    """Triangular distance computed pairwise from a semi-metric.

    Independent cross-check path: averages d(x,z1) + d(x,z2) - d(z1,z2)
    over all ordered pairs of s, without going through the induced
    cohesion measure.
    """
    points = _as_point_list(s)
    _check_index(x, d.n)
    size = len(points)
    to_x = [d.value(x, z) for z in points]
    total = 0.0
    for a, z1 in enumerate(points):
        for b, z2 in enumerate(points):
            total += to_x[a] + to_x[b] - d.value(z1, z2)
    return total / (size * size)


def adjusted_delta(g: SparseSymmetricMeasure, x: int, s) -> float:
    """Membership-rescaled triangular distance; -inf for own singletons."""
    points = _as_point_list(s)
    _check_index(x, g.n)
    size = len(points)
    inside = x in set(points)
    if inside and size == 1:
        return NEG_INF
    base = delta(g, x, points)
    if inside:
        return size / (size - 1.0) * base
    return size / (size + 1.0) * base


def check_nonnegativity(d: SparseSymmetricMeasure, s, tol: float = 1e-9) -> float:
    """Sum of triangular distances from a set to itself.

    For a semi-metric this equals |S| times the average within-set
    distance, hence is nonnegative even when individual values are not.
    Raises if the identity or the sign fails beyond tol.
    """
    check_distance_values(d)
    points = _as_point_list(s)
    size = len(points)
    total = sum(delta_triangular(d, x, points) for x in points)
    dbar = measure_of_sets(d, points, points) / (size * size)
    if abs(total - size * dbar) > tol * max(1.0, abs(total)):
        raise ValueError(
            f"sum of triangular distances {total} differs from "
            f"|S| * mean within-set distance {size * dbar}"
        )
    if total < -tol:
        raise ValueError(f"negative triangular-distance sum {total}")
    return total
