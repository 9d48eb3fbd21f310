"""Sparse symmetric measures, datasets, and partitions.

A measure is a symmetric bivariate function gamma(.,.) over n points,
stored in compressed sparse row (CSR) form: row i's stored entries are
``indices[indptr[i]:indptr[i+1]]`` (column indices, sorted) with values
``data[indptr[i]:indptr[i+1]]``. Only nonzero values are stored, every
off-diagonal entry is mirrored, and ``m`` counts stored entries, so an
off-diagonal pair contributes 2 to m and a diagonal entry 1. The
neighborhood of point i is exactly the points with a stored entry in
row i, which is what makes m the cost parameter of the fast engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArityMismatch,
    AsymmetricDuplicate,
    DuplicateEntry,
    EmptySetInPartition,
    IndexOutOfRange,
    KsetsError,
    NonFiniteValue,
    NonSquareInput,
    NotADistance,
)

KINDS = ("similarity", "distance", "cohesion")


@dataclass(frozen=True)
class DataSet:
    """Point count plus optional external labels (one per point)."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ArityMismatch("a dataset needs at least one point")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ArityMismatch(
                    f"{len(self.labels)} labels for {self.n} points"
                )
            if len(set(self.labels)) != self.n:
                raise ArityMismatch("labels must be unique")
            # Each label must read back as one field of a partition TSV line.
            for label in self.labels:
                breaks = any(c in label for c in "\t\r\n")
                if breaks or not label or label != label.strip():
                    raise ArityMismatch(f"label {label!r} cannot be one TSV field")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


class SparseSymmetricMeasure:
    """Symmetric n-by-n measure in CSR form.

    Attributes:
        n: point count.
        kind: one of "similarity", "distance", "cohesion".
        indptr: int64 array of n + 1 row offsets into indices and data.
        indices: int64 array of column indices, sorted within each row.
        data: float64 array of the stored (nonzero, finite) values.
        diag: float64 array of gamma(i, i) (0.0 when unstored).
        m: number of stored entries, indptr[-1].

    Every constructor of a measure but ``_negated`` passes through
    ``__init__``, which stores contiguous arrays that own their memory,
    checks the CSR structure (offsets that do not decrease, column indices
    in range, strictly increasing per row), and rejects non-finite values
    and, for kind "distance", invalid distances. The compiled
    ``ksets_check`` (see ``_kernel``) checks and fills ``diag`` in one
    scan; when no kernel can be built, ``_check_reference`` does.
    ``_negated`` derives the similarity -d from a measure that has passed
    them, for ``engine.run``'s reference path only: the compiled restarts
    read d's own values times -1.0. Instances are immutable by convention after construction and
    safe to share across threads; treat the arrays as read-only.
    """

    __slots__ = ("n", "kind", "indptr", "indices", "data", "diag")

    def __init__(self, n: int, kind: str, indptr, indices, data):
        if n < 1:
            raise ArityMismatch("a measure needs at least one point")
        if kind not in KINDS:
            raise ValueError(f"unknown measure kind {kind!r}")
        self.n = n
        self.kind = kind
        # Contiguous arrays: a strided view (one column of a 2-D array, say)
        # would pin its whole base array, and the compiled pass reads raw
        # pointers.
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if len(self.indptr) != n + 1:
            raise ArityMismatch(f"{len(self.indptr) - 1} rows for n={n}")
        if not (self.indptr[0] == 0 and self.m == len(self.indices) == len(self.data)):
            raise ArityMismatch("indptr, indices and data describe different entries")
        from ._kernel import load, parts

        library = load()
        if library is None:
            self.diag = _check_reference(self)
            if kind == "distance":
                check_distance_values(self)
            return
        self.diag = np.empty(n)
        out = np.empty(5, dtype=np.int64)
        csr = (self.indptr, self.indices, self.data)
        if library.ksets_check(n, *csr, self.diag, out, parts(self.m)):
            raise _decreasing_indptr()
        outside, unordered, non_finite, negative, self_row = out.tolist()
        if outside:
            raise _column_outside(n)
        if unordered:
            raise _unordered_columns()
        if non_finite >= 0:
            raise _non_finite(self, non_finite)
        if kind == "distance":
            _check_distances(self, self_row, negative)

    def _negated(self) -> SparseSymmetricMeasure:
        """The similarity -d of this checked distance d, without a second
        check, for the reference restarts (the compiled ones negate each
        value as they read it): negated finite values pass every check. It owns its data
        and shares indptr, indices and diag. The builders store no zero, so
        a distance's diag is all +0.0, as the checked constructor's would
        be; only a 0.0 stored on the diagonal would flip a zero's sign."""
        negated = object.__new__(SparseSymmetricMeasure)
        negated.n, negated.kind = self.n, "similarity"
        negated.indptr, negated.indices = self.indptr, self.indices
        negated.data, negated.diag = -self.data, self.diag
        return negated

    @property
    def m(self) -> int:
        return int(self.indptr[-1])

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry, parallel to indices and data."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def _coordinates(self, p: int) -> tuple[int, int]:
        i = int(np.searchsorted(self.indptr, p, side="right")) - 1
        return i, int(self.indices[p])

    def value(self, i: int, j: int) -> float:
        """gamma(i, j); 0.0 for pairs with no stored entry."""
        _check_index(i, self.n)
        _check_index(j, self.n)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        pos = lo + np.searchsorted(self.indices[lo:hi], j)
        if pos < hi and self.indices[pos] == j:
            return float(self.data[pos])
        return 0.0

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.entry_rows(), weights=self.data, minlength=self.n)

    def max_abs(self) -> float:
        return float(np.abs(self.data).max()) if self.m else 0.0

    def to_dense(self) -> np.ndarray:
        """Dense n-by-n copy; verification-scale inputs only."""
        out = np.zeros((self.n, self.n))
        out[self.entry_rows(), self.indices] = self.data
        return out

    def check_symmetry(self):
        """Full-scan assertion that every entry is mirrored exactly."""
        rows = self.entry_rows()
        # Entries sorted by (column, row) are the transpose in CSR order.
        order = np.lexsort((rows, self.indices))
        mismatch = (
            (self.indices[order] != rows)
            | (rows[order] != self.indices)
            | (self.data[order] != self.data)
        )
        if mismatch.any():
            p = int(np.argmax(mismatch))
            raise AsymmetricDuplicate(
                f"entry ({rows[p]}, {self.indices[p]}) = {self.data[p]} "
                "is not mirrored"
            )

    def __repr__(self):
        return (
            f"SparseSymmetricMeasure(n={self.n}, kind={self.kind!r}, m={self.m})"
        )


def _check_index(i: int, n: int):
    if not 0 <= i < n:
        raise IndexOutOfRange(f"point index {i} outside [0, {n})")


def _check_reference(g: SparseSymmetricMeasure) -> np.ndarray:
    """The diag of a measure whose array sizes are checked, after numpy
    checks of its CSR arrays that raise the constructor's errors but not
    its distance errors: the compiled ``ksets_check``'s oracle and
    fallback."""
    if (np.diff(g.indptr) < 0).any():
        raise _decreasing_indptr()
    if g.m and not 0 <= g.indices.min() <= g.indices.max() < g.n:
        raise _column_outside(g.n)
    # Compare neighbours in place, then forgive each row's first entry.
    unordered = g.indices[1:] <= g.indices[:-1]
    starts = g.indptr[1:-1]
    unordered[starts[(starts > 0) & (starts < g.m)] - 1] = False
    if unordered.any():
        raise _unordered_columns()
    if not np.isfinite(g.data).all():
        raise _non_finite(g, int(np.argmin(np.isfinite(g.data))))
    rows = g.entry_rows()
    on_diag = g.indices == rows
    diag = np.zeros(g.n)
    diag[rows[on_diag]] = g.data[on_diag]
    return diag


def _decreasing_indptr() -> ArityMismatch:
    return ArityMismatch("indptr must not decrease")


def _column_outside(n: int) -> IndexOutOfRange:
    return IndexOutOfRange(f"a column index is outside [0, {n})")


def _unordered_columns() -> KsetsError:
    return KsetsError("column indices must increase strictly within each row")


def _non_finite(g: SparseSymmetricMeasure, p: int) -> NonFiniteValue:
    i, j = g._coordinates(p)
    return NonFiniteValue(f"non-finite value {g.data[p]} at ({i}, {j})")


def check_distance_values(g: SparseSymmetricMeasure):
    """Raise NotADistance on a nonzero self-distance or a negative value."""
    selfs = np.flatnonzero(g.diag)
    negative = np.flatnonzero(g.data < 0.0)
    first = [int(found[0]) if found.size else -1 for found in (selfs, negative)]
    _check_distances(g, *first)


def _check_distances(g: SparseSymmetricMeasure, self_row: int, negative: int):
    """Raise NotADistance for the first row with a nonzero self-distance, else
    for the negative entry at position negative; -1 means none."""
    if self_row >= 0:
        raise NotADistance(f"nonzero self-distance at point {self_row}")
    if negative >= 0:
        i, j = g._coordinates(negative)
        raise NotADistance(f"negative distance {g.data[negative]} at ({i}, {j})")


def build_from_triples(
    n: int, triples, kind: str = "similarity"
) -> SparseSymmetricMeasure:
    """Build a measure from (i, j, value) triples: an (N, 3) array or rows.

    Each unordered pair may be given once per orientation; if both
    orientations appear their values must agree. Exact zeros are dropped
    from storage. Index errors are reported before duplicates, and
    duplicates before conflicting mirror values.

    The compiled ``ksets_build`` (see ``_kernel``) checks the indices and
    builds the CSR arrays in O(N + n) plus a sort of each row, in place in
    the result's own arrays; when no kernel can be built,
    ``_build_from_triples_reference`` does.
    """
    # Indices are read as floats so that a fractional index is caught, not
    # truncated.
    t = np.asarray(triples, dtype=np.float64)
    if not t.size:
        t = t.reshape(0, 3)
    elif t.ndim != 2 or t.shape[1] != 3:
        raise ArityMismatch(f"expected (i, j, value) triples, got shape {t.shape}")
    from ._kernel import load

    # With no points the reference reports the index errors, which come first.
    library = load() if n >= 1 else None
    if library is None:
        return _build_from_triples_reference(n, t, kind)
    indptr = np.zeros(n + 1, dtype=np.int64)
    # Room for both orientations of every triple; the routine compacts them.
    indices = np.empty(2 * len(t), dtype=np.int64)
    data = np.empty(2 * len(t))
    pair = np.zeros(2, dtype=np.int64)
    values = np.zeros(2)
    m = library.ksets_build(
        n, len(t), np.ascontiguousarray(t), indptr, indices, data, pair, values
    )
    if m == -1:
        raise _given_twice(*pair)
    if m == -2:
        raise _conflicting_mirror(*pair, *values)
    if m == -3:
        raise _fractional_index()
    if m == -4:
        raise _index_outside(values[0], n)
    if m < len(indices):
        # Shrunk in place, so the arrays own exactly m entries; the
        # routine wrote the kept entries in front.
        indices.resize(m, refcheck=False)
        data.resize(m, refcheck=False)
    return SparseSymmetricMeasure(n, kind, indptr, indices, data)


def _fractional_index() -> IndexOutOfRange:
    return IndexOutOfRange("point indices must be integers")


def _index_outside(bad: float, n: int) -> IndexOutOfRange:
    return IndexOutOfRange(f"point index {bad:.0f} outside [0, {n})")


def _given_twice(i, j) -> DuplicateEntry:
    return DuplicateEntry(f"pair ({i}, {j}) given twice")


def _conflicting_mirror(lo, hi, a, b) -> AsymmetricDuplicate:
    return AsymmetricDuplicate(f"pair ({lo}, {hi}) given with values {a} and {b}")


def _build_from_triples_reference(
    n: int, t: np.ndarray, kind: str
) -> SparseSymmetricMeasure:
    """numpy ``build_from_triples`` of the (N, 3) array t, index checks
    included: the compiled ``ksets_build``'s oracle and fallback."""
    fi, fj = t[:, 0], t[:, 1]
    if not (np.array_equal(np.floor(fi), fi) and np.array_equal(np.floor(fj), fj)):
        raise _fractional_index()
    outside = (fi < 0) | (fi >= n) | (fj < 0) | (fj >= n)
    if outside.any():
        p = int(np.argmax(outside))
        raise _index_outside(fi[p] if not 0 <= fi[p] < n else fj[p], n)
    if n < 1:  # as the constructor would, before indptr is sized
        raise ArityMismatch("a measure needs at least one point")
    i, j, v = t[:, 0].astype(np.int64), t[:, 1].astype(np.int64), t[:, 2]
    # Sort by unordered pair, then orientation, so both orientations of a
    # pair are adjacent and a repeated orientation is adjacent to itself.
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    key = (lo * n + hi) * 2 + (i > j)
    # No stable sort is needed: equal keys name the same (i, j), and once
    # the repeat check passes the keys are distinct.
    order = np.argsort(key)
    key, lo, hi, v = key[order], lo[order], hi[order], v[order]
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        p = order[repeated[0]]
        raise _given_twice(i[p], j[p])
    mirrored = np.flatnonzero(key[1:] // 2 == key[:-1] // 2)
    conflict = mirrored[
        (v[mirrored] != v[mirrored + 1])
        & ~(np.isnan(v[mirrored]) & np.isnan(v[mirrored + 1]))
    ]
    if conflict.size:
        p = conflict[0]
        raise _conflicting_mirror(lo[p], hi[p], v[p], v[p + 1])
    keep = v != 0.0
    keep[mirrored + 1] = False
    lo, hi, v = lo[keep], hi[keep], v[keep]
    off = lo != hi
    rows = np.concatenate([lo, hi[off]])
    cols = np.concatenate([hi, lo[off]])
    vals = np.concatenate([v, v[off]])
    keys = rows * n + cols
    order = np.argsort(keys)
    return _from_keys(n, kind, keys[order], vals[order])


def from_dense(matrix, kind: str = "similarity") -> SparseSymmetricMeasure:
    """Build a measure from an already-symmetric dense matrix.

    Zeros are dropped from storage. Raises AsymmetricDuplicate if the
    matrix is not exactly symmetric (use :func:`symmetrize` to average
    an asymmetric one); the measure's own errors, such as NonFiniteValue,
    come first. The compiled ``ksets_dense`` (see ``_kernel``) reads the
    matrix in one row-major scan; when no kernel can be built,
    ``_from_dense_reference`` does.
    """
    a = _square(matrix)
    g = _from_dense_unchecked(a, kind)
    if not np.array_equal(a, a.T):
        raise AsymmetricDuplicate("dense input is not symmetric")
    return g


def _square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareInput(f"expected a square matrix, got shape {a.shape}")
    return a


def _from_dense_unchecked(
    a: np.ndarray, kind: str, mean: bool = False
) -> SparseSymmetricMeasure:
    """CSR measure of a square matrix's nonzeros, read in row-major order,
    or with mean of those of (a + a.T) / 2.0.

    ``ksets_dense`` sizes the arrays in a first call and fills them in a
    second, so that beyond the matrix only the result's arrays are
    allocated.
    """
    from ._kernel import load, parts

    library = load()
    if library is None:
        return _from_dense_reference(a, kind, mean)
    n = a.shape[0]
    a = np.ascontiguousarray(a, dtype=np.float64)
    indptr = np.empty(n + 1, dtype=np.int64)
    split = parts(n * n)
    m = library.ksets_dense(
        n, a, mean, 0, indptr, np.empty(0, dtype=np.int64), np.empty(0), split
    )
    indices = np.empty(m, dtype=np.int64)
    data = np.empty(m)
    if m:
        library.ksets_dense(n, a, mean, m, indptr, indices, data, split)
    return SparseSymmetricMeasure(n, kind, indptr, indices, data)


def _from_dense_reference(
    a: np.ndarray, kind: str, mean: bool
) -> SparseSymmetricMeasure:
    """numpy ``_from_dense_unchecked``: the compiled ``ksets_dense``'s
    oracle and fallback."""
    if mean:
        # An overflow to inf, or inf + -inf = nan, is reported by the
        # constructor as NonFiniteValue.
        with np.errstate(over="ignore", invalid="ignore"):
            a = (a + a.T) / 2.0
    keys = np.flatnonzero(a)
    return _from_keys(a.shape[0], kind, keys, a.take(keys))


def _from_keys(n: int, kind: str, keys: np.ndarray, values) -> SparseSymmetricMeasure:
    """CSR measure of entries given as sorted, distinct keys row * n + column."""
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return SparseSymmetricMeasure(n, kind, indptr, keys % n, values)


def symmetrize(raw, kind: str = "similarity") -> SparseSymmetricMeasure:
    """Average a raw square matrix with its transpose and sparsify.

    The output value at (i, j) is (raw[i][j] + raw[j][i]) / 2, which
    is how an asymmetric latency matrix is turned into a semi-metric.
    An overflow to inf, or inf + -inf = nan, raises NonFiniteValue. The
    compiled ``ksets_dense`` averages and sparsifies in one row-major
    scan, with no n-by-n mean; when no kernel can be built,
    ``_from_dense_reference`` does.
    """
    return _from_dense_unchecked(_square(raw), kind, mean=True)


def measure_of_sets(g: SparseSymmetricMeasure, s1, s2) -> float:
    """Double sum of gamma(x, y) over x in s1, y in s2.

    Exact reference path for verifiers and oracles; the fast engine
    never calls this.
    """
    set1 = set(s1)
    set2 = set(s2)
    for i in set1 | set2:
        _check_index(i, g.n)
    if not set1 or not set2:
        return 0.0
    in1 = np.zeros(g.n, dtype=bool)
    in1[list(set1)] = True
    in2 = np.zeros(g.n, dtype=bool)
    in2[list(set2)] = True
    selected = in1[g.entry_rows()] & in2[g.indices]
    return float(g.data[selected].sum())


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of n points to k nonempty disjoint sets.

    assign maps point index to set index in [0, k) and sizes counts the
    points of each set, derived from assign. Both are read-only int64
    arrays that the partition owns, and the constructor copies and
    checks its input.
    """

    assign: np.ndarray
    k: int
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        assign = np.array(self.assign, dtype=np.int64)
        if assign.ndim != 1:
            raise ArityMismatch(f"expected a 1-D assignment, got shape {assign.shape}")
        if not assign.size:
            raise EmptySetInPartition("empty assignment")
        outside = (assign < 0) | (assign >= self.k)
        if outside.any():
            a = int(assign[np.argmax(outside)])
            raise IndexOutOfRange(f"set index {a} outside [0, {self.k})")
        sizes = np.bincount(assign, minlength=self.k)
        if not sizes.all():
            raise EmptySetInPartition(f"set {int(np.argmin(sizes))} is empty")
        assign.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def from_assign(cls, assign, k: int | None = None) -> "Partition":
        # astype truncates like int().
        values = np.asarray(assign).astype(np.int64)
        if k is None:
            k = int(values.max()) + 1 if values.size else 0
        return cls(values, k)

    @classmethod
    def from_sets(cls, sets, n: int | None = None) -> "Partition":
        sets = [list(s) for s in sets]
        if n is None:
            n = sum(len(s) for s in sets)
        assign = [-1] * n
        for idx, s in enumerate(sets):
            for p in s:
                _check_index(p, n)
                if assign[p] != -1:
                    raise DuplicateEntry(f"point {p} assigned twice")
                assign[p] = idx
        if any(a == -1 for a in assign):
            missing = assign.index(-1)
            raise ArityMismatch(f"point {missing} not covered by any set")
        return cls.from_assign(assign, k=len(sets))

    def validate(self):
        """Re-check the set indices that the kernels read through raw pointers.

        The arrays own their memory, so a caller can make them writeable
        again; the constructor's other guarantees hold by type.
        """
        if self.assign.min() < 0 or self.assign.max() >= self.k:
            raise IndexOutOfRange(f"a set index is outside [0, {self.k})")

    @property
    def n(self) -> int:
        return len(self.assign)

    def as_sets(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, a in enumerate(self.assign.tolist()):
            out[a].append(i)
        return out

    def relabel_by_first_occurrence(self) -> "Partition":
        """Renumber sets in order of first appearance along the points."""
        first = np.full(self.k, self.n, dtype=np.int64)
        np.minimum.at(first, self.assign, np.arange(self.n))
        rank = np.empty(self.k, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(self.k)
        return Partition(rank[self.assign], self.k)


def _check_covers(partition: Partition, n: int):
    """Re-check partition's set indices, then that it covers n points."""
    partition.validate()
    if partition.n != n:
        raise ArityMismatch(f"partition covers {partition.n} points, measure has {n}")
