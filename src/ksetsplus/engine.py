"""Iterative K-sets+ engine with O(Kn + m) incremental passes.

The engine caches, per set k, the size-normalized self-sum
gbar[k] = gamma(S_k, S_k) / |S_k|^2 and, per point i, the row
point_to_set[i][k] = gamma(x_i, S_k). With those two tables the adjusted
triangular distance from any point to any set costs O(1):

    delta(x, S_k) = gamma(x,x) - 2 * point_to_set[x][k] / |S_k| + gbar[k]

rescaled by |S_k|/(|S_k| +- 1) per membership. Moving a point x from set
a to set b updates gbar[a] and gbar[b] in O(1) closed form and touches
point_to_set only on the rows of x's stored neighbors, so a full pass
over the points costs O(Kn + m). Each accepted move strictly increases
the objective sum_k gamma(S_k, S_k) / |S_k|, which bounds the number of
passes on exact arithmetic; max_passes guards against float near-ties.

point_to_set is held as one flat unboxed double buffer (row-major n by
k); the compact layout keeps passes cache-friendly at n in the tens of
thousands. assign and sizes are int64 arrays and gbar a float64 array,
so the compiled pass kernel (_pass.c) updates all of them in place. The
same library builds the point-to-set table and sums the objective from
scratch. The pure-Python pass and the numpy table and objective sums are
kept as the kernel's bit-exact references and as the fallback when no
kernel can be built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, KOutOfRange, KsetsError, WouldEmptySet
from .measure import Partition, SparseSymmetricMeasure, _check_index

NEG_INF = float("-inf")


@dataclass
class RunConfig:
    """Knobs for a multi-restart engine run.

    init_partition overrides the default seeded random-balanced start;
    with it set, every restart begins from the same partition.
    """

    k: int
    seed: int = 0
    restarts: int = 1
    max_passes: int = 100
    init_partition: Partition | None = None

    def validate(self, n: int):
        if not 2 <= self.k <= n:
            raise KOutOfRange(f"k={self.k} outside [2, {n}]")
        if self.restarts < 1:
            raise KOutOfRange(f"restarts={self.restarts} must be >= 1")
        if self.max_passes < 1:
            raise KOutOfRange(f"max_passes={self.max_passes} must be >= 1")
        if self.init_partition is not None:
            if self.init_partition.n != n:
                raise ArityMismatch(
                    f"partition covers {self.init_partition.n} points, measure has {n}"
                )
            if self.init_partition.k != self.k:
                raise KOutOfRange("initial partition has the wrong k")


@dataclass
class RunResult:
    partition: Partition
    objective: float
    passes: int
    history: list[float]
    converged: bool
    restart: int


class EngineState:
    """Mutable per-run state: partition plus the two cached tables.

    Confine an instance to one worker; the measure it references is
    shared immutably. ops_delta and ops_update count closeness
    evaluations and incremental update operations for complexity tests.
    """

    __slots__ = (
        "measure",
        "assign",
        "sizes",
        "k",
        "gbar",
        "point_rows",
        "objective",
        "ops_delta",
        "ops_update",
        "trace",
        "point_to_set",
    )

    def __init__(self, measure: SparseSymmetricMeasure, partition: Partition):
        partition.validate()
        if partition.n != measure.n:
            raise ArityMismatch(
                f"partition covers {partition.n} points, measure has {measure.n}"
            )
        self.measure = measure
        self.assign = partition.assign.copy()
        self.sizes = partition.sizes.copy()
        self.k = partition.k
        n, k = measure.n, partition.k
        assign = self.assign
        table = _point_to_set(measure, assign, k)
        own = table[np.arange(n) * k + assign]
        set_self = np.bincount(assign, weights=own, minlength=k).tolist()
        sizes = self.sizes.tolist()
        gbar = [set_self[c] / (sizes[c] * sizes[c]) for c in range(k)]
        self.gbar = np.array(gbar)
        self.point_rows = array("d", table.tobytes())
        # n-by-k view of gamma(x_i, S_k); shares the live buffer.
        self.point_to_set = np.frombuffer(self.point_rows, dtype=float).reshape(n, k)
        self.objective = sum(sizes[c] * gbar[c] for c in range(k))
        self.ops_delta = 0
        self.ops_update = 0
        self.trace: list[tuple[int, int, int]] | None = None

    @property
    def partition(self) -> Partition:
        return Partition(self.assign, self.k)


def init_state(g: SparseSymmetricMeasure, partition: Partition) -> EngineState:
    """Build the cached tables from scratch in O(Kn + m)."""
    return EngineState(g, partition)


def _point_to_set(
    g: SparseSymmetricMeasure, assign: np.ndarray, k: int
) -> np.ndarray:
    """Flat n-by-k table of gamma(x_i, S_c), each cell summed in entry order.

    assign is an int64 array of g.n set indices in [0, k), checked by the
    caller; the compiled kernel reads it through a raw pointer.
    """
    from ._kernel import load

    library = load()
    if library is None:
        return _point_to_set_reference(g, assign, k)
    table = np.zeros(g.n * k)
    library.ksets_scatter(g.n, k, g.indptr, g.indices, g.data, assign, None, table)
    return table


def _point_to_set_reference(
    g: SparseSymmetricMeasure, assign: np.ndarray, k: int
) -> np.ndarray:
    """numpy ``_point_to_set``: the compiled kernel's oracle and fallback."""
    # bincount accumulates in entry order, so each table cell sums its
    # terms in the same order as a row-by-row scan would.
    return np.bincount(
        g.entry_rows() * k + assign[g.indices], weights=g.data, minlength=g.n * k
    )


def fast_adjusted_delta(state: EngineState, x: int, k: int) -> float:
    """O(1) adjusted triangular distance from the cached tables."""
    _check_index(x, state.measure.n)
    _check_index(k, state.k)
    size = int(state.sizes[k])
    base = (
        float(state.measure.diag[x])
        - 2.0 * state.point_rows[x * state.k + k] / size
        + float(state.gbar[k])
    )
    if state.assign[x] == k:
        if size == 1:
            return NEG_INF
        return size / (size - 1.0) * base
    return size / (size + 1.0) * base


def _apply_move(state: EngineState, assign, sizes, gbar, x: int, src: int, dst: int):
    """Move x from src to dst in the caller's assign, sizes and gbar.

    sizes and gbar are lists that the caller writes back to the state,
    so this arithmetic runs on Python scalars for every caller.
    """
    k = state.k
    sa = sizes[src]
    sb = sizes[dst]
    point_rows = state.point_rows
    base = x * k
    measure = state.measure
    own = float(measure.diag[x])
    old_contribution = sa * gbar[src] + sb * gbar[dst]
    # Shrink the source self-average and grow the destination one in
    # closed form; both reduce to (set self-sum +- edge terms) / new size^2.
    gbar[src] = (sa * sa * gbar[src] - 2.0 * point_rows[base + src] + own) / (
        (sa - 1) * (sa - 1)
    )
    gbar[dst] = (sb * sb * gbar[dst] + 2.0 * point_rows[base + dst] + own) / (
        (sb + 1) * (sb + 1)
    )
    sizes[src] = sa - 1
    sizes[dst] = sb + 1
    assign[x] = dst
    lo, hi = measure.indptr[x], measure.indptr[x + 1]
    neighbors = measure.indices[lo:hi]
    values = measure.data[lo:hi]
    # A row holds each neighbor once, so the fancy-indexed updates are
    # the same per-cell subtractions and additions as a scalar loop.
    view = state.point_to_set
    view[neighbors, src] -= values
    view[neighbors, dst] += values
    state.objective += (
        (sa - 1) * gbar[src] + (sb + 1) * gbar[dst] - old_contribution
    )
    state.ops_update += 2 * int(hi - lo) + 6
    if state.trace is not None:
        state.trace.append((x, src, dst))


def reassign_point(state: EngineState, x: int, to: int) -> EngineState:
    """Move one point to another set, updating the caches incrementally."""
    _check_index(x, state.measure.n)
    _check_index(to, state.k)
    src = int(state.assign[x])
    if to == src:
        raise KsetsError(f"point {x} is already in set {to}")
    if state.sizes[src] < 2:
        raise WouldEmptySet(f"moving point {x} would empty set {src}")
    sizes, gbar = state.sizes.tolist(), state.gbar.tolist()
    _apply_move(state, state.assign, sizes, gbar, x, src, to)
    state.sizes[:] = sizes
    state.gbar[:] = gbar
    return state


def run_pass(state: EngineState) -> int:
    """One sweep over all points in index order; returns the move count.

    A point moves only when some other set is strictly closer in
    adjusted triangular distance than its current one; ties keep the
    current set, and ties among other sets go to the lowest index.
    Moves take effect immediately, so later points see earlier moves.

    The sweep runs in the compiled kernel, loaded (and built if not yet
    cached) on the first call, see ``_kernel``; when no kernel can be
    built it runs ``_run_pass_reference``.
    Both give the same moves, tables and objective bit for bit.
    """
    from ._kernel import load

    library = load()
    if library is None:
        return _run_pass_reference(state)
    g = state.measure
    objective = np.array([state.objective])
    ops = np.zeros(2, dtype=np.int64)
    trace = None if state.trace is None else np.empty(3 * g.n, dtype=np.int64)
    moves = library.ksets_pass(
        g.n, state.k, g.indptr, g.indices, g.data, g.diag,
        state.assign, state.sizes, state.gbar, state.point_to_set,
        objective, ops, None if trace is None else trace.ctypes.data,
    )
    state.objective = float(objective[0])
    state.ops_delta += int(ops[0])
    state.ops_update += int(ops[1])
    if trace is not None:
        state.trace.extend(map(tuple, trace[: 3 * moves].reshape(-1, 3).tolist()))
    return moves


def _run_pass_reference(state: EngineState) -> int:
    """Pure-Python ``run_pass``: the compiled kernel's oracle and fallback."""
    measure = state.measure
    # Python scalars: the loop's reads and writes are faster on lists.
    diag = measure.diag.tolist()
    assign = state.assign.tolist()
    sizes = state.sizes.tolist()
    gbar = state.gbar.tolist()
    point_rows = state.point_rows
    k = state.k
    moves = 0
    evaluations = 0
    for x in range(measure.n):
        src = assign[x]
        src_size = sizes[src]
        if src_size == 1:
            # Own adjusted distance is -inf; nothing can beat it.
            continue
        evaluations += k
        base = x * k
        own = diag[x]
        best = (src_size / (src_size - 1.0)) * (
            own - 2.0 * point_rows[base + src] / src_size + gbar[src]
        )
        target = src
        for c in range(k):
            if c == src:
                continue
            size = sizes[c]
            cand = (size / (size + 1.0)) * (
                own - 2.0 * point_rows[base + c] / size + gbar[c]
            )
            if cand < best:
                best = cand
                target = c
        if target != src:
            _apply_move(state, assign, sizes, gbar, x, src, target)
            moves += 1
    state.assign[:] = assign
    state.sizes[:] = sizes
    state.gbar[:] = gbar
    state.ops_delta += evaluations
    return moves


def random_balanced_partition(n: int, k: int, seed: int) -> Partition:
    """Seeded near-equal split: point i goes to set perm(i) mod k."""
    if not 2 <= k <= n:
        raise KOutOfRange(f"k={k} outside [2, {n}]")
    perm = np.random.default_rng(seed).permutation(n)
    return Partition(perm % k, k)


def objective_value(g: SparseSymmetricMeasure, partition: Partition) -> float:
    """From-scratch objective sum_k gamma(S_k, S_k) / |S_k|."""
    partition.validate()
    if partition.n != g.n:
        raise ArityMismatch(
            f"partition covers {partition.n} points, measure has {g.n}"
        )
    per_set = _within_set_sums(g, partition.assign, partition.k).tolist()
    return sum(s / size for s, size in zip(per_set, partition.sizes.tolist()))


def _within_set_sums(
    g: SparseSymmetricMeasure, assign: np.ndarray, k: int
) -> np.ndarray:
    """gamma(S_c, S_c) for every set c, in the reference summation order.

    Each row's same-set entries are summed in entry order, then the row
    sums are added to their sets in row order. assign is checked by the
    caller, as for ``_point_to_set``.
    """
    from ._kernel import load

    library = load()
    if library is None:
        return _within_set_sums_reference(g, assign, k)
    per_set = np.zeros(k)
    library.ksets_within(g.n, g.indptr, g.indices, g.data, assign, per_set)
    return per_set


def _within_set_sums_reference(
    g: SparseSymmetricMeasure, assign: np.ndarray, k: int
) -> np.ndarray:
    """numpy ``_within_set_sums``: the compiled kernel's oracle and fallback."""
    rows = g.entry_rows()
    same = assign[rows] == assign[g.indices]
    # Two bincounts keep the reference summation order: entries within a
    # row, then rows within a set, both in index order.
    per_row = np.bincount(rows[same], weights=g.data[same], minlength=g.n)
    return np.bincount(assign, weights=per_row, minlength=k)


def _converge(state: EngineState, max_passes: int):
    history: list[float] = []
    best_objective = state.objective
    best_assign = state.assign.copy()
    converged = False
    passes = 0
    for _ in range(max_passes):
        moved = run_pass(state)
        passes += 1
        history.append(state.objective)
        if state.objective > best_objective:
            best_objective = state.objective
            best_assign = state.assign.copy()
        if moved == 0:
            converged = True
            break
    return best_assign, history, passes, converged


def run(g: SparseSymmetricMeasure, config: RunConfig) -> RunResult:
    """Multi-restart driver returning the best-objective partition.

    Restart r starts from a random-balanced partition seeded with
    seed + r (or from config.init_partition), so the outcome does not
    depend on scheduling; the runs themselves execute sequentially.
    The reported objective is recomputed from scratch to shed any
    incremental drift. Ties go to the lowest restart index. A run cut
    off by max_passes contributes the best per-pass snapshot it saw and
    is flagged converged=False.

    A measure of kind "distance" is clustered as the similarity -d: it
    shares the CSR structure and negates the values. Under the induced
    cohesion the adjusted triangular distance of x to S is
    2 dbar(x, S) - dbar(S, S), the same as under -d, so the passes make
    the same moves without the dense n^2 transform. objective and
    history are reported on the induced-cohesion scale, which adds
    sum(d) / n: sum_k gamma(S_k, S_k) / |S_k| = sum(d) / n
    - sum_k d(S_k, S_k) / |S_k|. An unstored pair is distance 0.
    """
    config.validate(g.n)
    offset = 0.0
    if g.kind == "distance":
        offset = float(g.data.sum()) / g.n
        g = SparseSymmetricMeasure(g.n, "similarity", g.indptr, g.indices, -g.data)
    best: RunResult | None = None
    for r in range(config.restarts):
        start = config.init_partition or random_balanced_partition(
            g.n, config.k, config.seed + r
        )
        state = init_state(g, start)
        assign, history, passes, converged = _converge(state, config.max_passes)
        partition = Partition(assign, config.k)
        objective = objective_value(g, partition) + offset
        if best is None or objective > best.objective:
            history = [h + offset for h in history]
            best = RunResult(partition, objective, passes, history, converged, r)
    assert best is not None
    return best
