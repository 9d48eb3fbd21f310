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

point_to_set is one C-contiguous float64 n-by-k array, and every set
sum comes from it: gbar and the objective sum each point's own-set cell
per set, and verify's K x K block sums add its cells by the point's set.
assign and sizes are int64 arrays and gbar a float64 array, so the
compiled pass kernel (_pass.c) updates all of them in place. The same
library fills the table from scratch, and runs run's restarts whole, one
per thread. The pure-Python pass, the numpy table and the restart loop
over init_state, _converge and objective_value are kept as the kernel's
bit-exact references and as the fallback when no kernel can be built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import KOutOfRange, KsetsError, WouldEmptySet
from .measure import Partition, SparseSymmetricMeasure, _check_covers, _check_index

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
        if self.seed < 0:
            raise KOutOfRange(f"seed={self.seed} must be >= 0")
        if self.restarts < 1:
            raise KOutOfRange(f"restarts={self.restarts} must be >= 1")
        if self.max_passes < 1:
            raise KOutOfRange(f"max_passes={self.max_passes} must be >= 1")
        if self.init_partition is not None:
            _check_covers(self.init_partition, n)
            if self.init_partition.k != self.k:
                raise KOutOfRange("initial partition has the wrong k")


class RestartRecord(NamedTuple):
    """What one restart did: its recomputed objective (on the scale of
    RunResult.objective), its pass count, whether its last pass moved
    nothing, each pass's move count, and the closeness evaluations and
    update operations of its passes. A named tuple, as a frozen dataclass
    would add about 1 ms to importing the package."""

    objective: float
    passes: int
    converged: bool
    moves: tuple[int, ...]
    ops_delta: int
    ops_update: int


@dataclass
class RunResult:
    partition: Partition
    objective: float
    passes: int
    history: list[float]
    converged: bool
    restart: int
    per_restart: list[RestartRecord]


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
        "objective",
        "ops_delta",
        "ops_update",
        "point_to_set",
    )

    def __init__(self, measure: SparseSymmetricMeasure, partition: Partition):
        _check_covers(partition, measure.n)
        self.measure = measure
        self.assign = partition.assign.copy()
        self.sizes = partition.sizes.copy()
        self.k = k = partition.k
        table = _point_to_set(measure, self.assign, k)
        set_self = _set_self_sums(table, self.assign, k).tolist()
        sizes = self.sizes.tolist()
        gbar = [set_self[c] / (sizes[c] * sizes[c]) for c in range(k)]
        self.gbar = np.array(gbar)
        # n-by-k gamma(x_i, S_k), the table the passes update in place.
        self.point_to_set = table.reshape(measure.n, k)
        self.objective = _sum_in_order(sizes[c] * gbar[c] for c in range(k))
        self.ops_delta = 0
        self.ops_update = 0

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
    from ._kernel import load, parts

    library = load()
    if library is None:
        return _point_to_set_reference(g, assign, k)
    # The kernel zeroes the table, each part its own rows.
    table = np.empty(g.n * k)
    library.ksets_scatter(
        g.n, k, g.indptr, g.indices, g.data, assign, table, parts(g.m)
    )
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


def _sum_in_order(terms) -> float:
    """0.0 plus the terms from left to right, the compiled kernel's order
    (sum() compensates its float additions from Python 3.12 on)."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _set_self_sums(table: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """gamma(S_c, S_c) for every set c from the flat point-to-set table.

    Each point's own-set cell is its row sum within its set, in entry
    order; bincount then adds these to their sets in point order.
    """
    own = table[np.arange(assign.size) * k + assign]
    return np.bincount(assign, weights=own, minlength=k)


def _adjusted(own: float, cell: float, size: int, gbar: float, inside: bool) -> float:
    """Adjusted triangular distance of a point to a set from its cached
    terms gamma(x, x), gamma(x, S), |S| and gbar(S); -inf for a point
    alone in its own set."""
    if inside and size == 1:
        return NEG_INF
    scale = size / (size - 1.0) if inside else size / (size + 1.0)
    return scale * (own - 2.0 * cell / size + gbar)


def fast_adjusted_delta(state: EngineState, x: int, k: int) -> float:
    """O(1) adjusted triangular distance from the cached tables."""
    _check_index(x, state.measure.n)
    _check_index(k, state.k)
    return _adjusted(
        float(state.measure.diag[x]), state.point_to_set.item(x, k),
        int(state.sizes[k]), float(state.gbar[k]), state.assign[x] == k,
    )


def _apply_move(state: EngineState, assign, sizes, gbar, x: int, src: int, dst: int):
    """Move x from src to dst in the caller's assign, sizes and gbar.

    sizes and gbar are lists that the caller writes back to the state,
    so this arithmetic runs on Python scalars for every caller.
    """
    sa = sizes[src]
    sb = sizes[dst]
    table = state.point_to_set
    measure = state.measure
    own = float(measure.diag[x])
    old_contribution = sa * gbar[src] + sb * gbar[dst]
    # Shrink the source self-average and grow the destination one in
    # closed form; both reduce to (set self-sum +- edge terms) / new size^2.
    gbar[src] = (sa * sa * gbar[src] - 2.0 * table.item(x, src) + own) / (
        (sa - 1) * (sa - 1)
    )
    gbar[dst] = (sb * sb * gbar[dst] + 2.0 * table.item(x, dst) + own) / (
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
    table[neighbors, src] -= values
    table[neighbors, dst] += values
    state.objective += (
        (sa - 1) * gbar[src] + (sb + 1) * gbar[dst] - old_contribution
    )
    state.ops_update += 2 * int(hi - lo) + 6


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
    moves = library.ksets_pass(
        g.n, state.k, g.indptr, g.indices, g.data, g.diag,
        state.assign, state.sizes, state.gbar, state.point_to_set, objective, ops,
    )
    state.objective = float(objective[0])
    state.ops_delta += int(ops[0])
    state.ops_update += int(ops[1])
    return moves


def _run_pass_reference(state: EngineState) -> int:
    """Pure-Python ``run_pass``: the compiled kernel's oracle and fallback."""
    measure = state.measure
    # Python scalars: the loop's reads and writes are faster on lists.
    diag = measure.diag.tolist()
    assign = state.assign.tolist()
    sizes = state.sizes.tolist()
    gbar = state.gbar.tolist()
    # A flat memoryview reads the table's cells as Python floats.
    rows = memoryview(state.point_to_set.reshape(-1))
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
        best = _adjusted(own, rows[base + src], src_size, gbar[src], True)
        target = src
        for c in range(k):
            if c == src:
                continue
            cand = _adjusted(own, rows[base + c], sizes[c], gbar[c], False)
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
    _check_covers(partition, g.n)
    assign, k = partition.assign, partition.k
    per_set = _set_self_sums(_point_to_set(g, assign, k), assign, k).tolist()
    return _sum_in_order(s / size for s, size in zip(per_set, partition.sizes.tolist()))


def _converge(state: EngineState, max_passes: int):
    """Passes until one moves nothing or max_passes have run: the
    partition of the strictly highest objective seen (the start's
    included), each pass's objective, whether the last pass moved
    nothing, and each pass's move count."""
    history: list[float] = []
    moves: list[int] = []
    best_objective = state.objective
    best_assign = state.assign.copy()
    converged = False
    for _ in range(max_passes):
        moved = run_pass(state)
        history.append(state.objective)
        moves.append(moved)
        if state.objective > best_objective:
            best_objective = state.objective
            best_assign = state.assign.copy()
        if moved == 0:
            converged = True
            break
    return best_assign, history, converged, moves


def _start(config: RunConfig, n: int, r: int) -> Partition:
    return config.init_partition or random_balanced_partition(
        n, config.k, config.seed + r
    )


def _restarts_reference(g: SparseSymmetricMeasure, config: RunConfig):
    """Every restart in order, one after another, through init_state,
    _converge and objective_value: (best assign, objective_value of it,
    history, converged, moves per pass, ops_delta, ops_update)."""
    for r in range(config.restarts):
        state = init_state(g, _start(config, g.n, r))
        assign, history, converged, moves = _converge(state, config.max_passes)
        objective = objective_value(g, Partition(assign, config.k))
        yield assign, objective, history, converged, moves, state.ops_delta, state.ops_update


# History and move slots per restart for a first ksets_restarts call; a
# restart that fills them resumes in a call with twice as many.
_PASS_SLOTS = 128


def _restarts_compiled(library, g: SparseSymmetricMeasure, sign: float, config: RunConfig):
    """``_restarts_reference``'s tuples, from ksets_restarts on the measure
    with values data * sign. A batch of restarts runs in one call, each on
    a thread of its own, in arrays allocated once per run for one batch."""
    from ._kernel import parts

    n, k, total, max_passes = g.n, config.k, config.restarts, config.max_passes
    threads = min(total, parts(total * g.m))
    cap = min(max_passes, _PASS_SLOTS)
    assign = np.empty((threads, n), dtype=np.int64)
    best = np.empty_like(assign)
    sizes = np.empty((threads, k), dtype=np.int64)
    gbar = np.empty((threads, k))
    rows = np.empty((threads, n * k))
    moves = np.empty((threads, cap), dtype=np.int64)
    history = np.empty((threads, cap))
    stats = np.empty((threads, 4), dtype=np.int64)
    objective = np.empty((threads, 3))
    for first in range(0, total, threads):
        count = min(threads, total - first)
        for t in range(count):
            assign[t] = _start(config, n, first + t).assign
        stats[:] = 0
        while True:
            library.ksets_restarts(
                n, k, g.indptr, g.indices, g.data, g.diag, sign, count,
                parts(g.m), max_passes, cap, assign, best, sizes, gbar, rows,
                moves, history, stats, objective,
            )
            if np.all(stats[:count, 1] | (stats[:count, 0] == max_passes)):
                break  # every restart converged or ran max_passes
            grown = min(2 * cap, max_passes) - cap
            moves = np.hstack((moves, np.empty((threads, grown), dtype=np.int64)))
            history = np.hstack((history, np.empty((threads, grown))))
            cap += grown
        for t, (passes, converged, ops_delta, ops_update) in enumerate(stats[:count].tolist()):
            yield (
                best[t], float(objective[t, 2]), history[t, :passes].tolist(),
                bool(converged), moves[t, :passes].tolist(), ops_delta, ops_update,
            )


def run(g: SparseSymmetricMeasure, config: RunConfig) -> RunResult:
    """Multi-restart driver returning the best-objective partition.

    Restart r starts from a random-balanced partition seeded with
    seed + r (or from config.init_partition), so the outcome does not
    depend on scheduling. With the compiled kernel, the restarts run in
    batches of one per thread (``_kernel.parts`` of restarts * m), each
    batch in one C call; without it, one after another in Python. The
    reported objective is recomputed from scratch to shed any
    incremental drift. Ties go to the lowest restart index. A run cut
    off by max_passes contributes the best per-pass snapshot it saw and
    is flagged converged=False. per_restart records every restart, in
    order.

    A measure of kind "distance" is clustered as the similarity -d: it
    shares the CSR structure and negates the values. Under the induced
    cohesion the adjusted triangular distance of x to S is
    2 dbar(x, S) - dbar(S, S), the same as under -d, so the passes make
    the same moves without the dense n^2 transform. objective and
    history are reported on the induced-cohesion scale, which adds
    sum(d) / n: sum_k gamma(S_k, S_k) / |S_k| = sum(d) / n
    - sum_k d(S_k, S_k) / |S_k|. An unstored pair is distance 0.
    """
    from ._kernel import load

    config.validate(g.n)
    offset, sign = 0.0, 1.0
    if g.kind == "distance":
        offset, sign = float(g.data.sum()) / g.n, -1.0
    library = load()
    if library is not None:
        restarts = _restarts_compiled(library, g, sign, config)
    else:
        restarts = _restarts_reference(g._negated() if sign < 0 else g, config)
    records: list[RestartRecord] = []
    best: RunResult | None = None
    for r, (assign, objective, history, converged, moves, *ops) in enumerate(restarts):
        objective += offset
        records.append(RestartRecord(objective, len(history), converged, tuple(moves), *ops))
        if best is None or objective > best.objective:
            history = [h + offset for h in history]
            partition = Partition(assign, config.k)
            best = RunResult(partition, objective, len(history), history, converged, r, records)
    assert best is not None
    return best
