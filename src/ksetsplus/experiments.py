"""Experiment pipelines: signed-network benchmarks and geo/latency inputs.

The signed benchmark draws a two-block random graph: a positive edge
joins two same-block nodes with probability p_in, a negative edge joins
two cross-block nodes with probability p_out, and every edge's sign is
then flipped independently with crossover probability p. p_in and p_out
are solved from the target average degree c = (n/2 - 1) p_in + n p_out / 2
and the gap n (p_in - p_out) = diff. Clustering runs on the similarity
A + 0.5 A^2 built from the flipped signed adjacency, which lets the
engine see two-step relationships, and is scored by edge accuracy: the
fraction of surviving edges whose ground-truth sign agrees with whether
the detected partition keeps the endpoints together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import RunConfig, run
from .errors import (
    ArityMismatch,
    CoordinateOutOfRange,
    IndexOutOfRange,
    InvalidProbability,
    KOutOfRange,
)
from .measure import (
    Partition,
    SparseSymmetricMeasure,
    _from_dense_unchecked,
    _from_keys,
    build_from_triples,
)

EARTH_RADIUS_KM = 6371.0088
# Uniform draws per rng.random call in sbm_generate (512 KiB of float64).
_DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class SbmParams:
    """Two-block signed benchmark parameters.

    n: node count (even), split into two blocks of n/2.
    c: target average degree.
    diff: gap between scaled block rates, n * (p_in - p_out).
    p: independent sign-flip (crossover) probability, in [0, 0.5].
    seed: generator seed; draws happen in a fixed order.
    """

    n: int
    c: float
    diff: float
    p: float
    seed: int

    def probabilities(self) -> tuple[float, float]:
        if self.n < 4 or self.n % 2:
            raise InvalidProbability(f"n={self.n} must be even and >= 4")
        half = self.n // 2
        p_out = (self.c - (half - 1) * self.diff / self.n) / (self.n - 1)
        p_in = p_out + self.diff / self.n
        for name, value in (("p_in", p_in), ("p_out", p_out)):
            if not 0.0 <= value <= 1.0:
                raise InvalidProbability(f"derived {name}={value:.4g} outside [0, 1]")
        if not 0.0 <= self.p <= 0.5:
            raise InvalidProbability(f"p={self.p} outside [0, 0.5]")
        return p_in, p_out


@dataclass
class SignedGraph:
    """Signed edges with their pre-flip ground truth.

    Arrays are parallel over edges: endpoints (i, j), the observed sign
    after crossover flips, and the pre-flip truth sign. block holds the
    ground-truth block of every surviving node.
    """

    n: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    sign: np.ndarray
    truth_sign: np.ndarray
    block: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edge_i)

    def edges(self) -> list[tuple[int, int, int]]:
        return [
            (int(a), int(b), int(s))
            for a, b, s in zip(self.edge_i, self.edge_j, self.sign)
        ]


@dataclass(frozen=True)
class GeoPoint:
    """Latitude/longitude in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise CoordinateOutOfRange(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise CoordinateOutOfRange(f"longitude {self.lon} outside [-180, 180]")


def sbm_generate(params: SbmParams) -> SignedGraph:
    """Draw a signed two-block graph; isolated nodes are dropped.

    Every candidate pair gets one uniform draw, in a fixed order: the
    upper triangle of each block row by row, then the half-by-half cross
    block row by row, then one crossover draw per kept edge. The pair
    draws are made _DRAW_CHUNK at a time into one reused buffer, so
    memory is O(chunk + edges) while time stays O(n^2); the stream, and
    so every returned array, does not depend on the chunk size.

    Surviving nodes are renumbered densely, so the returned n can be
    smaller than params.n. Deterministic for a given seed.
    """
    p_in, p_out = params.probabilities()
    half = params.n // 2
    rng = np.random.default_rng(params.seed)
    buffer = np.empty(min(_DRAW_CHUNK, half * half))

    # Row r of a block's upper triangle starts at triangle position
    # r (half - 1) - r (r - 1) / 2, in np.triu_indices(half, 1) order.
    rows = np.arange(half, dtype=np.int64)
    row_start = rows * (half - 1) - rows * (rows - 1) // 2
    parts_i: list[np.ndarray] = []
    parts_j: list[np.ndarray] = []
    truth_parts: list[np.ndarray] = []
    for offset in (0, half):
        t = _kept_draws(rng, half * (half - 1) // 2, p_in, buffer)
        i = np.searchsorted(row_start, t, side="right") - 1
        parts_i.append(i + offset)
        parts_j.append(t - row_start[i] + i + 1 + offset)
        truth_parts.append(np.ones(len(t), dtype=np.int8))
    t = _kept_draws(rng, half * half, p_out, buffer)
    parts_i.append(t // half)
    parts_j.append(t % half + half)
    truth_parts.append(-np.ones(len(t), dtype=np.int8))

    edge_i = np.concatenate(parts_i)
    edge_j = np.concatenate(parts_j)
    truth = np.concatenate(truth_parts)
    flips = rng.random(len(edge_i)) < params.p
    sign = np.where(flips, -truth, truth).astype(np.int8)

    block = np.repeat(np.arange(2, dtype=np.int8), half)
    present = np.zeros(params.n, dtype=bool)
    present[edge_i] = True
    present[edge_j] = True
    survivors = np.nonzero(present)[0]
    renumber = np.full(params.n, -1, dtype=np.int64)
    renumber[survivors] = np.arange(len(survivors))
    return SignedGraph(
        n=len(survivors),
        edge_i=renumber[edge_i],
        edge_j=renumber[edge_j],
        sign=sign,
        truth_sign=truth,
        block=block[survivors],
    )


def _kept_draws(rng, count: int, prob: float, buffer: np.ndarray) -> np.ndarray:
    """Positions t in [0, count) whose uniform draw is below prob, in order.

    The draws are those of one rng.random(count), made len(buffer) at a
    time: PCG64's random() takes one 64-bit output per double and keeps
    nothing back, so chunking leaves the stream unchanged.
    """
    kept = [np.zeros(0, dtype=np.int64)]
    for base in range(0, count, len(buffer)):
        chunk = buffer[: min(len(buffer), count - base)]
        rng.random(out=chunk)
        kept.append(np.flatnonzero(chunk < prob) + base)
    return np.concatenate(kept)


def similarity_from_signed(graph: SignedGraph) -> SparseSymmetricMeasure:
    """Similarity A + 0.5 A^2 from the observed signed adjacency.

    A[i, j] sums the signs of the edges between i and j (a self loop
    counts twice), and the square is taken over stored neighbors only:
    every step i -> t meets each step t -> u, so the cost is the sum over
    nodes of deg(node)^2 rather than n^2. All terms are multiples of 0.5
    from integer signs, so the sums are exact in any order. Entries that
    cancel to exactly zero are dropped; diagonal entries (half the degree
    plus any self loops) are kept.

    The edges are checked first: parallel arrays of one length, and
    endpoints in [0, n). The compiled ``ksets_two_step`` (see
    ``_kernel``) then builds the CSR arrays in one row-wise pass with a
    dense accumulator; when no kernel can be built,
    ``_similarity_from_signed_reference`` does.
    """
    n = graph.n
    lengths = {len(graph.edge_i), len(graph.edge_j), len(graph.sign)}
    if len(lengths) != 1:
        raise ArityMismatch(
            f"edge arrays differ in length: edge_i {len(graph.edge_i)}, "
            f"edge_j {len(graph.edge_j)}, sign {len(graph.sign)}"
        )
    edge_i = np.ascontiguousarray(graph.edge_i, dtype=np.int64)
    edge_j = np.ascontiguousarray(graph.edge_j, dtype=np.int64)
    outside = (edge_i < 0) | (edge_i >= n) | (edge_j < 0) | (edge_j >= n)
    if outside.any():
        e = int(np.argmax(outside))
        raise IndexOutOfRange(
            f"edge {e} ({edge_i[e]}, {edge_j[e]}) has an endpoint outside [0, {n})"
        )
    if n < 1:  # as the constructor would, before the kernel writes indptr[n]
        raise ArityMismatch("a measure needs at least one point")
    sign = np.ascontiguousarray(graph.sign, dtype=np.float64)
    from ._kernel import load

    library = load()
    if library is None:
        return _similarity_from_signed_reference(n, edge_i, edge_j, sign)
    degree = np.bincount(edge_i, minlength=n) + np.bincount(edge_j, minlength=n)
    # Each step and each two-step walk touches at most one column, and no
    # row touches more than n; the kernel collects a row's touched columns
    # in indices, and on its sort side their sums in data, before it orders
    # and compacts them there.
    cap = min(int(degree.sum() + degree @ degree), n * n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(cap, dtype=np.int64)
    data = np.empty(cap)
    m = library.ksets_two_step(
        n, len(edge_i), edge_i, edge_j, sign, indptr, indices, data
    )
    if m < 0:
        raise MemoryError(
            f"cannot allocate the two-step scratch: an adjacency of "
            f"{2 * len(edge_i)} entries and work arrays for {n} points"
        )
    # Shrunk in place, so the arrays own exactly m entries.
    indices.resize(m, refcheck=False)
    data.resize(m, refcheck=False)
    return SparseSymmetricMeasure(n, "similarity", indptr, indices, data)


def _similarity_from_signed_reference(
    n: int, edge_i: np.ndarray, edge_j: np.ndarray, sign: np.ndarray
) -> SparseSymmetricMeasure:
    """numpy ``similarity_from_signed`` after its checks, on int64 endpoints
    and float64 signs: the compiled ``ksets_two_step``'s oracle and
    fallback.

    The square is taken by expanding every directed edge (i, j) into the
    two-step terms (i, t) over j's neighbors t, then summing equal keys.
    """
    src = np.concatenate([edge_i, edge_j])
    dst = np.concatenate([edge_j, edge_i])
    sign = np.concatenate([sign, sign])
    order = np.argsort(src, kind="stable")
    src, dst, sign = src[order], dst[order], sign[order]
    start = np.searchsorted(src, np.arange(n + 1))
    # Term p of edge e walks position start[dst[e]] + (p - first term of e).
    degree = np.diff(start)[dst]
    first = np.cumsum(degree) - degree
    step = np.repeat(start[dst] - first, degree) + np.arange(int(degree.sum()))
    keys = np.concatenate([src * n + dst, np.repeat(src * n, degree) + dst[step]])
    vals = np.concatenate([sign, np.repeat(0.5 * sign, degree) * sign[step]])
    keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=vals, minlength=len(keys))
    keep = sums != 0.0
    # np.unique sorts the keys, row * n + col, so they are in CSR order.
    return _from_keys(n, "similarity", keys[keep], sums[keep])


def edge_accuracy(
    graph: SignedGraph, partition: Partition, reference: str = "truth"
) -> float:
    """Fraction of edges whose sign the partition implies correctly.

    An edge counts as correct when its endpoints share a partition set
    exactly if the reference sign is positive. reference picks the
    pre-flip ground truth ("truth") or the observed post-flip signs
    ("observed"); recovery experiments score against the truth.
    """
    if partition.n != graph.n:
        raise ArityMismatch(
            f"partition covers {partition.n} points, graph has {graph.n}"
        )
    if partition.k != 2:
        raise ArityMismatch(f"edge accuracy is defined for k=2, got k={partition.k}")
    if reference not in ("truth", "observed"):
        raise ValueError(f"unknown reference {reference!r}")
    if graph.n_edges == 0:
        return 1.0
    ref = graph.truth_sign if reference == "truth" else graph.sign
    assign = partition.assign
    together = assign[graph.edge_i] == assign[graph.edge_j]
    correct = together == (ref > 0)
    return float(correct.mean())


def haversine_matrix(points) -> SparseSymmetricMeasure:
    """Great-circle distance matrix in kilometers between geo points."""
    pts = [p if isinstance(p, GeoPoint) else GeoPoint(*p) for p in points]
    lat = np.radians([p.lat for p in pts])
    lon = np.radians([p.lon for p in pts])
    dlat_half = (lat[:, None] - lat[None, :]) / 2.0
    dlon_half = (lon[:, None] - lon[None, :]) / 2.0
    a = (
        np.sin(dlat_half) ** 2
        + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon_half) ** 2
    )
    dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    np.fill_diagonal(dist, 0.0)
    return _from_dense_unchecked(dist, "distance")


@dataclass
class SweepRow:
    c: float
    p: float
    mean_accuracy: float
    ci95_halfwidth: float
    graphs: int


def accuracy_sweep(
    n: int,
    c_list,
    p_grid,
    graphs_per_point: int,
    seed: int,
    diff: float = 5.0,
    restarts: int = 1,
    max_passes: int = 100,
    reference: str = "truth",
) -> list[SweepRow]:
    """Edge accuracy over a (degree, crossover) grid.

    For every cell, graphs_per_point independent graphs are generated,
    clustered with k=2 on the A + 0.5 A^2 similarity, and scored; the
    row carries the mean and the normal-approximation 95% half-width.
    Cell seeds derive from (seed, cell, graph) so runs are reproducible
    and independent of evaluation order.
    """
    if graphs_per_point < 1:
        raise KOutOfRange(f"graphs_per_point={graphs_per_point} must be >= 1")
    rows = []
    for ci, c in enumerate(c_list):
        for pi, p in enumerate(p_grid):
            accuracies = []
            for g_idx in range(graphs_per_point):
                seq = np.random.SeedSequence((seed, ci, pi, g_idx))
                graph_seed, run_seed = (int(s) for s in seq.generate_state(2))
                graph = sbm_generate(SbmParams(n, c, diff=diff, p=p, seed=graph_seed))
                similarity = similarity_from_signed(graph)
                result = run(
                    similarity,
                    RunConfig(
                        k=2,
                        seed=run_seed,
                        restarts=restarts,
                        max_passes=max_passes,
                    ),
                )
                accuracies.append(edge_accuracy(graph, result.partition, reference))
            mean = float(np.mean(accuracies))
            if graphs_per_point > 1:
                half = 1.96 * float(np.std(accuracies, ddof=1)) / math.sqrt(
                    graphs_per_point
                )
            else:
                half = 0.0
            rows.append(SweepRow(float(c), float(p), mean, half, graphs_per_point))
    return rows


def random_sparse_similarity(
    n: int,
    avg_degree: float,
    seed: int,
    diagonal_fraction: float = 0.0,
) -> SparseSymmetricMeasure:
    """Random symmetric similarity with about avg_degree entries per row.

    Used by the benchmark command and as a generic engine test input.
    Values are uniform in [-1, 1); a fraction of points optionally
    receives a nonzero self-similarity.
    """
    rng = np.random.default_rng(seed)
    target_edges = int(round(avg_degree * n / 2.0))
    max_edges = n * (n - 1) // 2
    target_edges = min(target_edges, max_edges)
    # Pairs are taken in draw order, skipping self-pairs and repeats,
    # until target_edges distinct ones are held; a pair is a < b encoded
    # as a * n + b.
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < target_edges:
        need = target_edges - len(chosen)
        raw = rng.integers(0, n, size=(int(need * 1.5) + 8, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        pairs = raw.min(axis=1) * n + raw.max(axis=1)
        fresh, first = np.unique(pairs, return_index=True)
        new = ~np.isin(fresh, chosen)
        taken = fresh[new][np.argsort(first[new])][:need]
        chosen = np.concatenate([chosen, taken])
    chosen.sort()
    a, b = chosen // n, chosen % n
    v = rng.uniform(-1.0, 1.0, size=len(chosen))
    self_points: list[int] = []
    self_values: list[float] = []
    if diagonal_fraction > 0.0:
        for i in range(n):
            if rng.random() < diagonal_fraction:
                self_points.append(i)
                self_values.append(float(rng.uniform(-1.0, 1.0)))
    self_index = np.array(self_points, dtype=np.int64)
    # build_from_triples drops the zero draws.
    triples = np.column_stack(
        [
            np.concatenate([a, self_index]),
            np.concatenate([b, self_index]),
            np.concatenate([v, self_values]),
        ]
    )
    return build_from_triples(n, triples)
