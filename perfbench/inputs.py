"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed and returns the same input for
the same seed. The program only ever sees the files (or CLI flags) made
here; the arrays returned alongside stay in the benchmark so that it can
check the program's answers independently.
"""

from __future__ import annotations

import numpy as np

SPARSE_N = 100_000
SPARSE_DEGREE = 10
LATENCY_N = 1000
LATENCY_REGIONS = 5
SBM_GRAPHS = 8
SBM_POOL = 64  # graph seeds whose objectives pins.json holds

# Distinct stream tags keep one workload's draws independent of another's
# for the same seed.
_SPARSE_TAG, _LATENCY_TAG, _SBM_TAG = 1, 2, 3


def sparse_edges(path, seed: int):
    """Write an `i j value` similarity edge list; return (i, j, v).

    SPARSE_N points, SPARSE_N * SPARSE_DEGREE / 2 distinct unordered
    pairs drawn uniformly (each written once; the loader mirrors it), so
    m = SPARSE_N * SPARSE_DEGREE stored entries. Values are nonzero
    multiples of 1e-6 in (-1, 1) and survive the text round trip exactly.
    """
    n = SPARSE_N
    pairs = n * SPARSE_DEGREE // 2
    rng = np.random.default_rng((seed, _SPARSE_TAG))
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < pairs:
        a = rng.integers(0, n, size=pairs + pairs // 4, dtype=np.int64)
        b = rng.integers(0, n, size=a.size, dtype=np.int64)
        off = a != b
        a, b = a[off], b[off]
        drawn = np.minimum(a, b) * n + np.maximum(a, b)
        keys = np.unique(np.concatenate([keys, drawn]))
    keys = np.sort(rng.choice(keys, size=pairs, replace=False))
    i, j = keys // n, keys % n
    magnitude = rng.integers(1, 1_000_000, size=pairs)
    sign = np.where(rng.random(pairs) < 0.5, -1, 1)
    v = sign * magnitude / 1e6
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seeded similarity n={n} pairs={pairs}\n")
        fh.write("".join(f"{a} {b} {x!r}\n" for a, b, x in zip(i.tolist(), j.tolist(), v.tolist())))
    return i, j, v


def latency_csv(path, seed: int):
    """Write an asymmetric n-by-n round-trip-time CSV; return (raw, region).

    Hosts sit in LATENCY_REGIONS regions on a ring of about 60 ms radius.
    A path costs a fixed 2 ms, the planar distance, and both hosts'
    access delays; each direction then gets its own +-10% jitter, and 3%
    of directed paths take a 1.5x to 3x detour, which breaks the
    triangle inequality. Values are in ms with microsecond resolution.
    """
    n, regions = LATENCY_N, LATENCY_REGIONS
    rng = np.random.default_rng((seed, _LATENCY_TAG))
    angles = 2 * np.pi * np.arange(regions) / regions + rng.uniform(-0.2, 0.2, regions)
    centers = 60.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    region = rng.permutation(np.arange(n) % regions)
    points = centers[region] + rng.normal(0.0, 6.0, size=(n, 2))
    access = rng.uniform(0.5, 3.0, size=n)
    planar = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    base = 2.0 + planar + access[:, None] + access[None, :]
    raw = base * rng.uniform(0.9, 1.1, size=(n, n))
    detour = rng.random((n, n)) < 0.03
    raw[detour] *= rng.uniform(1.5, 3.0, size=int(detour.sum()))
    raw = np.rint(raw * 1000.0) / 1000.0
    np.fill_diagonal(raw, 0.0)
    d = (raw + raw.T) / 2.0
    di, dj = np.nonzero(detour)
    shortcut = np.min(d[di[:200]] + d[:, dj[:200]].T, axis=1)
    if not np.any(shortcut < d[di[:200], dj[:200]]):
        raise RuntimeError("latency input does not violate the triangle inequality")
    np.savetxt(path, raw, fmt="%.3f", delimiter=",")
    return raw, region


def sbm_graph_pool() -> list[int]:
    """The SBM_POOL graph seeds that signed_sbm draws from; pins.json
    holds the objective of every one of them."""
    return [int(s) for s in np.random.SeedSequence(_SBM_TAG).generate_state(SBM_POOL)]


def sbm_graph_seeds(seed: int) -> list[int]:
    """The SBM_GRAPHS distinct graph seeds, taken from the pool, that one
    signed_sbm round clusters."""
    pool = sbm_graph_pool()
    rng = np.random.default_rng((seed, _SBM_TAG))
    return [pool[i] for i in rng.choice(SBM_POOL, size=SBM_GRAPHS, replace=False)]
