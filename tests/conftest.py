"""Shared instance generators and brute-force oracles."""

from __future__ import annotations

import itertools
import shutil

import numpy as np
import pytest

from ksetsplus import _kernel
from ksetsplus.measure import (
    Partition,
    SparseSymmetricMeasure,
    build_from_triples,
    from_dense,
    measure_of_sets,
)
from ksetsplus.transforms import induced_cohesion

# Tests of a compiled routine itself, which no-compiler platforms skip;
# everything else must pass there on the references.
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """_kernel.load() with an empty cache directory and no memoized kernel."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.load.cache_clear()
    yield tmp_path / "ksetsplus"
    _kernel.load.cache_clear()


@pytest.fixture
def no_kernel(fresh_loader, monkeypatch):
    """No compiler can be found, so every caller runs its reference code."""
    monkeypatch.setattr(_kernel, "COMMAND", ("ksetsplus-no-such-cc",))
    assert _kernel.load() is None


def triangle_violating_semimetric() -> SparseSymmetricMeasure:
    """Three points where the far pair exceeds the sum of the near ones."""
    return build_from_triples(
        3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 6.0)], kind="distance"
    )


@pytest.fixture
def semimetric3():
    return triangle_violating_semimetric()


@pytest.fixture
def cohesion3(semimetric3):
    return induced_cohesion(semimetric3)


def random_semimetric(rng, n: int, vmax: float = 10.0) -> SparseSymmetricMeasure:
    upper = np.triu(rng.uniform(0.0, vmax, size=(n, n)), k=1)
    return from_dense(upper + upper.T, kind="distance")


def random_cohesion(rng, n: int, vmax: float = 10.0):
    return induced_cohesion(random_semimetric(rng, n, vmax))


def random_similarity_dense(
    rng,
    n: int,
    low: float = -1.0,
    high: float = 1.0,
    density: float = 1.0,
    diagonal: bool = True,
) -> SparseSymmetricMeasure:
    """Symmetric similarity with signed values and optional diagonals."""
    upper = np.triu(rng.uniform(low, high, size=(n, n)), k=1)
    if density < 1.0:
        upper *= np.triu(rng.random((n, n)) < density, k=1)
    full = upper + upper.T
    if diagonal:
        full[np.diag_indices(n)] = rng.uniform(low, high, size=n)
    return from_dense(full, kind="similarity")


def traced_pass(sweep, state, trace: list) -> int:
    """Run one sweep and append its moves (x, src, dst) to trace.

    A pass visits each point once, in index order, and moves only the
    point it visits, so its moves in order are the assign entries it
    changed. Returns the sweep's move count, checked against them.
    """
    before = state.assign.copy()
    moves = sweep(state)
    changed = np.flatnonzero(before != state.assign)
    assert changed.size == moves
    after = state.assign[changed]
    trace.extend(zip(changed.tolist(), before[changed].tolist(), after.tolist()))
    return moves


def brute_objective(g: SparseSymmetricMeasure, assign) -> float:
    """Objective via the exact double-sum reference path."""
    k = max(assign) + 1
    sets = [[] for _ in range(k)]
    for i, a in enumerate(assign):
        sets[a].append(i)
    return sum(
        measure_of_sets(g, s, s) / len(s) for s in sets if s
    )


def all_two_partition_assigns(n: int):
    """Every split into two nonempty sets, point 0 pinned to set 0."""
    for bits in range(1, 2 ** (n - 1)):
        assign = [0] * n
        for p in range(1, n):
            if bits >> (p - 1) & 1:
                assign[p] = 1
        yield assign


def nonempty_subsets(n: int, proper: bool = False):
    points = range(n)
    top = n - 1 if proper else n
    for size in range(1, top + 1):
        yield from itertools.combinations(points, size)


def random_partition(rng, n: int, k: int) -> Partition:
    """Uniform assignment conditioned on every set being nonempty."""
    while True:
        assign = [int(a) for a in rng.integers(0, k, size=n)]
        if len(set(assign)) == k:
            return Partition.from_assign(assign, k=k)
