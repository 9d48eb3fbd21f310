"""End-to-end acceptance gate.

One test per pinned criterion, each at its stated tolerance and runtime
budget; a passing test prints a single summary line (run with -s to see
them live).
"""

import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from ksetsplus.delta import adjusted_delta, delta_triangular
from ksetsplus.engine import (
    RunConfig,
    fast_adjusted_delta,
    init_state,
    random_balanced_partition,
    run,
    run_pass,
)
from ksetsplus.experiments import accuracy_sweep, random_sparse_similarity
from ksetsplus.io import load_dense_csv
from ksetsplus.measure import Partition
from ksetsplus.transforms import induced_cohesion, sigma_min
from ksetsplus.verify import pairwise_isolation_check

from oracles import check_shift_lemma, dual_distance, lift_similarity

from conftest import (
    all_two_partition_assigns,
    brute_objective,
    random_partition,
    random_semimetric,
    random_similarity_dense,
    triangle_violating_semimetric,
)

FIXTURE = Path(__file__).parent / "data" / "latency_fixture.csv"


def _finish(name: str, budget_s: float, start: float):
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"{name} took {elapsed:.3f}s, over its {budget_s:g}s budget"
    )
    print(f"ACCEPT {name}: PASS ({elapsed:.3f}s / {budget_s:g}s budget)")


def test_c01_negative_point_to_set_distance_pin():
    d = triangle_violating_semimetric()
    start = time.perf_counter()
    value = delta_triangular(d, 0, [1, 2])
    elapsed_call = time.perf_counter() - start
    assert value == -1.0
    assert elapsed_call < 1e-3
    _finish("01 negative-distance-pin", 0.001, start)


def test_c02_duality_round_trips():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_d = worst_g = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        d = random_semimetric(rng, n, vmax=10.0)
        back_d = dual_distance(induced_cohesion(d))
        worst_d = max(worst_d, np.abs(back_d.to_dense() - d.to_dense()).max())
        g = induced_cohesion(random_semimetric(rng, n, vmax=10.0))
        back_g = induced_cohesion(dual_distance(g))
        worst_g = max(
            worst_g,
            np.abs(
                back_g.to_dense() - g.to_dense()
            ).max(),
        )
    assert worst_d <= 1e-9, worst_d
    assert worst_g <= 1e-9, worst_g
    _finish("02 duality-round-trip", 5.0, start)


def test_c03_lifted_measures_are_valid():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(3, 25))
        dense = trial % 2 == 0
        g = random_similarity_dense(
            rng,
            n,
            low=-5.0,
            high=5.0,
            density=1.0 if dense else 0.5,
            diagonal=dense,
        )
        lifted = lift_similarity(g, sigma_min(g))
        assert lifted.sigma_used == sigma_min(g)
    _finish("03 lifted-measure-validity", 5.0, start)


def test_c04_shift_exactness_and_engine_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(6, 20))
        g = random_similarity_dense(rng, n, density=0.7)
        report = check_shift_lemma(
            g, sigma_min(g) + float(rng.uniform(0, 2)), samples=100,
            rng_seed=trial,
        )
        worst = max(worst, report.max_deviation)
        assert not report.failures
    assert worst <= 1e-9, worst

    for trial in range(50):
        n = int(rng.integers(8, 30))
        g = random_similarity_dense(rng, n, density=0.6)
        lifted = lift_similarity(g, sigma_min(g))
        k = int(rng.integers(2, 5))
        init = random_partition(rng, n, k)
        cfg = RunConfig(k=k, seed=trial, init_partition=init)
        res_raw = run(g, cfg)
        res_lift = run(lifted, cfg)
        assert res_raw.partition.assign.tolist() == res_lift.partition.assign.tolist()
    _finish("04 shift-exactness", 30.0, start)


def test_c05_monotone_convergence_at_scale():
    start = time.perf_counter()
    for seed in range(500):
        rng = np.random.default_rng(50_000 + seed)
        n = int(rng.integers(20, 201))
        k = int(rng.integers(2, 9))
        g = random_sparse_similarity(
            n,
            float(rng.uniform(3, 10)),
            seed=seed,
            diagonal_fraction=0.3,
        )
        result = run(g, RunConfig(k=k, seed=seed, max_passes=100))
        assert result.converged, (seed, n, k)
        assert all(
            later >= earlier - 1e-12
            for earlier, later in zip(result.history, result.history[1:])
        ), seed
    _finish("05 monotone-convergence", 120.0, start)


def test_c06_fixed_points_are_local_optima():
    start = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(60_000 + seed)
        n = int(rng.integers(5, 13))
        k = int(rng.integers(2, min(5, n)))
        g = random_similarity_dense(
            rng, n, density=float(rng.uniform(0.4, 1.0))
        )
        result = run(g, RunConfig(k=k, seed=seed))
        assert result.converged
        base = brute_objective(g, result.partition.assign)
        tol = 1e-9 * max(1.0, abs(base))
        for x in range(n):
            src = result.partition.assign[x]
            if result.partition.sizes[src] < 2:
                continue
            for dst in range(k):
                if dst == src:
                    continue
                moved = list(result.partition.assign)
                moved[x] = dst
                assert brute_objective(g, moved) <= base + tol, (seed, x, dst)
    _finish("06 local-optimality", 30.0, start)


def test_c07_pairwise_isolation_guarantee():
    start = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(70_000 + seed)
        n = int(rng.integers(8, 41))
        g = induced_cohesion(random_semimetric(rng, n))
        k = int(rng.integers(2, 7))
        result = run(g, RunConfig(k=k, seed=seed))
        assert result.converged
        report = pairwise_isolation_check(g, result.partition)
        assert report.min_slack >= -1e-9, (seed, report.min_slack)
    _finish("07 pairwise-isolation", 60.0, start)


def test_c08_fast_path_matches_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    probes = 0
    while probes < 10_000:
        n = int(rng.integers(6, 51))
        k = int(rng.integers(2, min(7, n)))
        g = random_similarity_dense(
            rng, n, density=float(rng.uniform(0.2, 1.0))
        )
        part = random_partition(rng, n, k)
        state = init_state(g, part)
        sets = part.as_sets()
        for _ in range(250):
            x = int(rng.integers(n))
            c = int(rng.integers(k))
            fast = fast_adjusted_delta(state, x, c)
            slow = adjusted_delta(g, x, sets[c])
            if math.isinf(slow):
                assert math.isinf(fast) and fast < 0
            else:
                assert fast == pytest.approx(slow, rel=1e-6, abs=1e-9)
            probes += 1

    for seed in range(25):
        rng = np.random.default_rng(81_000 + seed)
        n = int(rng.integers(20, 80))
        g = random_sparse_similarity(n, 8.0, seed=seed, diagonal_fraction=0.2)
        k = int(rng.integers(2, 6))
        state = init_state(g, random_partition(rng, n, k))
        while run_pass(state):
            pass
        fresh = init_state(g, state.partition)
        assert np.allclose(state.gbar, fresh.gbar, rtol=1e-6, atol=1e-9)
        assert np.allclose(
            state.point_to_set, fresh.point_to_set, rtol=1e-6, atol=1e-9
        )
        assert state.objective == pytest.approx(
            fresh.objective, rel=1e-6, abs=1e-9
        )
    _finish("08 fast-path-oracle", 60.0, start)


def test_c09_toy_scale_global_optimum_rate():
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(90_000 + seed)
        n = int(rng.integers(4, 11))
        if seed % 2 == 0:
            g = induced_cohesion(random_semimetric(rng, n))
        else:
            g = random_similarity_dense(
                rng, n, density=float(rng.uniform(0.5, 1.0))
            )
        best = max(
            brute_objective(g, assign)
            for assign in all_two_partition_assigns(n)
        )
        result = run(g, RunConfig(k=2, seed=seed, restarts=50))
        if abs(result.objective - best) <= 1e-9 * max(1.0, abs(best)):
            hits += 1
    assert hits >= 90, f"global optimum found in only {hits}/100 instances"
    _finish("09 toy-global-optimum", 120.0, start)


def test_c10_scaled_signed_benchmark():
    start = time.perf_counter()
    rows = accuracy_sweep(
        n=1000,
        c_list=[10.0],
        p_grid=[0.10, 0.20],
        graphs_per_point=10,
        seed=1010,
        restarts=1,
    )
    by_p = {row.p: row for row in rows}
    assert by_p[0.10].mean_accuracy >= 0.95, by_p[0.10]
    assert by_p[0.20].mean_accuracy >= 0.88, by_p[0.20]
    _finish("10 signed-benchmark", 600.0, start)


def test_c11_linear_scaling():
    start = time.perf_counter()
    k = 5
    window = 8
    sizes = (10_000, 20_000)
    graphs = {n: random_sparse_similarity(n, 10.0, seed=7) for n in sizes}
    # Alternate the two sizes' windows and compare each n=20k window with
    # the n=10k window just before it, so that a change in host speed
    # during the test slows both sides of a ratio alike. A compiled pass
    # makes a window a few milliseconds long, and the median over pairs
    # sheds a pair that straddles such a change.
    ratios = []
    for _ in range(5):
        per_pass = {}
        for n in sizes:
            state = init_state(graphs[n], random_balanced_partition(n, k, seed=3))
            t0 = time.perf_counter()
            for _ in range(window):
                run_pass(state)
            per_pass[n] = (time.perf_counter() - t0) / window
        ratios.append(per_pass[20_000] / per_pass[10_000])

    for n, g in graphs.items():
        # Op-count bound over a full convergence run.
        state = init_state(g, random_balanced_partition(n, k, seed=3))
        budget = 2 * (k * n + 2 * g.m)
        for _ in range(100):
            before = state.ops_delta + state.ops_update
            moved = run_pass(state)
            assert state.ops_delta + state.ops_update - before <= budget
            if not moved:
                break
    ratio = statistics.median(ratios)
    assert ratio <= 2.5, f"per-pass time grew {ratio:.2f}x when n doubled"
    _finish("11 linear-scaling", 300.0, start)


def test_c12_semi_metric_latency_fixture():
    start = time.perf_counter()
    latency, dataset = load_dense_csv(FIXTURE, kind="distance", header=True)
    assert latency.value(0, 1) == 250.0
    assert latency.value(1, 2) == 138.0
    assert latency.value(0, 2) == 400.0
    assert latency.value(0, 1) + latency.value(1, 2) < latency.value(0, 2)
    cohesion = induced_cohesion(latency)
    result = run(cohesion, RunConfig(k=3, seed=0, restarts=5))
    assert result.converged
    report = pairwise_isolation_check(cohesion, result.partition)
    assert report.min_slack >= -1e-9, report.min_slack
    _finish("12 latency-fixture", 1.0, start)
