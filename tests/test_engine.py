import math

import numpy as np
import pytest

from ksetsplus import engine
from ksetsplus.delta import adjusted_delta
from ksetsplus.engine import (
    RunConfig,
    fast_adjusted_delta,
    init_state,
    objective_value,
    random_balanced_partition,
    reassign_point,
    run,
    run_pass,
)
from ksetsplus.errors import (
    ArityMismatch,
    KOutOfRange,
    KsetsError,
    WouldEmptySet,
)
from ksetsplus.measure import (
    Partition,
    SparseSymmetricMeasure,
    build_from_triples,
    from_dense,
)
from ksetsplus.transforms import lift_similarity, sigma_min

from conftest import (
    all_two_partition_assigns,
    brute_objective,
    random_cohesion,
    random_partition,
    random_similarity_dense,
    traced_pass,
)


def assert_state_matches_scratch(state, rtol=1e-6, atol=1e-9):
    fresh = init_state(state.measure, state.partition)
    assert np.allclose(state.gbar, fresh.gbar, rtol=rtol, atol=atol)
    assert np.allclose(
        state.point_to_set, fresh.point_to_set, rtol=rtol, atol=atol
    )
    assert state.objective == pytest.approx(fresh.objective, rel=rtol, abs=atol)


class TestInitState:
    def test_zero_measure(self):
        g = build_from_triples(4, [])
        state = init_state(g, Partition.from_assign([0, 0, 1, 1], k=2))
        assert state.gbar.tolist() == [0.0, 0.0]
        assert state.objective == 0.0

    def test_fixture_partition_objective(self, cohesion3):
        state = init_state(
            cohesion3.underlying, Partition.from_assign([0, 1, 1], k=2)
        )
        assert state.objective == pytest.approx(-2 / 3, abs=1e-12)

    def test_all_singletons_objective_is_diagonal_sum(self):
        rng = np.random.default_rng(0)
        g = random_similarity_dense(rng, 6)
        state = init_state(g, Partition.from_assign(list(range(6)), k=6))
        assert state.objective == pytest.approx(sum(g.diag), rel=1e-12)

    def test_rejects_wrong_size_partition(self, cohesion3):
        with pytest.raises(ArityMismatch, match="covers 2 points"):
            init_state(cohesion3.underlying, Partition.from_assign([0, 1], k=2))


class TestFastAdjustedDelta:
    def test_own_singleton(self, cohesion3):
        state = init_state(
            cohesion3.underlying, Partition.from_assign([0, 1, 1], k=2)
        )
        assert fast_adjusted_delta(state, 0, 0) == -math.inf

    def test_fixture_outside_value(self, cohesion3):
        state = init_state(
            cohesion3.underlying, Partition.from_assign([0, 1, 1], k=2)
        )
        assert fast_adjusted_delta(state, 0, 1) == pytest.approx(-2 / 3, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_random_probes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        g = random_similarity_dense(rng, n, density=0.5)
        k = int(rng.integers(2, min(6, n)))
        part = random_partition(rng, n, k)
        state = init_state(g, part)
        sets = part.as_sets()
        for _ in range(60):
            x = int(rng.integers(n))
            c = int(rng.integers(k))
            fast = fast_adjusted_delta(state, x, c)
            slow = adjusted_delta(g, x, sets[c])
            if math.isinf(slow):
                assert math.isinf(fast)
            else:
                assert fast == pytest.approx(slow, rel=1e-6, abs=1e-9)


class TestReassignPoint:
    def test_would_empty_set(self, cohesion3):
        state = init_state(
            cohesion3.underlying, Partition.from_assign([0, 1, 1], k=2)
        )
        with pytest.raises(WouldEmptySet):
            reassign_point(state, 0, 1)

    def test_same_set_rejected(self, cohesion3):
        state = init_state(
            cohesion3.underlying, Partition.from_assign([0, 1, 1], k=2)
        )
        with pytest.raises(KsetsError):
            reassign_point(state, 1, 1)

    def test_source_shrinks_to_singleton(self):
        rng = np.random.default_rng(1)
        g = random_similarity_dense(rng, 3)
        state = init_state(g, Partition.from_assign([0, 0, 1], k=2))
        reassign_point(state, 1, 1)
        assert state.sizes.tolist() == [1, 2]
        assert state.gbar[0] == pytest.approx(g.diag[0], rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_objective_change_is_distance_gap(self, seed):
        rng = np.random.default_rng(seed + 7)
        n = 12
        g = random_similarity_dense(rng, n, density=0.6)
        part = random_partition(rng, n, 3)
        state = init_state(g, part)
        for _ in range(20):
            x = int(rng.integers(n))
            src = state.assign[x]
            if state.sizes[src] < 2:
                continue
            dst = int(rng.integers(3))
            if dst == src:
                continue
            before_src = fast_adjusted_delta(state, x, src)
            before_dst = fast_adjusted_delta(state, x, dst)
            old_objective = state.objective
            reassign_point(state, x, dst)
            assert state.objective - old_objective == pytest.approx(
                before_src - before_dst, rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_state_coherent_after_many_moves(self, seed):
        rng = np.random.default_rng(seed + 13)
        n = 20
        g = random_similarity_dense(rng, n, density=0.4)
        state = init_state(g, random_partition(rng, n, 4))
        moved = 0
        while moved < 50:
            x = int(rng.integers(n))
            src = state.assign[x]
            if state.sizes[src] < 2:
                continue
            dst = int(rng.integers(4))
            if dst == src:
                continue
            reassign_point(state, x, dst)
            moved += 1
        assert_state_matches_scratch(state)


class TestRunPass:
    def test_converged_state_reports_zero_moves(self):
        rng = np.random.default_rng(3)
        g = random_similarity_dense(rng, 15, density=0.5)
        state = init_state(g, random_partition(rng, 15, 3))
        while run_pass(state):
            pass
        assign_before = state.assign.tolist()
        assert run_pass(state) == 0
        assert state.assign.tolist() == assign_before

    @pytest.mark.parametrize("seed", range(5))
    def test_objective_monotone_per_pass(self, seed):
        rng = np.random.default_rng(seed + 40)
        g = random_similarity_dense(rng, 25, density=0.4)
        state = init_state(g, random_partition(rng, 25, 4))
        for _ in range(100):
            before = state.objective
            moved = run_pass(state)
            if moved:
                assert state.objective > before - 1e-12
            else:
                assert state.objective == before
                break

    def test_two_cliques_recovered_from_adversarial_start(self):
        # Two groups fully tied inside with weight 1 and no cross ties.
        n = 8
        triples = []
        for a in range(4):
            for b in range(a + 1, 4):
                triples.append((a, b, 1.0))
                triples.append((a + 4, b + 4, 1.0))
        g = build_from_triples(n, triples)
        clique_assign = [0] * 4 + [1] * 4
        best = max(
            brute_objective(g, assign) for assign in all_two_partition_assigns(n)
        )
        assert brute_objective(g, clique_assign) == pytest.approx(best)
        # Interleaved start mixing the groups.
        state = init_state(g, Partition.from_assign([0, 1] * 4, k=2))
        while run_pass(state):
            pass
        groups = {frozenset(s) for s in state.partition.as_sets()}
        assert groups == {frozenset(range(4)), frozenset(range(4, 8))}

    @pytest.mark.parametrize("seed", range(4))
    def test_sizes_never_reach_zero(self, seed):
        rng = np.random.default_rng(seed + 60)
        g = random_similarity_dense(rng, 20, density=0.5)
        state = init_state(g, random_partition(rng, 20, 5))
        for _ in range(50):
            moved = run_pass(state)
            assert min(state.sizes) >= 1
            if not moved:
                break

    @pytest.mark.parametrize("seed", range(4))
    def test_pass_work_is_linear(self, seed):
        rng = np.random.default_rng(seed + 80)
        g = random_similarity_dense(rng, 40, density=0.3)
        k = 5
        state = init_state(g, random_partition(rng, 40, k))
        budget = 2 * (k * g.n + 2 * g.m)
        for _ in range(50):
            before = state.ops_delta + state.ops_update
            moved = run_pass(state)
            spent = state.ops_delta + state.ops_update - before
            assert spent <= budget
            if not moved:
                break


class TestRun:
    def test_k_equals_n_is_all_singletons(self):
        rng = np.random.default_rng(5)
        g = random_similarity_dense(rng, 7)
        result = run(g, RunConfig(k=7, seed=0))
        assert sorted(result.partition.sizes) == [1] * 7
        assert result.converged
        assert result.passes == 1

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        g = random_similarity_dense(rng, 30, density=0.3)
        a = run(g, RunConfig(k=4, seed=11, restarts=3))
        b = run(g, RunConfig(k=4, seed=11, restarts=3))
        assert a.partition.assign.tolist() == b.partition.assign.tolist()
        assert a.objective == b.objective
        assert a.history == b.history

    def test_history_monotone_and_converges(self):
        rng = np.random.default_rng(21)
        g = random_similarity_dense(rng, 50, density=0.2)
        result = run(g, RunConfig(k=5, seed=3))
        assert result.converged
        assert all(
            later >= earlier - 1e-12
            for earlier, later in zip(result.history, result.history[1:])
        )

    def test_a_distance_is_clustered_without_a_second_check(self, monkeypatch):
        rng = np.random.default_rng(8)
        upper = np.triu(rng.uniform(0.0, 10.0, size=(20, 20)), k=1)
        d = from_dense(upper + upper.T, kind="distance")
        expected = run(d, RunConfig(k=3, seed=2))

        def checked(*args, **kwargs):
            raise AssertionError("a measure was checked again")

        monkeypatch.setattr(SparseSymmetricMeasure, "__init__", checked)
        result = run(d, RunConfig(k=3, seed=2))
        assert result.partition.assign.tolist() == expected.partition.assign.tolist()
        assert result.objective == expected.objective
        assert result.history == expected.history

    def test_invalid_k(self):
        g = build_from_triples(4, [(0, 1, 1.0)])
        with pytest.raises(KOutOfRange):
            run(g, RunConfig(k=1, seed=0))
        with pytest.raises(KOutOfRange):
            run(g, RunConfig(k=5, seed=0))

    @pytest.mark.parametrize(
        "config, message",
        [
            (RunConfig(k=2, restarts=0), "restarts=0 must be >= 1"),
            (RunConfig(k=2, max_passes=0), "max_passes=0 must be >= 1"),
            (
                RunConfig(k=2, init_partition=Partition.from_assign([0, 1, 2, 2], k=3)),
                "initial partition has the wrong k",
            ),
        ],
        ids=["no_restarts", "no_passes", "init_partition_k"],
    )
    def test_invalid_config(self, config, message):
        with pytest.raises(KOutOfRange, match=message):
            config.validate(4)

    def test_restarts_pick_best_objective(self):
        rng = np.random.default_rng(33)
        g = random_similarity_dense(rng, 16, density=0.6)
        single = [
            run(g, RunConfig(k=3, seed=7 + r, restarts=1)).objective
            for r in range(6)
        ]
        multi = run(g, RunConfig(k=3, seed=7, restarts=6))
        assert multi.objective == pytest.approx(max(single), rel=1e-12)

    def test_given_initial_partition(self, cohesion3):
        part = Partition.from_assign([0, 1, 1], k=2)
        result = run(
            cohesion3.underlying, RunConfig(k=2, seed=0, init_partition=part)
        )
        assert result.objective == pytest.approx(13 / 3, abs=1e-9)

    @pytest.mark.parametrize("assign", [[0, 1], [0, 1, 1, 0]])
    def test_initial_partition_of_the_wrong_size(self, assign):
        g = build_from_triples(3, [(0, 1, 1.0), (1, 2, 1.0)])
        config = RunConfig(k=2, seed=0, init_partition=Partition.from_assign(assign))
        message = f"^partition covers {len(assign)} points, measure has 3$"
        with pytest.raises(ArityMismatch, match=message):
            run(g, config)

    def test_initial_partition_starts_every_restart_unchanged(self, monkeypatch):
        rng = np.random.default_rng(31)
        g = random_similarity_dense(rng, 20, density=0.5)
        part = random_partition(rng, 20, 3)
        before = part.assign.tobytes()
        starts = []

        def recording_init_state(measure, partition):
            starts.append(partition.assign.tobytes())
            return init_state(measure, partition)

        monkeypatch.setattr(engine, "init_state", recording_init_state)
        result = run(g, RunConfig(k=3, seed=0, init_partition=part, restarts=3))
        assert result.partition.assign.tobytes() != before
        assert starts == [before] * 3
        assert part.assign.tobytes() == before

    @pytest.mark.parametrize("seed", range(4))
    def test_converged_state_matches_scratch(self, seed):
        rng = np.random.default_rng(seed + 90)
        g = random_similarity_dense(rng, 30, density=0.4)
        state = init_state(g, random_partition(rng, 30, 4))
        while run_pass(state):
            pass
        assert_state_matches_scratch(state)

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_point_is_local_optimum(self, seed):
        rng = np.random.default_rng(seed + 200)
        n = 10
        g = random_similarity_dense(rng, n, density=0.7)
        result = run(g, RunConfig(k=3, seed=1))
        base = brute_objective(g, result.partition.assign)
        sizes = result.partition.sizes
        for x in range(n):
            src = result.partition.assign[x]
            if sizes[src] < 2:
                continue
            for dst in range(3):
                if dst == src:
                    continue
                moved = list(result.partition.assign)
                moved[x] = dst
                assert brute_objective(g, moved) <= base + 1e-9

    @pytest.mark.parametrize("assign", [[0, 1], [0, 1, 1, 0]])
    def test_objective_rejects_wrong_size_partition(self, cohesion3, assign):
        with pytest.raises(ArityMismatch, match=f"covers {len(assign)} points"):
            objective_value(cohesion3.underlying, Partition.from_assign(assign, k=2))

    def test_objective_matches_reference_sum(self):
        rng = np.random.default_rng(50)
        g = random_similarity_dense(rng, 14, density=0.5)
        result = run(g, RunConfig(k=3, seed=2))
        assert result.objective == pytest.approx(
            brute_objective(g, result.partition.assign), rel=1e-12
        )
        assert objective_value(g, result.partition) == pytest.approx(
            result.objective, rel=1e-12
        )


class TestShiftInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_moves_and_partition_under_lifting(self, seed):
        rng = np.random.default_rng(seed + 300)
        n = int(rng.integers(8, 25))
        g = random_similarity_dense(rng, n, density=0.6)
        lifted = lift_similarity(g, sigma_min(g)).underlying
        start = random_partition(rng, n, 3)
        state_raw = init_state(g, start)
        state_lift = init_state(lifted, start)
        trace_raw, trace_lift = [], []
        for _ in range(100):
            moved_raw = traced_pass(run_pass, state_raw, trace_raw)
            moved_lift = traced_pass(run_pass, state_lift, trace_lift)
            assert moved_raw == moved_lift
            if moved_raw == 0:
                break
        assert trace_raw == trace_lift
        assert state_raw.assign.tolist() == state_lift.assign.tolist()


class TestIntegerValuedInputs:
    @pytest.mark.parametrize("seed", range(5))
    def test_terminates_despite_heavy_ties(self, seed):
        # Small integer weights produce many exact distance ties; the
        # prefer-current rule must still reach a fixed point.
        rng = np.random.default_rng(seed + 500)
        n = 30
        upper = np.triu(rng.integers(-2, 3, size=(n, n)), k=1).astype(float)
        g = from_dense(upper + upper.T, kind="similarity")
        result = run(g, RunConfig(k=4, seed=seed, max_passes=n * 4))
        assert result.converged


class TestRandomBalancedPartition:
    def test_balanced_sizes(self):
        part = random_balanced_partition(10, 3, seed=0)
        assert sorted(part.sizes) == [3, 3, 4]

    def test_deterministic(self):
        a = random_balanced_partition(20, 4, seed=5)
        b = random_balanced_partition(20, 4, seed=5)
        assert a.assign.tolist() == b.assign.tolist()

    def test_every_set_nonempty_when_k_equals_n(self):
        part = random_balanced_partition(5, 5, seed=1)
        assert part.sizes.tolist() == [1] * 5
