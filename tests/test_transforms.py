import numpy as np
import pytest

from ksetsplus.delta import delta
from ksetsplus.errors import (
    NotACohesion,
    NotADistance,
    SigmaTooSmall,
    TooFewPoints,
)
from ksetsplus.measure import SparseSymmetricMeasure, build_from_triples, from_dense
from ksetsplus.transforms import (
    SemiCohesionMeasure,
    check_shift_lemma,
    dual_distance,
    induced_cohesion,
    lift_similarity,
    sigma_min,
)

from conftest import (
    brute_objective,
    random_cohesion,
    random_partition,
    random_semimetric,
    random_similarity_dense,
)


class TestInducedCohesion:
    def test_fixture_values(self, cohesion3):
        g = cohesion3.underlying
        assert g.value(0, 0) == pytest.approx(-4 / 9, abs=1e-12)
        assert g.value(1, 1) == pytest.approx(26 / 9, abs=1e-12)
        assert g.value(0, 1) == pytest.approx(2 / 9, abs=1e-12)
        assert g.value(1, 2) == pytest.approx(-28 / 9, abs=1e-12)

    def test_all_zero_distance(self):
        g = induced_cohesion(build_from_triples(2, [], kind="distance"))
        assert g.underlying.m == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        g = induced_cohesion(random_semimetric(rng, 12))
        assert np.abs(g.underlying.row_sums()).max() < 1e-10

    def test_rejects_negative_values(self):
        bad = build_from_triples(2, [(0, 1, -3.0)], kind="similarity")
        with pytest.raises(NotADistance):
            induced_cohesion(bad)

    def test_rejects_nonzero_diagonal(self):
        bad = build_from_triples(2, [(0, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(NotADistance):
            induced_cohesion(bad)


class TestDualDistance:
    def test_recovers_fixture(self, semimetric3, cohesion3):
        back = dual_distance(cohesion3)
        assert np.allclose(back.to_dense(), semimetric3.to_dense(), atol=1e-12)

    def test_fixture_pair_value(self, cohesion3):
        g = cohesion3.underlying
        d = (g.value(0, 0) + g.value(1, 1)) / 2 - g.value(0, 1)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_all_zero(self):
        zero = SemiCohesionMeasure(build_from_triples(2, [], kind="cohesion"))
        assert dual_distance(zero).m == 0

    def test_rejects_invalid(self):
        bad = build_from_triples(3, [(0, 1, 1.0)], kind="cohesion")
        with pytest.raises(NotACohesion):
            dual_distance(bad)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_distance(self, seed):
        rng = np.random.default_rng(seed)
        d = random_semimetric(rng, int(rng.integers(3, 20)))
        back = dual_distance(induced_cohesion(d))
        assert np.abs(back.to_dense() - d.to_dense()).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_cohesion(self, seed):
        rng = np.random.default_rng(seed + 100)
        g = random_cohesion(rng, int(rng.integers(3, 20)))
        back = induced_cohesion(dual_distance(g))
        assert (
            np.abs(back.underlying.to_dense() - g.underlying.to_dense()).max()
            <= 1e-9
        )


class TestSigmaMin:
    def test_identity_like(self):
        g = build_from_triples(3, [(i, i, 1.0) for i in range(3)])
        assert sigma_min(g) == -1.0

    def test_all_zero(self):
        assert sigma_min(build_from_triples(2, [])) == 0.0

    def test_fixture_as_similarity(self, semimetric3):
        d = semimetric3
        g = SparseSymmetricMeasure(d.n, "similarity", d.indptr, d.indices, d.data)
        assert sigma_min(g) == 6.0

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            sigma_min(build_from_triples(1, []))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_scan_on_complete_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        g = random_similarity_dense(rng, n)
        dense = g.to_dense()
        best = max(
            dense[i, j] - (dense[i, i] + dense[j, j]) / 2
            for i in range(n)
            for j in range(n)
            if i != j
        )
        assert sigma_min(g) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_safe_upper_bound_on_sparse_inputs(self, seed):
        rng = np.random.default_rng(seed + 50)
        n = int(rng.integers(4, 12))
        g = random_similarity_dense(rng, n, density=0.4)
        dense = g.to_dense()
        best = max(
            dense[i, j] - (dense[i, i] + dense[j, j]) / 2
            for i in range(n)
            for j in range(n)
            if i != j
        )
        bound = sigma_min(g)
        assert bound >= best - 1e-12
        lift_similarity(g, bound)
        lift_similarity(g, best)


class TestLiftSimilarity:
    @pytest.mark.parametrize("seed", range(6))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        g = random_similarity_dense(rng, 10, density=0.7)
        lifted = lift_similarity(g, sigma_min(g) + rng.uniform(0, 2))
        assert np.abs(lifted.underlying.row_sums()).max() < 1e-10

    def test_all_zero_zero_sigma(self):
        lifted = lift_similarity(build_from_triples(2, []), 0.0)
        assert lifted.underlying.m == 0
        assert lifted.sigma_used == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonal_closed_form(self, seed):
        rng = np.random.default_rng(seed + 10)
        n = 9
        g = random_similarity_dense(rng, n, density=0.8)
        sigma = sigma_min(g) + 0.5
        lifted = lift_similarity(g, sigma).underlying
        dense = g.to_dense()
        row = dense.sum(axis=1)
        total = dense.sum()
        for x in range(n):
            expect = (
                dense[x, x]
                - 2.0 * row[x] / n
                + total / n**2
                + (n - 1) * sigma / n
            )
            assert lifted.diag[x] == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_sigma_too_small(self):
        rng = np.random.default_rng(2)
        g = random_similarity_dense(rng, 8)
        with pytest.raises(SigmaTooSmall):
            lift_similarity(g, sigma_min(g) - 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_objective_shift_identity(self, seed):
        rng = np.random.default_rng(seed + 30)
        n = 11
        g = random_similarity_dense(rng, n, density=0.6)
        sigma = sigma_min(g) + 0.25
        lifted = lift_similarity(g, sigma).underlying
        total = g.to_dense().sum()
        for k in (2, 3, 4):
            part = random_partition(rng, n, k)
            gap = brute_objective(lifted, part.assign) - brute_objective(
                g, part.assign
            )
            expect = (k - 1) * sigma - total / n
            assert gap == pytest.approx(expect, rel=1e-9, abs=1e-9)


class TestShiftCheck:
    def test_exact_on_random_input(self):
        rng = np.random.default_rng(4)
        g = random_similarity_dense(rng, 8, density=0.7)
        report = check_shift_lemma(g, sigma_min(g) + 1.0, samples=100, rng_seed=9)
        assert report.max_deviation <= 1e-9
        assert not report.failures
        assert report.inside_cases > 0 and report.outside_cases > 0

    def test_singleton_convention(self):
        g = build_from_triples(2, [(0, 1, 1.0)])
        report = check_shift_lemma(g, sigma_min(g), samples=100, rng_seed=1)
        assert report.own_singleton_cases > 0
        assert report.max_deviation <= 1e-9

    def test_case_factors_on_null_similarity(self):
        # With a zero similarity and shift 5 on two points, the lifted
        # measure is +-2.5, so the set distances are known in closed form.
        g = build_from_triples(2, [])
        lifted = lift_similarity(g, 5.0).underlying
        outside = delta(lifted, 0, [1])
        assert outside == pytest.approx(5.0 * (1 + 1 / 1), abs=1e-12)
        inside = delta(lifted, 0, [0, 1])
        assert inside == pytest.approx(5.0 * (1 - 1 / 2), abs=1e-12)
