import numpy as np
import pytest

from ksetsplus.engine import RunConfig, run
from ksetsplus.errors import EmptySet
from ksetsplus.measure import (
    Partition,
    SparseSymmetricMeasure,
    build_from_triples,
    from_dense,
)
from ksetsplus.transforms import (
    SemiCohesionMeasure,
    induced_cohesion,
    lift_similarity,
    sigma_min,
)
from ksetsplus.verify import is_cluster, pairwise_isolation_check

from conftest import (
    nonempty_subsets,
    random_cohesion,
    random_partition,
    random_semimetric,
    random_similarity_dense,
)


def sparse_semimetric(rng, n: int, density: float) -> SparseSymmetricMeasure:
    """Random semi-metric whose unstored pairs are distance 0."""
    upper = np.triu(rng.uniform(0.0, 10.0, size=(n, n)), k=1)
    upper *= np.triu(rng.random((n, n)) < density, k=1)
    return from_dense(upper + upper.T, kind="distance")


def dense_isolation_slack(g, partition: Partition) -> np.ndarray:
    """Slack matrix from the dense dual semi-metric and a one-hot matmul:
    the oracle for the check's sums over stored entries."""
    if isinstance(g, SparseSymmetricMeasure) and g.kind == "distance":
        dist = g.to_dense()
    else:
        cohesion = g.underlying if isinstance(g, SemiCohesionMeasure) else g
        diag = cohesion.diag
        dist = (diag[:, None] + diag[None, :]) / 2.0 - cohesion.to_dense()
    onehot = np.zeros((g.n, partition.k))
    onehot[np.arange(g.n), partition.assign] = 1.0
    sizes = np.asarray(partition.sizes, dtype=float)
    dbar = (onehot.T @ dist @ onehot) / np.outer(sizes, sizes)
    slack = 2.0 * dbar - dbar.diagonal()[:, None] - dbar.diagonal()[None, :]
    np.fill_diagonal(slack, 0.0)
    return slack


class TestIsCluster:
    def test_fixture_single_far_point_is_not_a_cluster(self, cohesion3):
        report = is_cluster(cohesion3, [0])
        assert report.slacks["i"] == pytest.approx(-4 / 9, abs=1e-12)
        assert not report.is_cluster()
        assert report.all_agree()

    def test_fixture_far_pair_is_not_a_cluster(self, cohesion3):
        # The complement of {x} carries the same self-sum, so the far
        # pair {y, z} fails statement (i) exactly like {x} does.
        report = is_cluster(cohesion3, [1, 2])
        assert report.slacks["i"] == pytest.approx(-4 / 9, abs=1e-12)
        assert not report.is_cluster()
        assert report.all_agree()

    def test_fixture_near_pair_is_a_cluster(self, cohesion3):
        report = is_cluster(cohesion3, [0, 1])
        assert report.slacks["i"] == pytest.approx(26 / 9, abs=1e-12)
        assert report.is_cluster()
        assert report.all_agree()

    def test_whole_set_is_partial(self, cohesion3):
        report = is_cluster(cohesion3, [0, 1, 2])
        assert report.partial
        assert report.statements["vi"] is None

    def test_empty_set_rejected(self, cohesion3):
        with pytest.raises(EmptySet):
            is_cluster(cohesion3, [])

    @pytest.mark.parametrize("seed", range(4))
    def test_statements_agree_exhaustively(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        g = random_cohesion(rng, n)
        for subset in nonempty_subsets(n, proper=True):
            report = is_cluster(g, subset)
            assert report.all_agree(), (subset, report.statements, report.slacks)

    @pytest.mark.parametrize("seed", range(4))
    def test_whole_average_form_matches_self_sum_sign(self, seed):
        rng = np.random.default_rng(seed + 10)
        n = 6
        g = random_cohesion(rng, n)
        for subset in nonempty_subsets(n, proper=True):
            report = is_cluster(g, subset)
            assert report.statements["v"] == report.statements["i"]

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_holds_for_lifted_similarities(self, seed):
        rng = np.random.default_rng(seed + 40)
        n = 6
        g = random_similarity_dense(rng, n, density=0.7)
        lifted = lift_similarity(g, sigma_min(g) + 0.5)
        for subset in nonempty_subsets(n, proper=True):
            assert is_cluster(lifted, subset).all_agree()


class TestPairwiseIsolation:
    @pytest.mark.parametrize("seed", range(6))
    def test_converged_runs_pass(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        g = random_cohesion(rng, n)
        k = int(rng.integers(2, 6))
        result = run(g.underlying, RunConfig(k=k, seed=seed, restarts=2))
        report = pairwise_isolation_check(g, result.partition)
        assert report.ok(1e-9), report.min_slack

    def test_two_far_groups_have_positive_slack(self):
        dense = np.full((6, 6), 10.0)
        for block in (range(3), range(3, 6)):
            for a in block:
                for b in block:
                    dense[a, b] = 1.0 if a != b else 0.0
        g = induced_cohesion(from_dense(dense, kind="distance"))
        part = Partition.from_assign([0, 0, 0, 1, 1, 1], k=2)
        report = pairwise_isolation_check(g, part)
        assert report.min_slack > 1.0

    def test_two_singletons_slack_is_twice_distance(self):
        d = build_from_triples(2, [(0, 1, 4.0)], kind="distance")
        g = induced_cohesion(d)
        report = pairwise_isolation_check(g, Partition.from_assign([0, 1], k=2))
        assert report.min_slack == pytest.approx(8.0, abs=1e-9)

    def test_bad_split_reports_negative_slack(self, cohesion3):
        # Isolating the far pair from the near point fails the check.
        report = pairwise_isolation_check(
            cohesion3, Partition.from_assign([0, 1, 1], k=2)
        )
        assert report.min_slack == pytest.approx(-1.0, abs=1e-9)
        assert not report.ok()

    def test_matrix_shape_and_argmin(self, cohesion3):
        report = pairwise_isolation_check(
            cohesion3, Partition.from_assign([0, 1, 1], k=2)
        )
        assert report.slack.shape == (2, 2)
        assert report.argmin in ((0, 1), (1, 0))

    def test_distance_input_is_its_own_dual(self, semimetric3, cohesion3):
        part = Partition.from_assign([0, 1, 1], k=2)
        direct = pairwise_isolation_check(semimetric3, part)
        induced = pairwise_isolation_check(cohesion3, part)
        assert direct.min_slack == pytest.approx(induced.min_slack, abs=1e-12)
        assert direct.argmin == induced.argmin


class TestIsolationMatchesDenseOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_slacks_agree(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(4, 30))
        k = int(rng.integers(2, min(n, 6) + 1))
        distance = sparse_semimetric(rng, n, density=float(rng.uniform(0.2, 1.0)))
        similarity = random_similarity_dense(rng, n, density=0.6)
        inputs = {
            "distance": distance,
            "induced": induced_cohesion(distance),
            "induced_underlying": induced_cohesion(random_semimetric(rng, n)).underlying,
            "lifted": lift_similarity(similarity, sigma_min(similarity) + 0.5),
        }
        part = random_partition(rng, n, k)
        for name, g in inputs.items():
            report = pairwise_isolation_check(g, part)
            oracle = dense_isolation_slack(g, part)
            scale = max(1.0, float(np.abs(oracle).max()))
            np.testing.assert_allclose(
                report.slack, oracle, rtol=1e-9, atol=1e-9 * scale, err_msg=name
            )

    def test_unstored_pairs_are_distance_zero(self):
        # Only (0, 1) is stored; (0, 2) and (1, 2) are distance 0.
        d = build_from_triples(3, [(0, 1, 4.0)], kind="distance")
        part = Partition.from_assign([0, 0, 1], k=2)
        report = pairwise_isolation_check(d, part)
        # dbar(S0,S0) = 8/4, dbar(S0,S1) = 0, dbar(S1,S1) = 0.
        assert report.min_slack == pytest.approx(-2.0, abs=1e-12)


class TestRunOnDistances:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_induced_cohesion(self, seed):
        rng = np.random.default_rng(1200 + seed)
        n = int(rng.integers(8, 40))
        k = int(rng.integers(2, 6))
        if seed % 2:
            d = random_semimetric(rng, n)
        else:
            d = sparse_semimetric(rng, n, density=0.5)
        config = RunConfig(k=k, seed=seed, restarts=3)
        direct = run(d, config)
        induced = run(induced_cohesion(d).underlying, config)
        # Restarts that tie to an ulp may pick different partitions, so
        # the objectives and the isolation guarantee are compared.
        assert direct.objective == pytest.approx(induced.objective, rel=1e-9, abs=1e-9)
        assert direct.history[-1] == pytest.approx(direct.objective, rel=1e-9)
        assert pairwise_isolation_check(d, direct.partition).ok(1e-9)
