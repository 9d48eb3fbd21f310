import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus.engine import RunConfig, run
from ksetsplus.errors import EmptySet
from ksetsplus.experiments import random_sparse_similarity
from ksetsplus.measure import (
    Partition,
    SparseSymmetricMeasure,
    build_from_triples,
    from_dense,
)
from ksetsplus.transforms import SemiCohesionMeasure, induced_cohesion, sigma_min
from ksetsplus.verify import (
    STATEMENTS,
    ClusterReport,
    _slack_bool,
    is_cluster,
    pairwise_isolation_check,
)

from oracles import lift_similarity

from conftest import (
    nonempty_subsets,
    random_cohesion,
    random_partition,
    random_semimetric,
    random_similarity_dense,
    raw_cohesion,
)


def sparse_semimetric(rng, n: int, density: float) -> SparseSymmetricMeasure:
    """Random semi-metric whose unstored pairs are distance 0."""
    upper = np.triu(rng.uniform(0.0, 10.0, size=(n, n)), k=1)
    upper *= np.triu(rng.random((n, n)) < density, k=1)
    return from_dense(upper + upper.T, kind="distance")


def dense_isolation_slack(g, partition: Partition) -> np.ndarray:
    """Slack matrix from the dense dual semi-metric and a one-hot matmul:
    the oracle for the check's sums over stored entries."""
    if g.kind == "distance":
        dist = g.to_dense()
    else:
        dist = (g.diag[:, None] + g.diag[None, :]) / 2.0 - g.to_dense()
    onehot = np.zeros((g.n, partition.k))
    onehot[np.arange(g.n), partition.assign] = 1.0
    sizes = np.asarray(partition.sizes, dtype=float)
    dbar = (onehot.T @ dist @ onehot) / np.outer(sizes, sizes)
    slack = 2.0 * dbar - dbar.diagonal()[:, None] - dbar.diagonal()[None, :]
    np.fill_diagonal(slack, 0.0)
    return slack


def dense_is_cluster(g, s) -> ClusterReport:
    """is_cluster summed over dense n x n copies of the measure and of its
    dual: the oracle for the block sums."""
    g = g if isinstance(g, SemiCohesionMeasure) else SemiCohesionMeasure(g)
    n = g.n
    members = sorted(set(int(p) for p in s))
    dense = g.to_dense()
    diag = g.diag
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    inside = int(mask.sum())
    outside = n - inside

    self_sum = float(dense[np.ix_(mask, mask)].sum())
    gamma_scale = float(np.abs(dense).sum())
    statements: dict[str, bool | None] = dict.fromkeys(STATEMENTS)
    slacks: dict[str, float | None] = dict.fromkeys(STATEMENTS)
    statements["i"] = _slack_bool(self_sum, gamma_scale)
    slacks["i"] = self_sum
    if outside == 0:
        return ClusterReport(inside, 0, statements, slacks, partial=True)

    comp = ~mask
    comp_sum = float(dense[np.ix_(comp, comp)].sum())
    cross_sum = float(dense[np.ix_(mask, comp)].sum())
    statements["ii"] = _slack_bool(comp_sum, gamma_scale)
    slacks["ii"] = comp_sum
    statements["iii"] = _slack_bool(-cross_sum, gamma_scale)
    slacks["iii"] = -cross_sum
    statements["iv"] = _slack_bool(self_sum - cross_sum, gamma_scale)
    slacks["iv"] = self_sum - cross_sum

    dist = (diag[:, None] + diag[None, :]) / 2.0 - dense
    d_scale = float(np.abs(dist).max())
    dbar_ss = float(dist[np.ix_(mask, mask)].mean())
    dbar_cc = float(dist[np.ix_(comp, comp)].mean())
    dbar_sc = float(dist[np.ix_(mask, comp)].mean())
    dbar_so = float(dist[mask, :].mean())
    dbar_oo = float(dist.mean())
    slack_v = 2.0 * dbar_so - dbar_oo - dbar_ss
    slack_vi = 2.0 * dbar_sc - dbar_ss - dbar_cc
    statements["v"] = _slack_bool(slack_v, d_scale)
    slacks["v"] = slack_v
    statements["vi"] = _slack_bool(slack_vi, d_scale)
    slacks["vi"] = slack_vi
    return ClusterReport(inside, outside, statements, slacks, partial=False)


def sparse_laplacian(rng, n: int, density: float) -> SparseSymmetricMeasure:
    """A cohesion with sparse stored entries: the Laplacian of random
    nonnegative weights, whose rows sum to zero and which meets (C3)."""
    w = sparse_semimetric(rng, n, density).to_dense()
    return from_dense(np.diag(w.sum(axis=1)) - w, kind="cohesion")


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


class TestIsClusterMatchesDenseOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        family=st.sampled_from(["laplacian", "induced", "lift"]),
        density=st.floats(0.0, 1.0),
        subset=st.sampled_from(["random", "whole", "singleton"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_reports_agree(self, seed, n, family, density, subset):
        rng = np.random.default_rng(seed)
        if family == "laplacian":
            g = sparse_laplacian(rng, n, density)
        elif family == "induced":
            g = induced_cohesion(sparse_semimetric(rng, n, density))
        else:
            n = max(n, 2)
            similarity = random_similarity_dense(
                rng, n, density=density, diagonal=bool(rng.integers(2))
            )
            g = lift_similarity(similarity, sigma_min(similarity) + rng.uniform(0, 1))
        if subset == "whole":
            members = list(range(n))
        elif subset == "singleton":
            members = [int(rng.integers(n))]
        else:
            members = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
        report = is_cluster(g, members)
        oracle = dense_is_cluster(g, members)
        assert report.partial == oracle.partial
        assert (report.subset_size, report.complement_size) == (
            oracle.subset_size,
            oracle.complement_size,
        )
        assert report.statements == oracle.statements
        # Slacks agree to 1e-12 of max(1, the oracle's scale): the sum of
        # |g| for (i)-(iv), the largest |dual distance| for (v)-(vi).
        dense = g.to_dense()
        dist = (g.diag[:, None] + g.diag[None, :]) / 2.0 - dense
        for key in STATEMENTS:
            got, want = report.slacks[key], oracle.slacks[key]
            if want is None:
                assert got is None, key
                continue
            if key in ("v", "vi"):
                scale = np.abs(dist).max()
            else:
                scale = np.abs(dense).sum()
            assert abs(got - want) <= 1e-12 * max(1.0, scale), key


def test_checks_build_no_dense_copy(monkeypatch):
    rng = np.random.default_rng(31)
    n = 12
    distance = sparse_semimetric(rng, n, density=0.4)
    induced = induced_cohesion(distance)
    similarity = random_similarity_dense(rng, n, density=0.4)
    lifted = lift_similarity(similarity, sigma_min(similarity) + 0.5)
    laplacian = sparse_laplacian(rng, n, density=0.3)
    part = random_partition(rng, n, 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense copy in a check")

    monkeypatch.setattr(SparseSymmetricMeasure, "to_dense", forbidden)
    for g in (induced, raw_cohesion(induced), lifted, raw_cohesion(lifted), laplacian):
        for members in ([0], [1, 4, 7], list(range(n))):
            is_cluster(g, members)
    for g in (distance, similarity, induced, raw_cohesion(induced), lifted, laplacian):
        pairwise_isolation_check(g, part)


class TestPairwiseIsolation:
    @pytest.mark.parametrize("seed", range(6))
    def test_converged_runs_pass(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        g = random_cohesion(rng, n)
        k = int(rng.integers(2, 6))
        result = run(g, RunConfig(k=k, seed=seed, restarts=2))
        report = pairwise_isolation_check(g, result.partition)
        assert report.ok(1e-9), report.min_slack

    @pytest.mark.parametrize("diagonal_fraction", [0.0, 0.3])
    def test_converged_runs_on_similarities_pass(self, diagonal_fraction):
        # Checked at the exact sigma_min, the smallest valid lift.
        for seed in range(100):
            rng = np.random.default_rng(2100 + seed)
            n = int(rng.integers(10, 200))
            k = int(rng.integers(2, 7))
            g = random_sparse_similarity(
                n, float(rng.uniform(1, 12)), seed, diagonal_fraction=diagonal_fraction
            )
            result = run(g, RunConfig(k=k, seed=seed, restarts=2))
            assert result.converged, seed
            report = pairwise_isolation_check(g, result.partition)
            assert report.ok(), (seed, report.min_slack)

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
        assert report.argmin == (0, 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_slack_is_exactly_symmetric_for_every_kind(self, seed):
        rng = np.random.default_rng(1700 + seed)
        n = int(rng.integers(6, 40))
        k = int(rng.integers(3, min(n, 8) + 1))
        distance = sparse_semimetric(rng, n, density=float(rng.uniform(0.2, 1.0)))
        cohesion = induced_cohesion(distance)
        inputs = {
            "distance": distance,
            "similarity": random_similarity_dense(rng, n, density=0.5),
            "cohesion": raw_cohesion(cohesion),
            "semi-cohesion": cohesion,
        }
        part = random_partition(rng, n, k)
        for name, g in inputs.items():
            report = pairwise_isolation_check(g, part)
            assert np.array_equal(report.slack, report.slack.T), name
            # The first minimal pair in row-major order lies above the diagonal.
            assert report.argmin[0] < report.argmin[1], name

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
            "induced_raw": raw_cohesion(induced_cohesion(random_semimetric(rng, n))),
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

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        k=st.integers(2, 6),
        density=st.floats(0.1, 1.0),
        diagonal=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_similarity_is_checked_as_its_lift(self, seed, n, k, density, diagonal):
        rng = np.random.default_rng(seed)
        g = random_similarity_dense(rng, n, density=density, diagonal=diagonal)
        k = min(k, n)
        assign = rng.integers(0, k, size=n)
        assign[rng.permutation(n)[:k]] = np.arange(k)
        part = Partition.from_assign(assign, k=k)
        report = pairwise_isolation_check(g, part)
        lifted = pairwise_isolation_check(lift_similarity(g, sigma_min(g)), part)
        assert report.sigma_used.hex() == lifted.sigma_used.hex()
        scale = max(1.0, float(np.abs(lifted.slack).max()))
        np.testing.assert_allclose(
            report.slack, lifted.slack, rtol=1e-9, atol=1e-9 * scale
        )
        assert report.min_slack == pytest.approx(
            lifted.min_slack, rel=1e-9, abs=1e-9 * scale
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
        induced = run(induced_cohesion(d), config)
        # Restarts that tie to an ulp may pick different partitions, so
        # the objectives and the isolation guarantee are compared.
        assert direct.objective == pytest.approx(induced.objective, rel=1e-9, abs=1e-9)
        assert direct.history[-1] == pytest.approx(direct.objective, rel=1e-9)
        assert pairwise_isolation_check(d, direct.partition).ok(1e-9)
