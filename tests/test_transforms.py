import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetsplus import transforms
from ksetsplus.delta import delta
from ksetsplus.errors import (
    NotACohesion,
    NotADistance,
    SigmaTooSmall,
    TooFewPoints,
)
from ksetsplus.measure import (
    SparseSymmetricMeasure,
    _from_dense_unchecked,
    build_from_triples,
    from_dense,
)
from ksetsplus.transforms import (
    C2_TOL_SCALE,
    C3_TOL,
    SemiCohesionMeasure,
    _dominance_minimum,
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
        g = cohesion3
        assert g.value(0, 0) == pytest.approx(-4 / 9, abs=1e-12)
        assert g.value(1, 1) == pytest.approx(26 / 9, abs=1e-12)
        assert g.value(0, 1) == pytest.approx(2 / 9, abs=1e-12)
        assert g.value(1, 2) == pytest.approx(-28 / 9, abs=1e-12)

    def test_all_zero_distance(self):
        g = induced_cohesion(build_from_triples(2, [], kind="distance"))
        assert g.m == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        g = induced_cohesion(random_semimetric(rng, 12))
        assert np.abs(g.row_sums()).max() < 1e-10

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
        g = cohesion3
        d = (g.value(0, 0) + g.value(1, 1)) / 2 - g.value(0, 1)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_validated_cohesion_is_a_measure_on_its_input_arrays(self):
        g = build_from_triples(2, [(0, 0, 1.0), (0, 1, -1.0), (1, 1, 1.0)])
        c = SemiCohesionMeasure(g)
        assert isinstance(c, SparseSymmetricMeasure) and c.kind == "cohesion"
        assert c.indptr is g.indptr and c.indices is g.indices and c.data is g.data
        assert c.diag.tolist() == [1.0, 1.0] and c.sigma_used is None

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
            np.abs(back.to_dense() - g.to_dense()).max()
            <= 1e-9
        )


def two_smallest_diagonals_bound(g: SparseSymmetricMeasure) -> float:
    """The former sigma_min: exact on stored pairs, with every unstored pair
    bounded by the two smallest diagonals. Never below the exact shift."""
    n, diag, rows = g.n, g.diag, g.entry_rows()
    upper = g.indices > rows
    i, j = rows[upper], g.indices[upper]
    candidates = g.data[upper] - (diag[i] + diag[j]) / 2.0
    best = float(candidates.max()) if candidates.size else -np.inf
    if candidates.size < n * (n - 1) // 2:
        d1, d2 = np.partition(diag, 1)[:2]
        best = max(best, -(d1 + d2) / 2.0)
    return best


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
        assert sigma_min(g) == best

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
        assert bound == best
        assert bound <= two_smallest_diagonals_bound(g)
        lift_similarity(g, bound)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        density=st.floats(0.0, 1.0),
        diagonal=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_dense_maximum(self, seed, n, density, diagonal):
        rng = np.random.default_rng(seed)
        g = random_similarity_dense(rng, n, density=density, diagonal=diagonal)
        dense = g.to_dense()
        diag = dense.diagonal()
        terms = dense - (diag[:, None] + diag[None, :]) / 2.0
        np.fill_diagonal(terms, -np.inf)
        assert sigma_min(g) == terms.max()
        assert sigma_min(g) <= two_smallest_diagonals_bound(g)

    def test_unstored_pairs_are_bounded_exactly(self):
        # The two smallest diagonals, of points 0 and 1, share a stored
        # pair, so the unstored pair (0, 2) gives the shift.
        g = build_from_triples(
            4, [(0, 0, -5.0), (1, 1, -5.0), (0, 1, -4.0), (2, 3, 1.0)]
        )
        assert sigma_min(g) == 2.5
        assert two_smallest_diagonals_bound(g) == 5.0


class TestLiftSimilarity:
    @pytest.mark.parametrize("seed", range(6))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        g = random_similarity_dense(rng, 10, density=0.7)
        lifted = lift_similarity(g, sigma_min(g) + rng.uniform(0, 2))
        assert np.abs(lifted.row_sums()).max() < 1e-10

    def test_all_zero_zero_sigma(self):
        lifted = lift_similarity(build_from_triples(2, []), 0.0)
        assert lifted.m == 0
        assert lifted.sigma_used == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonal_closed_form(self, seed):
        rng = np.random.default_rng(seed + 10)
        n = 9
        g = random_similarity_dense(rng, n, density=0.8)
        sigma = sigma_min(g) + 0.5
        lifted = lift_similarity(g, sigma)
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

    def test_two_points_lift_at_sigma_min(self):
        # The lift is zero but for rounding residue of about 8e-17, which
        # its own entries would scale to a tolerance of about 1e-25.
        g = build_from_triples(2, [(0, 0, 0.3), (0, 1, 0.7), (1, 1, 0.1)])
        lifted = lift_similarity(g, sigma_min(g))
        assert lifted.sigma_used == sigma_min(g)
        assert lifted.max_abs() < 1e-15

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
        lifted = lift_similarity(g, sigma)
        total = g.to_dense().sum()
        for k in (2, 3, 4):
            part = random_partition(rng, n, k)
            gap = brute_objective(lifted, part.assign) - brute_objective(
                g, part.assign
            )
            expect = (k - 1) * sigma - total / n
            assert gap == pytest.approx(expect, rel=1e-9, abs=1e-9)


def dense_dominance(g: SparseSymmetricMeasure) -> tuple[float, int, int]:
    """The dense (C3) scan: the worst (g(x, x) + g(y, y)) - 2 g(x, y) over
    pairs x != y and its first pair in row-major order; +inf at (0, 0)
    for one point."""
    dominance = g.diag[:, None] + g.diag[None, :] - 2.0 * g.to_dense()
    np.fill_diagonal(dominance, np.inf)
    x, y = np.unravel_index(int(dominance.argmin()), dominance.shape)
    return float(dominance.min()), int(x), int(y)


def dense_failure(g: SparseSymmetricMeasure, sigma: float = 0.0) -> str | None:
    """Which check of (C2) and the dense (C3) scan rejects g, if any; a
    lift's (C2) scale includes its shift sigma."""
    scale = max(g.max_abs(), abs(sigma))
    if np.abs(g.row_sums()).max() > C2_TOL_SCALE * g.n * scale:
        return "row sums"
    if dense_dominance(g)[0] < -C3_TOL:
        return "dominance"
    return None


def dense_lift(g: SparseSymmetricMeasure, sigma: float) -> SparseSymmetricMeasure:
    """lift_similarity's matrix, computed in the same order, unvalidated."""
    n = g.n
    dense = g.to_dense()
    row_sums = dense.sum(axis=1)
    total = row_sums.sum()
    lifted = (
        dense
        - row_sums[:, None] / n
        - row_sums[None, :] / n
        + total / n**2
        - sigma / n
    )
    lifted[np.diag_indices(n)] += sigma
    return _from_dense_unchecked(lifted, "cohesion")


def raised(call) -> type | None:
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return None


class TestSparseDominance:
    """(C3) from the stored entries against the dense n x n scan."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        family=st.sampled_from(["lift", "laplacian", "raw"]),
        density=st.floats(0.0, 1.0),
        diagonal=st.booleans(),
        offset=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dense_scan(self, seed, n, family, density, diagonal, offset):
        rng = np.random.default_rng(seed)
        g = random_similarity_dense(rng, n, density=density, diagonal=diagonal)
        if family == "lift" and n >= 2:
            sigma = sigma_min(g) + offset
            h = dense_lift(g, sigma)
            failure = dense_failure(h, sigma)
            expected = {"dominance": SigmaTooSmall, "row sums": NotACohesion}
            assert raised(lambda: lift_similarity(g, sigma)) is expected.get(failure)
        elif family == "laplacian":
            # Rows sum to zero, and an unstored pair can break (C3) through
            # a negative diagonal.
            w = g.to_dense()
            np.fill_diagonal(w, 0.0)
            h = from_dense(np.diag(w.sum(axis=1)) - w, kind="cohesion")
        else:
            h = g
        worst, x, y = _dominance_minimum(h)
        oracle = dense_dominance(h)
        assert (worst.hex(), x, y) == (oracle[0].hex(), oracle[1], oracle[2])
        expected = NotACohesion if dense_failure(h) else None
        assert raised(lambda: SemiCohesionMeasure(h)) is expected

    def test_unstored_pair_of_negative_diagonals_fails(self):
        # Rows sum to zero; only the unstored pair (0, 2) breaks (C3).
        h = build_from_triples(
            4,
            [(0, 0, -1.0), (0, 1, 1.0), (1, 1, 3.0), (1, 3, -4.0), (2, 2, -1.0),
             (2, 3, 1.0), (3, 3, 3.0)],
            kind="cohesion",
        )
        assert _dominance_minimum(h) == (-2.0, 0, 2)
        with pytest.raises(NotACohesion, match=r"at \(0, 2\) by 2"):
            SemiCohesionMeasure(h)


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
        lifted = lift_similarity(g, 5.0)
        outside = delta(lifted, 0, [1])
        assert outside == pytest.approx(5.0 * (1 + 1 / 1), abs=1e-12)
        inside = delta(lifted, 0, [0, 1])
        assert inside == pytest.approx(5.0 * (1 - 1 / 2), abs=1e-12)

    def test_report_is_ok_within_its_tolerance(self):
        g = build_from_triples(3, [(0, 1, 1.0), (1, 2, -2.0)])
        report = check_shift_lemma(g, sigma_min(g) + 1.0, samples=20, rng_seed=3)
        assert report.ok()
        report.max_deviation = 2e-9
        assert not report.ok()
        assert report.ok(tol=1e-8)

    def test_a_wrong_lift_is_recorded_as_failures(self, monkeypatch):
        # The lift shifts by sigma + 1, so every probed relation is off.
        lift = transforms.lift_similarity
        monkeypatch.setattr(
            transforms, "lift_similarity", lambda g, sigma: lift(g, sigma + 1.0)
        )
        g = build_from_triples(3, [(0, 1, 1.0), (1, 2, -2.0)])
        report = check_shift_lemma(g, sigma_min(g) + 1.0, samples=30, rng_seed=3)
        assert not report.ok()
        probed = report.inside_cases + report.outside_cases
        assert probed > 0 and len(report.failures) == probed
        for kind, x, size, worst in report.failures:
            assert kind in ("inside", "outside")
            assert 0 <= x < 3 and 1 <= size <= 3
            assert worst > 1e-9
        kinds = [kind for kind, *_ in report.failures]
        assert kinds.count("inside") == report.inside_cases
        assert kinds.count("outside") == report.outside_cases
        assert max(worst for *_, worst in report.failures) == report.max_deviation


class TestRepr:
    def test_validated_cohesion(self):
        d = build_from_triples(3, [(0, 1, 1.0), (1, 2, 6.0)], kind="distance")
        assert repr(induced_cohesion(d)) == "SemiCohesionMeasure(n=3, sigma_used=None)"

    def test_lifted_similarity(self):
        g = build_from_triples(2, [(0, 1, 1.0)])
        assert repr(lift_similarity(g, 2.5)) == "SemiCohesionMeasure(n=2, sigma_used=2.5)"
