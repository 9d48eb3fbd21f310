import importlib
import math

import numpy as np
import pytest

from ksetsplus.delta import (
    adjusted_delta,
    check_nonnegativity,
    delta,
    delta_triangular,
)
from ksetsplus.errors import EmptySet, NotADistance
from ksetsplus.measure import build_from_triples, measure_of_sets
from ksetsplus.transforms import induced_cohesion

from conftest import nonempty_subsets, random_semimetric

# The package exports the function delta under the module's name.
delta_module = importlib.import_module("ksetsplus.delta")


class TestDelta:
    def test_fixture_far_pair_is_negative(self, semimetric3, cohesion3):
        assert delta_triangular(semimetric3, 0, [1, 2]) == -1.0
        assert delta(cohesion3, 0, [1, 2]) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_own_singleton_is_zero(self, cohesion3):
        assert delta(cohesion3, 0, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_fixture_member_value(self, cohesion3):
        assert delta(cohesion3, 1, [1, 2]) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_triangular_hand_expansion(self, semimetric3):
        assert delta_triangular(semimetric3, 2, [0, 1]) == 6.5

    def test_triangular_own_singleton(self, semimetric3):
        assert delta_triangular(semimetric3, 0, [0]) == 0.0

    def test_empty_set(self, semimetric3):
        with pytest.raises(EmptySet):
            delta_triangular(semimetric3, 0, [])
        with pytest.raises(EmptySet):
            delta(semimetric3, 0, [])

    @pytest.mark.parametrize("seed", range(4))
    def test_two_routes_agree_exhaustively(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        d = random_semimetric(rng, n)
        cohesion = induced_cohesion(d)
        for subset in nonempty_subsets(n):
            for x in range(n):
                via_pairs = delta_triangular(d, x, subset)
                via_cohesion = delta(cohesion, x, subset)
                assert via_cohesion == pytest.approx(via_pairs, abs=1e-9)


class TestAdjustedDelta:
    def test_outside_rescale(self, cohesion3):
        assert adjusted_delta(cohesion3, 0, [1, 2]) == pytest.approx(
            -2 / 3, abs=1e-12
        )

    def test_own_singleton_is_minus_inf(self, cohesion3):
        assert adjusted_delta(cohesion3, 0, [0]) == -math.inf

    def test_inside_rescale(self, cohesion3):
        assert adjusted_delta(cohesion3, 1, [1, 2]) == pytest.approx(
            6.0, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_unless_own_singleton(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        d = random_semimetric(rng, n)
        for subset in nonempty_subsets(n):
            for x in range(n):
                value = adjusted_delta(d, x, subset)
                own_singleton = len(subset) == 1 and subset[0] == x
                assert math.isfinite(value) != own_singleton


class TestNonnegativity:
    def test_fixture_far_pair(self, semimetric3):
        total = check_nonnegativity(semimetric3, [1, 2])
        assert total == pytest.approx(6.0, abs=1e-12)
        dbar = measure_of_sets(semimetric3, [1, 2], [1, 2]) / 4
        assert total == pytest.approx(2 * dbar, abs=1e-12)

    def test_singleton(self, semimetric3):
        assert check_nonnegativity(semimetric3, [0]) == 0.0

    def test_whole_set_random(self):
        rng = np.random.default_rng(7)
        d = random_semimetric(rng, 9)
        assert check_nonnegativity(d, range(9)) >= -1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_exhaustive_subsets(self, seed):
        rng = np.random.default_rng(seed + 20)
        n = 7
        d = random_semimetric(rng, n)
        for subset in nonempty_subsets(n):
            check_nonnegativity(d, subset)

    def test_rejects_non_distance(self):
        g = build_from_triples(2, [(0, 1, -1.0)])
        with pytest.raises(NotADistance):
            check_nonnegativity(g, [0, 1])

    def test_sum_off_the_mean_distance_identity_is_a_value_error(
        self, semimetric3, monkeypatch
    ):
        # Over {1, 2}, |S| times the mean within-set distance is 2 * 12 / 4.
        monkeypatch.setattr(delta_module, "delta_triangular", lambda d, x, s: 1.0)
        with pytest.raises(ValueError) as info:
            check_nonnegativity(semimetric3, [1, 2])
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "sum of triangular distances 2.0 differs from "
            "|S| * mean within-set distance 6.0"
        )

    def test_negative_sum_is_a_value_error(self, semimetric3, monkeypatch):
        # Both sides of the identity agree, at -2.
        monkeypatch.setattr(delta_module, "delta_triangular", lambda d, x, s: -1.0)
        monkeypatch.setattr(delta_module, "measure_of_sets", lambda g, a, b: -4.0)
        with pytest.raises(ValueError) as info:
            check_nonnegativity(semimetric3, [1, 2])
        assert type(info.value) is ValueError
        assert str(info.value) == "negative triangular-distance sum -2.0"

    def test_negative_value_possible_for_single_point(self, semimetric3):
        # The far pair pulls the point-to-set distance below zero even
        # though the set-level sum stays nonnegative.
        assert delta_triangular(semimetric3, 0, [1, 2]) < 0.0
