import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ksetsplus import _kernel, measure
from ksetsplus.errors import (
    ArityMismatch,
    AsymmetricDuplicate,
    DuplicateEntry,
    EmptySetInPartition,
    IndexOutOfRange,
    KsetsError,
    NonFiniteValue,
    NonSquareInput,
    NotADistance,
)
from ksetsplus.experiments import (
    SbmParams,
    haversine_matrix,
    random_sparse_similarity,
    sbm_generate,
    similarity_from_signed,
)
from ksetsplus.io import load_dense_csv
from ksetsplus.measure import (
    KINDS,
    DataSet,
    Partition,
    SparseSymmetricMeasure,
    _build_from_triples_reference,
    build_from_triples,
    from_dense,
    measure_of_sets,
    symmetrize,
)
from ksetsplus.transforms import induced_cohesion, lift_similarity

from conftest import needs_cc, random_semimetric, random_similarity_dense


class TestBuildFromTriples:
    def test_three_point_fixture(self, semimetric3):
        g = semimetric3
        assert g.n == 3
        assert g.m == 6
        assert g.value(0, 1) == 1.0
        assert g.value(1, 0) == 1.0
        assert g.value(1, 2) == 6.0
        assert g.value(0, 0) == 0.0

    def test_empty_measure(self):
        g = build_from_triples(2, [])
        assert g.m == 0
        assert g.value(0, 1) == 0.0

    def test_conflicting_mirror_values(self):
        with pytest.raises(AsymmetricDuplicate):
            build_from_triples(2, [(0, 1, 2.0), (1, 0, 3.0)])

    def test_agreeing_mirror_values_ok(self):
        g = build_from_triples(2, [(0, 1, 2.0), (1, 0, 2.0)])
        assert g.value(0, 1) == 2.0
        assert g.m == 2

    def test_duplicate_same_orientation(self):
        with pytest.raises(DuplicateEntry):
            build_from_triples(2, [(0, 1, 2.0), (0, 1, 2.0)])

    def test_zero_values_dropped(self):
        g = build_from_triples(3, [(0, 1, 0.0), (1, 2, 4.0)])
        assert g.m == 2
        assert g.value(0, 1) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_from_triples(2, [(0, 2, 1.0)])

    def test_fractional_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            build_from_triples(2, [(0.5, 1, 1.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_index_rejected(self, bad):
        with pytest.raises(IndexOutOfRange):
            build_from_triples(2, np.array([[0.0, 1.0, 1.0], [bad, 1.0, 1.0]]))

    def test_array_of_wrong_width_rejected(self):
        with pytest.raises(ArityMismatch):
            build_from_triples(3, np.array([[0.0, 1.0], [1.0, 2.0], [0.0, 2.0]]))

    def test_diagonal_stored_once(self):
        g = build_from_triples(2, [(0, 0, 3.0), (0, 1, 1.0)])
        assert g.m == 3
        assert g.diag[0] == 3.0

    def test_distance_rejects_negative(self):
        with pytest.raises(NotADistance):
            build_from_triples(2, [(0, 1, -1.0)], kind="distance")

    def test_distance_rejects_self_entry(self):
        with pytest.raises(NotADistance):
            build_from_triples(2, [(0, 0, 1.0)], kind="distance")


class TestSymmetrize:
    def test_arithmetic_mean(self):
        g = symmetrize([[0.0, 2.0], [4.0, 0.0]])
        assert g.value(0, 1) == 3.0

    def test_symmetric_fixed_point(self):
        raw = [[0.0, 5.0], [5.0, 0.0]]
        g = symmetrize(raw)
        assert g.value(0, 1) == 5.0
        assert g.m == 2

    def test_zeros_dropped_after_averaging(self):
        g = symmetrize([[0, 1, 0], [3, 0, 0], [0, 0, 0]])
        assert g.value(0, 1) == 2.0
        assert g.m == 2

    def test_non_square(self):
        with pytest.raises(NonSquareInput):
            symmetrize([[0.0, 1.0]])


class TestFromDense:
    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricDuplicate):
            from_dense([[0.0, 1.0], [2.0, 0.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        g = random_similarity_dense(rng, 7, density=0.6)
        assert np.array_equal(from_dense(g.to_dense()).to_dense(), g.to_dense())


def dense_unchecked_by_rows(a, kind):
    """The per-row count and 2-D np.nonzero build that _from_dense_unchecked
    replaced: the oracle for its CSR bytes and its errors."""
    stored = a != 0.0
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
    return SparseSymmetricMeasure(
        a.shape[0], kind, indptr, np.nonzero(stored)[1], a[stored]
    )


SPECIAL_VALUES = (0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308)


@st.composite
def dense_matrices(draw):
    """Square float64 matrices, symmetric or not, in C order, Fortran order
    or as a transposed view, with zeros of both signs and a few of NaN,
    the infinities and values whose mean overflows."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from([-2.0, 0.0]))  # 0.0: a valid distance is likely
    a = rng.uniform(low, 2.0, size=(n, n))
    a[rng.random((n, n)) < draw(st.floats(0.0, 1.0))] = 0.0
    if draw(st.booleans()):
        np.fill_diagonal(a, 0.0)
    for value in draw(st.lists(st.sampled_from(SPECIAL_VALUES), max_size=3)):
        a[rng.random((n, n)) < draw(st.sampled_from([0.02, 0.3]))] = value
    if draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
    layout = draw(st.sampled_from(["C", "F", "T"]))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "T":
        a = a.T
    return a, draw(st.sampled_from(KINDS))


def from_dense_by_rows(a, kind):
    """from_dense over the row-count build: the measure's errors, then the
    symmetry check."""
    g = dense_unchecked_by_rows(a, kind)
    if not np.array_equal(a, a.T):
        raise AsymmetricDuplicate("dense input is not symmetric")
    return g


def symmetrize_by_rows(a, kind):
    """symmetrize over the row-count build of numpy's (a + a.T) / 2.0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return dense_unchecked_by_rows((a + a.T) / 2.0, kind)


# Each dense builder with its row-count oracle.
DENSE_BUILDERS = {
    "unchecked": (measure._from_dense_unchecked, dense_unchecked_by_rows),
    "from_dense": (from_dense, from_dense_by_rows),
    "symmetrize": (symmetrize, symmetrize_by_rows),
}


def dense_outcome(build, a, kind):
    """CSR bytes and kind of build(a, kind), or its error's type and message."""
    try:
        g = build(a, kind)
    except Exception as exc:
        return type(exc), str(exc)
    return [getattr(g, name).tobytes() for name in CSR] + [g.kind]


# build_path is set once per test, not per example, which is all it needs.
FIXTURE_ONCE = [HealthCheck.function_scoped_fixture]


class TestDenseBuildOracle:
    @given(case=dense_matrices())
    @settings(max_examples=400, deadline=None, suppress_health_check=FIXTURE_ONCE)
    def test_matches_row_count_build(self, build_path, case):
        a, kind = case
        expected = dense_outcome(dense_unchecked_by_rows, a, kind)
        assert dense_outcome(measure._from_dense_unchecked, a, kind) == expected

    @pytest.mark.parametrize("builder", ["from_dense", "symmetrize"])
    @given(case=dense_matrices())
    @settings(max_examples=300, deadline=None, suppress_health_check=FIXTURE_ONCE)
    def test_public_builders_match_row_count_build(self, build_path, builder, case):
        build, oracle = DENSE_BUILDERS[builder]
        a, kind = case
        assert dense_outcome(build, a, kind) == dense_outcome(oracle, a, kind)

    @needs_cc
    @pytest.mark.parametrize("builder", DENSE_BUILDERS)
    @given(case=dense_matrices())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_reference(self, builder, case):
        build = DENSE_BUILDERS[builder][0]
        a, kind = case
        assert _kernel.load() is not None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "load", lambda: None)
            expected = dense_outcome(build, a, kind)
        assert dense_outcome(build, a, kind) == expected

    @pytest.mark.parametrize("builder", ["from_dense", "symmetrize"])
    @given(case=dense_matrices())
    @settings(max_examples=100, deadline=None, suppress_health_check=FIXTURE_ONCE)
    def test_public_builders_leave_their_input_alone(self, build_path, builder, case):
        build = DENSE_BUILDERS[builder][0]
        a, kind = case
        column = a[:, 0]  # a view made before the call stays valid
        before = (a.shape, a.strides, a.tobytes(), column.tobytes())
        dense_outcome(build, a, kind)
        assert (a.shape, a.strides, a.tobytes(), column.tobytes()) == before


@needs_cc
@pytest.mark.parametrize("builder", ["from_dense", "symmetrize"])
def test_the_loader_keyword_takes_an_owned_table_over(builder):
    build = DENSE_BUILDERS[builder][0]
    table = np.array([[0.0, 2.0], [2.0, 0.0]])
    g = build(table, _take=True)
    assert g.data is table and table.tolist() == [2.0, 2.0]
    # A table that does not own its memory is copied first.
    view = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 0.0]])[:, :2]
    g = build(view, _take=True)
    assert view.tolist() == [[1.0, 2.0], [2.0, 0.0]]
    assert g.data.tolist() == [1.0, 2.0, 2.0] and g.data.base is None


class TestDenseBuildPaths:
    """Edge cases and error precedence of the dense builders, on both paths."""

    @pytest.mark.parametrize(
        "builder, matrix, kind, expected",
        [
            ("from_dense", [[5.0]], "similarity", ([0, 1], [0], [5.0])),
            ("symmetrize", [[5.0]], "similarity", ([0, 1], [0], [5.0])),
            ("from_dense", [[0.0]], "distance", ([0, 0], [], [])),
            ("from_dense", np.zeros((3, 3)), "similarity", ([0, 0, 0, 0], [], [])),
            ("symmetrize", np.zeros((3, 3)), "distance", ([0, 0, 0, 0], [], [])),
            # Zeros of both signs are dropped, and so is a mean that cancels.
            (
                "from_dense",
                [[-0.0, 2.0], [2.0, -0.0]],
                "similarity",
                ([0, 1, 2], [1, 0], [2.0, 2.0]),
            ),
            (
                "symmetrize",
                [[-0.0, 1.0], [-1.0, -0.0]],
                "similarity",
                ([0, 0, 0], [], []),
            ),
            # A mean that overflows, off and on the diagonal.
            (
                "symmetrize",
                [[0.0, 1.7e308], [1.7e308, 0.0]],
                "similarity",
                (NonFiniteValue, "non-finite value inf at (0, 1)"),
            ),
            (
                "symmetrize",
                [[1.7e308]],
                "cohesion",
                (NonFiniteValue, "non-finite value inf at (0, 0)"),
            ),
            (
                "symmetrize",
                [[0.0, np.inf], [-np.inf, 0.0]],
                "similarity",
                (NonFiniteValue, "non-finite value nan at (0, 1)"),
            ),
            # A NaN is reported before the asymmetry.
            (
                "from_dense",
                [[0.0, 1.0], [np.nan, 0.0]],
                "similarity",
                (NonFiniteValue, "non-finite value nan at (1, 0)"),
            ),
            (
                "from_dense",
                [[0.0, 1.0], [2.0, 0.0]],
                "similarity",
                (AsymmetricDuplicate, "dense input is not symmetric"),
            ),
            (
                "from_dense",
                [[0.0, -1.0], [-1.0, 0.0]],
                "distance",
                (NotADistance, "negative distance -1.0 at (0, 1)"),
            ),
            (
                "symmetrize",
                [[0.0, -1.0], [-3.0, 0.0]],
                "distance",
                (NotADistance, "negative distance -2.0 at (0, 1)"),
            ),
            (
                "symmetrize",
                [[0.0, 1.0], [1.0, 2.0]],
                "distance",
                (NotADistance, "nonzero self-distance at point 1"),
            ),
        ],
    )
    def test_cases(self, build_path, builder, matrix, kind, expected):
        build = DENSE_BUILDERS[builder][0]
        try:
            g = build(matrix, kind)
        except Exception as exc:
            assert (type(exc), str(exc)) == expected
            return
        assert (g.indptr.tolist(), g.indices.tolist(), g.data.tolist()) == expected
        assert g.kind == kind
        assert not np.signbit(g.diag).any()
        # The arrays own exactly m entries.
        assert g.indices.base is None and g.data.base is None


class TestMeasureOfSets:
    def test_fixture_within_far_pair(self, semimetric3):
        assert measure_of_sets(semimetric3, [1, 2], [1, 2]) == 12.0

    def test_empty_set(self, semimetric3):
        assert measure_of_sets(semimetric3, [], [0, 1]) == 0.0

    def test_fixture_cross(self, semimetric3):
        assert measure_of_sets(semimetric3, [0], [1, 2]) == 2.0

    def test_out_of_range(self, semimetric3):
        with pytest.raises(IndexOutOfRange):
            measure_of_sets(semimetric3, [0], [5])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_commutes(self, seed):
        rng = np.random.default_rng(seed)
        g = random_similarity_dense(rng, 8, density=0.5)
        a = [int(p) for p in rng.choice(8, size=rng.integers(1, 5), replace=False)]
        b = [int(p) for p in rng.choice(8, size=rng.integers(1, 5), replace=False)]
        assert measure_of_sets(g, a, b) == pytest.approx(
            measure_of_sets(g, b, a), abs=1e-12
        )


class TestStorageInvariants:
    @pytest.mark.parametrize(
        "n, kind, indptr, error, message",
        [
            (0, "similarity", [0], ArityMismatch, "a measure needs at least one point"),
            (1, "weight", [0, 0], ValueError, "unknown measure kind 'weight'"),
            (2, "similarity", [0, 0], ArityMismatch, "1 rows for n=2"),
        ],
        ids=["no-points", "unknown-kind", "short-indptr"],
    )
    def test_constructor_rejects_bad_arguments(self, n, kind, indptr, error, message):
        with pytest.raises(error) as info:
            SparseSymmetricMeasure(n, kind, indptr, [], [])
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_full_scan_and_m_recount(self, seed):
        rng = np.random.default_rng(seed)
        g = random_similarity_dense(rng, 10, density=0.4)
        g.check_symmetry()
        assert g.indptr[0] == 0
        assert np.all(np.diff(g.indptr) >= 0)
        assert len(g.indices) == len(g.data) == g.m
        assert np.count_nonzero(g.to_dense()) == g.m

    def test_rows_sorted_and_nonzero(self):
        rng = np.random.default_rng(11)
        g = random_similarity_dense(rng, 9, density=0.3)
        for i in range(g.n):
            row = g.indices[g.indptr[i] : g.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)
        assert np.all(g.data != 0.0)

    def test_array_dtypes(self, semimetric3):
        rng = np.random.default_rng(4)
        dense = random_similarity_dense(rng, 6, density=0.5).to_dense()
        graph = sbm_generate(SbmParams(60, 6, 3, 0.1, 0))
        builders = {
            "triples": semimetric3,
            "from_dense": from_dense(dense),
            "symmetrize": symmetrize(rng.uniform(-1, 1, size=(5, 5))),
            "induced_cohesion": induced_cohesion(semimetric3),
            "lift_similarity": lift_similarity(from_dense(dense), 10.0),
            "haversine_matrix": haversine_matrix([(0, 0), (1, 2), (-3, 4)]),
            "random_sparse": random_sparse_similarity(30, 4, 1, diagonal_fraction=0.3),
            "similarity_from_signed": similarity_from_signed(graph),
        }
        for name, g in builders.items():
            assert g.indptr.dtype == np.int64 and g.indptr.shape == (g.n + 1,)
            assert g.indices.dtype == np.int64
            assert g.data.dtype == np.float64
            assert g.diag.dtype == np.float64 and g.diag.shape == (g.n,)
            # The compiled pass reads raw pointers, and a view would pin
            # its base array.
            for array in (g.indptr, g.indices, g.data, g.diag):
                assert array.flags.c_contiguous, name
                assert array.base is None, name

    @pytest.mark.parametrize(
        "indptr, indices, error",
        [
            ([0, 1, 2], [1, 2], IndexOutOfRange),
            ([0, 1, 2], [-1, 0], IndexOutOfRange),
            ([0, 2, 2], [1, 0], KsetsError),
            ([0, 2, 2], [1, 1], KsetsError),
            ([0, 1, 3], [1, 0], ArityMismatch),
            # A decreasing offset, and one above m: found before any row is
            # read, which the compiled scan relies on.
            ([0, 2, 1], [1], ArityMismatch),
            ([0, 3, 1], [5], ArityMismatch),
        ],
    )
    def test_constructor_rejects_malformed_csr(self, indptr, indices, error):
        data = [1.0 + p for p in range(len(indices))]
        with pytest.raises(error):
            SparseSymmetricMeasure(2, "similarity", indptr, indices, data)

    # On both paths, and before the columns: [5] is out of range.
    @pytest.mark.parametrize("indptr", [[0, 2, 1], [0, 3, 1], [0, -1, 1]])
    def test_decreasing_indptr_is_a_measure_error(self, build_path, indptr):
        with pytest.raises(ArityMismatch, match="^indptr must not decrease$"):
            SparseSymmetricMeasure(2, "similarity", indptr, [5], [1.0])

    def test_check_symmetry_catches_unmirrored_entry(self):
        g = SparseSymmetricMeasure(2, "similarity", [0, 1, 1], [1], [1.0])
        with pytest.raises(AsymmetricDuplicate):
            g.check_symmetry()


class TestNegated:
    """The unchecked -d gives the checked constructor's arrays."""

    @pytest.mark.parametrize(
        "distance",
        [
            lambda: random_semimetric(np.random.default_rng(3), 12),
            lambda: build_from_triples(
                5, [(0, 1, 2.0), (1, 3, 0.5), (2, 4, 7.0), (0, 4, 1e-300)], "distance"
            ),
            lambda: haversine_matrix([(0, 0), (1, 2), (-3, 4), (50, -120)]),
            lambda: SparseSymmetricMeasure(3, "distance", [0, 0, 0, 0], [], []),
        ],
        ids=["from_dense", "triples", "haversine", "no_entries"],
    )
    def test_arrays_match_the_checked_constructor(self, build_path, distance):
        d = distance()
        negated = d._negated()
        checked = SparseSymmetricMeasure(d.n, "similarity", d.indptr, d.indices, -d.data)
        assert (negated.n, negated.kind) == (checked.n, checked.kind)
        for name in SparseSymmetricMeasure.__slots__[2:]:
            ours, theirs = getattr(negated, name), getattr(checked, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert negated.indptr is d.indptr and negated.indices is d.indices
        assert negated.diag is d.diag
        assert negated.data.base is None and negated.data.flags.c_contiguous


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_triples(self, bad):
        with pytest.raises(NonFiniteValue):
            build_from_triples(3, [(0, 1, 1.0), (1, 2, bad)])

    def test_triples_nan_given_both_ways(self):
        with pytest.raises(NonFiniteValue):
            build_from_triples(2, [(0, 1, np.nan), (1, 0, np.nan)])

    def test_from_dense_reports_nan_not_asymmetry(self):
        with pytest.raises(NonFiniteValue):
            from_dense([[0.0, np.nan], [np.nan, 0.0]])

    def test_symmetrize(self):
        with pytest.raises(NonFiniteValue):
            symmetrize([[0.0, np.nan], [1.0, 0.0]])

    def test_symmetrize_overflow(self):
        with pytest.raises(NonFiniteValue):
            symmetrize([[0.0, 1.7e308], [1.7e308, 0.0]])

    def test_symmetrize_opposite_infinities_raise_without_warning(self):
        # inf + -inf is nan; pytest turns a numpy RuntimeWarning into an error.
        with pytest.raises(NonFiniteValue, match="non-finite value nan"):
            symmetrize([[0.0, np.inf], [-np.inf, 0.0]])


def naive_build(n, triples):
    """Dict-based reference builder: {(i, j): value} with mirrors and no zeros.

    Checks index range first, then repeated orientations, then
    conflicting mirror values.
    """
    for i, j, _ in triples:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange
    oriented = [(i, j) for i, j, _ in triples]
    if len(set(oriented)) != len(oriented):
        raise DuplicateEntry
    given = {(i, j): v for i, j, v in triples}
    out = {}
    for (i, j), v in given.items():
        if given.get((j, i), v) != v:
            raise AsymmetricDuplicate
        if v != 0.0:
            out[(i, j)] = v
            out[(j, i)] = v
    return out


triple_lists = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(-1, n),
                st.integers(-1, n),
                st.sampled_from([0.0, -2.5, -1.0, 0.5, 1.0, 3.0]),
            ),
            max_size=14,
        ),
    )
)


CSR = ("indptr", "indices", "data", "diag")


def build_outcome(n, triples):
    """CSR bytes of build_from_triples, or its error's type and message."""
    try:
        g = build_from_triples(n, triples)
    except KsetsError as exc:
        return type(exc), str(exc)
    return [getattr(g, name).tobytes() for name in CSR]


def reference_outcome(n, triples):
    """build_outcome with no kernel, so the numpy reference builds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: None)
        return build_outcome(n, triples)


# Small point counts and few values, so repeats, mirrors, zeros and NaNs
# (alone and mirrored) are common.
oracle_triples = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5, np.nan]),
            ),
            max_size=40,
        ),
    )
)


def check_against_naive_build(n, triples):
    try:
        expected = naive_build(n, triples)
    except (IndexOutOfRange, DuplicateEntry, AsymmetricDuplicate) as exc:
        with pytest.raises(type(exc)):
            build_from_triples(n, triples)
        return
    g = build_from_triples(n, triples)
    assert g.m == len(expected)
    for i in range(n):
        assert g.diag[i] == expected.get((i, i), 0.0)
        row = g.indices[g.indptr[i] : g.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)
        for j in range(n):
            assert g.value(i, j) == expected.get((i, j), 0.0)
    assert np.all(g.data != 0.0)


def _indices(n):
    """Valid indices seven times in eight, else a fractional, NaN, infinite,
    negative or too large one; -0.0 counts as valid."""
    valid = st.integers(0, n - 1).map(float) if n > 1 else st.sampled_from([0.0, -0.0])
    bad = st.sampled_from([-1.0, 0.5, float(n), n + 2.0, np.nan, np.inf, -np.inf])
    if not n:
        return bad
    pick = st.tuples(st.integers(0, 7), valid, bad)
    return pick.map(lambda c: c[2] if c[0] == 0 else c[1])


bad_index_triples = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(_indices(n), _indices(n), st.sampled_from([0.0, 1.0, -2.5])),
            max_size=6,
        ),
    )
)


def _hub(n, unique):
    """Triples (0, c, v) or (c, 0, v): one hub row longer than 16, which the
    compiled build sorts by heapsort, in place. Either spokes to points
    1 .. n - 1, given at most once per orientation and valued by their
    point, so that the build succeeds with mirrors and zeros; or spokes to
    any point with any value, so that repeats and conflicts show."""
    spoke = st.tuples(
        st.integers(1 if unique else 0, n - 1),
        st.booleans(),
        st.sampled_from([0.0, 1.0, -2.5]),
    )
    if unique:
        spoke = spoke.map(lambda c: (c[0], c[1], [0.0, 1.0, -2.5][c[0] % 3]))
    return st.lists(
        spoke, min_size=17, max_size=60, unique_by=(lambda c: c[:2]) if unique else None
    ).map(lambda spokes: [(0, c, v) if out else (c, 0, v) for c, out, v in spokes])


hub_triples = st.integers(10, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(_hub(n, True), _hub(n, False)))
)


class TestBuilderProperty:
    @needs_cc
    @given(st.one_of(triple_lists, oracle_triples, bad_index_triples, hub_triples))
    @settings(max_examples=800, deadline=None)
    def test_kernel_matches_reference_bytes(self, case):
        n, triples = case
        assert _kernel.load() is not None
        assert build_outcome(n, triples) == reference_outcome(n, triples)

    @given(triple_lists)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_builder(self, case):
        check_against_naive_build(*case)

    @given(triple_lists)
    @settings(max_examples=300, deadline=None)
    def test_reference_matches_naive_builder(self, case):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "load", lambda: None)
            check_against_naive_build(*case)

    @given(triple_lists)
    @settings(max_examples=100, deadline=None)
    def test_array_input_matches_rows(self, case):
        n, triples = case
        table = np.array(triples, dtype=np.float64).reshape(-1, 3)
        try:
            expected = build_from_triples(n, triples)
        except KsetsError as exc:
            with pytest.raises(type(exc)):
                build_from_triples(n, table)
            return
        g = build_from_triples(n, table)
        for name in ("indptr", "indices", "data", "diag"):
            assert getattr(g, name).tobytes() == getattr(expected, name).tobytes()


CONSTRUCTOR_VALUES = [0.0, -0.0, 1.0, -2.5, 0.5, np.inf, -np.inf, np.nan]


@st.composite
def csr_arrays(draw):
    """Constructor input over n points, clean or messy: messy rows have
    columns that are now and then out of range, repeated or unordered, and
    now and then indptr decreases; messy values are now and then
    non-finite. Values are negative or zero often."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, n - 1), unique=True).map(sorted)
    messy_rows = draw(st.booleans())
    if messy_rows:
        row = st.one_of(row, st.lists(st.integers(-1, n), max_size=4))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    if messy_rows and draw(st.integers(0, 4)) == 0:
        indptr[1:-1] = draw(st.permutations(indptr[1:-1].tolist()))
    indices = [c for r in rows for c in r]
    values = CONSTRUCTOR_VALUES if draw(st.booleans()) else CONSTRUCTOR_VALUES[:5]
    data = draw(
        st.lists(st.sampled_from(values), min_size=len(indices), max_size=len(indices))
    )
    return n, draw(st.sampled_from(KINDS)), indptr, indices, data


def constructor_outcome(n, kind, indptr, indices, data):
    """The constructed measure's arrays as bytes, or its error's type and message."""
    try:
        g = SparseSymmetricMeasure(n, kind, indptr, indices, data)
    except KsetsError as exc:
        return type(exc), str(exc)
    return [getattr(g, name).tobytes() for name in CSR]


class TestConstructorOracle:
    """ksets_check against the numpy reference: diag bytes, or the error."""

    @needs_cc
    @given(csr_arrays())
    @settings(max_examples=500, deadline=None)
    def test_kernel_matches_reference(self, case):
        assert _kernel.load() is not None
        outcome = constructor_outcome(*case)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "load", lambda: None)
            assert constructor_outcome(*case) == outcome

    @pytest.mark.parametrize(
        "n, kind, indptr, indices, data, expected",
        [
            (1, "distance", [0, 0], [], [], [0.0]),
            (1, "similarity", [0, 1], [0], [-0.0], [-0.0]),
            (3, "distance", [0, 1, 1, 2], [2, 0], [1.0, 1.0], [0.0, 0.0, 0.0]),
            (2, "cohesion", [0, 2, 3], [0, 1, 0], [3.0, -1.0, -1.0], [3.0, 0.0]),
            # Out-of-range columns come before unordered ones, those before
            # non-finite values, and those before distance errors.
            (2, "similarity", [0, 2, 2], [1, 2], [np.nan, 1.0], IndexOutOfRange),
            (2, "similarity", [0, 2, 2], [1, 0], [np.nan, 1.0], KsetsError),
            (2, "distance", [0, 2, 3], [0, 1, 0], [1.0, -1.0, np.inf], NonFiniteValue),
            # A self-distance comes before an earlier negative distance.
            (2, "distance", [0, 1, 2], [1, 1], [-1.0, 2.0], "self-distance at point 1"),
            (2, "distance", [0, 1, 2], [1, 0], [1.0, -1.0], "distance -1.0 at (1, 0)"),
            (2, "similarity", [0, 1, 2], [1, 1], [-1.0, 2.0], [0.0, 2.0]),
        ],
    )
    def test_cases(self, build_path, n, kind, indptr, indices, data, expected):
        try:
            g = SparseSymmetricMeasure(n, kind, indptr, indices, data)
        except KsetsError as exc:
            if isinstance(expected, str):
                assert isinstance(exc, NotADistance) and expected in str(exc)
            else:
                assert type(exc) is expected
            return
        assert g.diag.tobytes() == np.array(expected).tobytes()


class TestBuildPaths:
    """Errors, their precedence and edge cases, on both build paths."""

    @pytest.mark.parametrize(
        "triples, error, message",
        [
            # An index error comes before a duplicate.
            (
                [(0, 1, 1.0), (0, 1, 1.0), (0, 5, 1.0)],
                IndexOutOfRange,
                "point index 5 outside [0, 4)",
            ),
            # A duplicate comes before an earlier conflicting mirror.
            (
                [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 1.0), (2, 3, 1.0)],
                DuplicateEntry,
                "pair (2, 3) given twice",
            ),
            # The first repeat in (lo, hi, orientation) order, not input order.
            (
                [(3, 2, 1.0), (3, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 1, 1.0)],
                DuplicateEntry,
                "pair (2, 1) given twice",
            ),
            (
                [(1, 1, 1.0), (0, 1, 1.0), (1, 1, 2.0)],
                DuplicateEntry,
                "pair (1, 1) given twice",
            ),
            (
                [(2, 3, 1.0), (3, 2, 2.0), (3, 0, 5.0), (0, 3, 1.0)],
                AsymmetricDuplicate,
                "pair (0, 3) given with values 1.0 and 5.0",
            ),
            # One NaN mirror conflicts; the (lo, hi) orientation's value is first.
            (
                [(0, 1, np.nan), (1, 0, 1.0)],
                AsymmetricDuplicate,
                "pair (0, 1) given with values nan and 1.0",
            ),
            (
                [(1, 0, np.nan), (0, 1, 1.0)],
                AsymmetricDuplicate,
                "pair (0, 1) given with values 1.0 and nan",
            ),
            # Two NaN mirrors agree, and the constructor rejects the value.
            (
                [(1, 0, np.nan), (0, 1, np.nan)],
                NonFiniteValue,
                "non-finite value nan at (0, 1)",
            ),
        ],
    )
    def test_errors(self, build_path, triples, error, message):
        assert build_outcome(4, triples) == (error, message)

    def test_mirrors_given_both_ways_are_stored_once(self, build_path):
        triples = [(1, 0, 2.0), (0, 1, 2.0), (2, 0, -1.0), (0, 2, -1.0), (2, 2, 3.0)]
        g = build_from_triples(3, triples)
        assert g.indptr.tolist() == [0, 2, 3, 5]
        assert g.indices.tolist() == [1, 2, 0, 0, 2]
        assert g.data.tolist() == [2.0, -1.0, 2.0, -1.0, 3.0]
        # The arrays own exactly m entries.
        assert g.indices.base is None and g.data.base is None

    def test_all_zero_rows_store_nothing(self, build_path):
        triples = [(0, 1, 0.0), (1, 0, -0.0), (2, 2, 0.0), (0, 2, 0.0), (3, 1, 1.0)]
        g = build_from_triples(4, triples)
        assert g.indptr.tolist() == [0, 0, 1, 1, 2]
        assert g.indices.tolist() == [3, 1]
        assert not g.diag.any()

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_points_is_rejected(self, build_path, n):
        with pytest.raises(ArityMismatch, match="at least one point"):
            build_from_triples(n, [])

    @pytest.mark.parametrize(
        "n, triples, message",
        [
            # Index errors come before the missing points.
            (0, [(-1, 0, 1.0)], "point index -1 outside [0, 0)"),
            (0, [(0.5, 0, 1.0)], "point indices must be integers"),
            # A fractional index anywhere comes before any out-of-range one.
            (4, [(5, 0, 1.0), (0.5, 1, 1.0)], "point indices must be integers"),
            (4, [(0, 1, 1.0), (2, 0.25, 1.0)], "point indices must be integers"),
            (4, [(np.nan, 1, 1.0)], "point indices must be integers"),
            (4, [(1, np.nan, 1.0), (9, 0, 1.0)], "point indices must be integers"),
            (4, [(np.inf, 1, 1.0)], "point index inf outside [0, 4)"),
            (4, [(0, -np.inf, 1.0)], "point index -inf outside [0, 4)"),
            # The first bad triple in row order names i if i is bad, else j.
            (
                4,
                [(0, 1, 1.0), (0, 6, 1.0), (8, 0, 1.0)],
                "point index 6 outside [0, 4)",
            ),
            (4, [(9, 7, 1.0), (0, 5, 1.0)], "point index 9 outside [0, 4)"),
            (4, [(3, -2, 1.0)], "point index -2 outside [0, 4)"),
            (4, [(4, 0, 1.0)], "point index 4 outside [0, 4)"),
            # An index error comes before a repeat and before a conflict.
            (
                4,
                [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 1.0), (0, 4, 1.0)],
                "point index 4 outside [0, 4)",
            ),
            (
                4,
                [(0, 1, 1.0), (1, 0, 2.0), (1.5, 0, 1.0)],
                "point indices must be integers",
            ),
        ],
    )
    def test_index_errors(self, build_path, n, triples, message):
        assert build_outcome(n, triples) == (IndexOutOfRange, message)

    def test_negative_zero_is_index_zero(self, build_path):
        g = build_from_triples(2, [(-0.0, 1, 1.0), (1, -0.0, 1.0), (-0.0, -0.0, 2.0)])
        expected = build_from_triples(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 0, 2.0)])
        assert [getattr(g, name).tobytes() for name in CSR] == [
            getattr(expected, name).tobytes() for name in CSR
        ]
        assert g.indices.tolist() == [0, 1, 0]


@needs_cc
def test_shuffled_star_builds_like_the_reference():
    # Point 0 is joined to all others, in random order and orientation: a
    # row of 99,999 entries that a quadratic row sort would crawl through.
    n = 100_000
    rng = np.random.default_rng(7)
    triples = np.column_stack(
        [np.zeros(n - 1), rng.permutation(np.arange(1, n)), rng.uniform(0.5, 1.0, n - 1)]
    )
    flip = rng.random(n - 1) < 0.5
    triples[flip, :2] = triples[flip, 1::-1]
    assert _kernel.load() is not None
    assert build_outcome(n, triples) == reference_outcome(n, triples)


def _hub_row(d, order):
    """Triples that each put one entry in point 0's row, d in all: a self
    loop, then spokes given as (0, c), as (c, 0) or both ways with equal
    values, some of them zero, and a last spoke that is nonzero and given
    once, so that misplacing the largest key shows. The row's keys are
    scattered in ascending, descending or shuffled order, on the two sides
    of the compiled build's switch from insertion sort to heapsort at 16
    entries."""
    triples = [(0, 0, 2.0)]
    c = 1
    while len(triples) < d - 1:
        v = 0.0 if c % 5 == 0 else c % 3 - 1.5
        if c % 4 == 3 and len(triples) + 2 < d:
            triples += [(0, c, v), (c, 0, v)]
        else:
            triples.append((0, c, v) if c % 2 else (c, 0, v))
        c += 1
    triples.append((c, 0, 1.0))
    triples.sort(key=lambda t: 2 * t[1] if t[0] == 0 else 2 * t[0] + 1)
    if order == "descending":
        triples.reverse()
    elif order == "shuffled":
        triples = [triples[p] for p in np.random.default_rng(d).permutation(d)]
    return c + 1, triples


def _repeat_in_hub(d):
    """A hub row of d entries that holds one orientation twice, with another
    value, scattered far from its twin."""
    n, triples = _hub_row(d, "shuffled")
    return n, [(0, 5, 4.0)] + triples


def _conflict_in_hub(d):
    """A hub row of d entries whose mirror (0, 3) and (3, 0) disagree."""
    n, triples = _hub_row(d, "shuffled")
    return n, [(3, 0, 4.0) if t[:2] == (3, 0) else t for t in triples]


def _conflict_before_repeat(d):
    """A conflicting mirror in the hub row and a repeat in a later row: the
    repeat is reported, as the reference reports repeats before conflicts."""
    n, triples = _conflict_in_hub(d)
    return n + 2, triples + [(n, n + 1, 1.0), (n, n + 1, 1.0)]


HUB_ROWS = {
    f"{d}-{order}": _hub_row(d, order)
    for d in (16, 17, 1000)
    for order in ("ascending", "descending", "shuffled")
}
HUB_ROWS.update(
    (f"{name}-{d}", make(d))
    for name, make in [
        ("repeat", _repeat_in_hub),
        ("conflict", _conflict_in_hub),
        ("conflict-then-repeat", _conflict_before_repeat),
    ]
    for d in (17, 1000)
)


@needs_cc
@pytest.mark.parametrize("name", list(HUB_ROWS))
def test_hub_rows_at_the_sort_switch_build_like_the_reference(name):
    n, triples = HUB_ROWS[name]
    assert _kernel.load() is not None
    assert build_outcome(n, triples) == reference_outcome(n, triples)


@needs_cc
@pytest.mark.parametrize("builder", ["build_from_triples", "symmetrize", "load_dense_csv"])
def test_compiled_builds_peak_at_their_result(builder, tmp_path):
    # Beyond the input, a build allocates its result's arrays and nothing
    # else but small objects: no record buffer, copies or row index. A
    # dense build's table becomes its data array, and the loader's parsed
    # table is its input.
    import tracemalloc

    rng = np.random.default_rng(3)
    if builder == "build_from_triples":
        n = 20_000
        keys = rng.choice(n * n, size=100_000, replace=False)
        table = np.column_stack([keys // n, keys % n, rng.uniform(0.5, 1.0, keys.size)])
        table = table[table[:, 0] < table[:, 1]]  # one orientation per pair

        def build():
            return build_from_triples(n, table)

    elif builder == "symmetrize":
        n = 300
        raw = rng.uniform(1.0, 2.0, size=(n, n))

        def build():
            return symmetrize(raw)

    else:
        n = 300
        path = tmp_path / "raw.csv"
        np.savetxt(path, rng.uniform(1.0, 2.0, size=(n, n)), delimiter=",")

        def build():
            return load_dense_csv(path, average_asymmetric=True)[0]

    assert _kernel.load() is not None
    build()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    result = sum(getattr(g, name).nbytes for name in CSR)
    assert g.m >= 90_000
    assert result <= peak <= result + 8 * n + 64 * 1024


def relabel_loop(assign):
    """The dict loop that np.unique replaced in relabel_by_first_occurrence."""
    remap = {}
    new_assign = []
    for a in assign:
        if a not in remap:
            remap[a] = len(remap)
        new_assign.append(remap[a])
    return new_assign


class TestPartition:
    def test_from_assign(self):
        p = Partition.from_assign([0, 1, 1, 0], k=2)
        assert p.sizes.tolist() == [2, 2]
        assert p.n == 4

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetInPartition):
            Partition.from_assign([0, 0, 0], k=2)

    def test_from_sets(self):
        p = Partition.from_sets([[2, 0], [1]])
        assert p.assign.tolist() == [0, 1, 0]

    def test_two_dimensional_assignment_rejected(self):
        with pytest.raises(ArityMismatch) as info:
            Partition([[0, 1], [1, 0]], 2)
        assert type(info.value) is ArityMismatch
        assert str(info.value) == "expected a 1-D assignment, got shape (2, 2)"

    def test_from_sets_rejects_a_point_in_two_sets(self):
        with pytest.raises(DuplicateEntry) as info:
            Partition.from_sets([[0, 1], [1]])
        assert type(info.value) is DuplicateEntry
        assert str(info.value) == "point 1 assigned twice"

    def test_from_sets_must_cover(self):
        with pytest.raises(ArityMismatch):
            Partition.from_sets([[0], [2]], n=3)

    def test_relabel_by_first_occurrence(self):
        p = Partition.from_assign([2, 0, 2, 1], k=3)
        q = p.relabel_by_first_occurrence()
        assert q.assign.tolist() == [0, 1, 0, 2]

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_relabel_preserves_grouping(self, raw):
        raw = list(raw) + [0, 1, 2, 3]
        p = Partition.from_assign(raw, k=4)
        q = p.relabel_by_first_occurrence()
        for i in range(p.n):
            for j in range(p.n):
                same_before = p.assign[i] == p.assign[j]
                same_after = q.assign[i] == q.assign[j]
                assert same_before == same_after

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_relabel_matches_old_loop(self, raw):
        p = Partition.from_assign(raw + list(range(6)), k=6)
        q = p.relabel_by_first_occurrence()
        assert q.assign.tolist() == relabel_loop(p.assign.tolist())
        assert q.sizes.tolist() == Partition.from_assign(q.assign, k=6).sizes.tolist()


def from_assign_loop(assign, k=None):
    """The per-point loop from_assign counted with: its reference."""
    assign = [int(a) for a in assign]
    if not assign:
        raise EmptySetInPartition("empty assignment")
    if k is None:
        k = max(assign) + 1
    sizes = [0] * k
    for a in assign:
        if not 0 <= a < k:
            raise IndexOutOfRange(f"set index {a} outside [0, {k})")
        sizes[a] += 1
    if any(s == 0 for s in sizes):
        raise EmptySetInPartition(f"set {sizes.index(0)} is empty")
    return assign, k, sizes


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KsetsError as exc:
        return type(exc), str(exc)


class TestPartitionCounting:
    @given(
        st.lists(st.integers(-2, 5), max_size=12),
        st.one_of(st.none(), st.integers(1, 5)),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_assign_matches_loop(self, raw, k):
        def vectorized(raw, k):
            p = Partition.from_assign(raw, k=k)
            return p.assign.tolist(), p.k, p.sizes.tolist()

        assert _outcome(vectorized, raw, k) == _outcome(from_assign_loop, raw, k)

    def test_arrays_are_read_only_owned_int64(self):
        source = np.array([1, 0, 1])
        p = Partition(source, 2)
        source[0] = 0
        assert p.assign.tolist() == [1, 0, 1]
        assert p.sizes.tolist() == [1, 2]
        for array in (p.assign, p.sizes):
            assert array.dtype == np.int64
            assert not array.flags.writeable
            assert array.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            p.assign[0] = 0
        for name in ("assign", "k", "sizes"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, getattr(p, name))

    @pytest.mark.parametrize("bad", [[0, 1, 2], [0, 1, -1]])
    def test_validate_rejects_set_index_outside_k(self, bad):
        with pytest.raises(IndexOutOfRange, match=f"set index {bad[2]} outside"):
            Partition(bad, 2)

    def test_validate_catches_a_write_after_construction(self):
        p = Partition([0, 1, 1], 2)
        p.validate()
        p.assign.flags.writeable = True
        p.assign[0] = 2
        with pytest.raises(IndexOutOfRange):
            p.validate()


def test_repr_names_size_kind_and_stored_entries():
    g = build_from_triples(3, [(0, 0, 2.0), (0, 1, 1.0)])
    assert repr(g) == "SparseSymmetricMeasure(n=3, kind='similarity', m=3)"


class TestDataSet:
    def test_needs_a_point(self):
        with pytest.raises(ArityMismatch) as info:
            DataSet(0)
        assert type(info.value) is ArityMismatch
        assert str(info.value) == "a dataset needs at least one point"

    def test_labels_must_match_n(self):
        with pytest.raises(ArityMismatch):
            DataSet(2, labels=("a",))

    def test_labels_unique(self):
        with pytest.raises(ArityMismatch):
            DataSet(2, labels=("a", "a"))

    @pytest.mark.parametrize(
        "bad", ["", " a", "a\n", "a\tb", "a\rb", "a\nb"],
        ids=["empty", "leading_space", "trailing_lf", "tab", "cr", "lf"],
    )
    def test_labels_must_be_one_tsv_field(self, bad):
        with pytest.raises(ArityMismatch, match="cannot be one TSV field"):
            DataSet(2, labels=("a b", bad))

    def test_default_labels_are_indices(self):
        d = DataSet(3)
        assert d.label(1) == "1"
